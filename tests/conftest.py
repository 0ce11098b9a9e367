"""Shared fixtures for the PeerWindow test suite."""

from __future__ import annotations

import os
from array import array
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.pointer import Pointer
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel
from repro.net.transit_stub import TransitStubParams


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that can import ``repro`` and has
    imported nothing yet; its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.path.dirname(SRC)])},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def small_transit_stub() -> TransitStubParams:
    """A scaled-down GT-ITM underlay (6 transit domains) that builds fast."""
    return TransitStubParams(
        transit_domains=6,
        transit_nodes_per_domain=2,
        stub_domains_per_transit=2,
        stub_nodes_per_stub_domain=2,
        extra_domain_edges=4,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def fast_config(**overrides) -> ProtocolConfig:
    """Short timers so tests converge fast and narrow ids so worked examples
    stay readable, with ``overrides``."""
    return ProtocolConfig(**{
        "id_bits": 16, "probe_interval": 5.0, "probe_timeout": 1.0,
        "multicast_ack_timeout": 1.0, "report_timeout": 2.0,
        "level_check_interval": 10.0, "multicast_processing_delay": 0.1, **overrides,
    })


def seeded_ring(n: int, levels=(3, 4, 4, 5)) -> PeerWindowNetwork:
    """The ledger's ``detailed_ring`` population: ``n`` paper-default
    (128-bit) nodes at pinned levels 3/4/4/5, level controller parked,
    §4.1 probing only (``levels`` cycles other pinned levels)."""
    net = PeerWindowNetwork(
        config=ProtocolConfig(level_check_interval=1e6),
        topology=PairwiseLatencyModel(),
        master_seed=0,
    )
    net.seed_nodes(
        [{"threshold_bps": 1e9, "level": levels[i % len(levels)]} for i in range(n)]
    )
    return net


def build_network(
    n: int,
    threshold: float = 100_000.0,
    seed: int = 1,
    config: ProtocolConfig | None = None,
    loss_rate: float = 0.0,
    settle: float = 30.0,
) -> tuple[PeerWindowNetwork, list]:
    """Seed an n-node network and let it settle briefly."""
    config = config or fast_config()
    net = PeerWindowNetwork(config=config, master_seed=seed, loss_rate=loss_rate)
    keys = net.seed_nodes([threshold] * n)
    if settle > 0:
        net.run(until=settle)
    return net, keys


def mutable_parts(peer_list) -> dict:
    """Identities of every mutable object a peer list is built from."""
    found = {}
    for column in vars(peer_list).values():
        if isinstance(column, (list, dict, array, set)):
            found[id(column)] = column
            members = column.values() if isinstance(column, dict) else column
            for member in members:
                if isinstance(member, (list, dict, set, Pointer)):
                    found[id(member)] = member
    return found
