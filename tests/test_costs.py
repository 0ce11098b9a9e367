"""What the program costs, counted rather than timed: one table of bounds.

A row bounds one counter (:mod:`tests.costs`) of one builder's run at one n
by a ceiling, or with ``per`` by a multiple of the same counter at n =
``per``: a cost that must stay flat as the population grows.  ``value`` is
what the counter read at ``since`` (a commit's subject).  A builder runs
once per n and process; one that counts collector passes runs in a fresh
interpreter, all its n in one, so what the rest of a pytest run keeps alive
does not move the collector's thresholds.  Each row is checked once, marked
``costs``: by :func:`test_cost`, or by the test that first held its bound,
which keeps its name and calls :func:`check` for its counters.
"""

import functools
import json
import sys
from array import array
from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.core.peerlist import SHARED
from repro.core.pointer import Pointer
from repro.experiments.scalable import ScalableParams, ScalableSim, binomial_broadcast
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NodeObs
from repro.sim.engine import Simulator
from tests.conftest import fresh_python, mutable_parts, seeded_ring
from tests.costs import Footprint, Passes, Profile


class Row(NamedTuple):
    builder: str
    n: int
    counter: str
    bound: float
    value: float
    since: str
    per: Optional[int] = None


TRIE = "A tree sample works per splitting trie node"
ROUNDS = "Probe rounds that leave nothing for the collector"
TICKS = "A probe tick is one batch"
TOPS = "Keep top-node lists as columnar rows"
PEER_ROWS = "Peer-list rows at ≤ 22 bytes"
TABLE = "One counted-cost table"
FLOOR = "Joins at the floor"
TIMER_ROWS = "Pending timers as rows"
CALLS, YOUNG, MIDDLE, FULL = "calls/event", "young/1e4 events", "middle/1e4 events", "full passes"

ROWS = [
    # A hop (send -> queue -> deliver -> handler) runs in the frames of
    # Transport.send, Simulator.step and Transport._deliver (DESIGN.md §4).
    # 20 until a helper planted back on the hop read 18.10 (cost-hop-helper
    # in scripts/guard_matrix.py) and passed; today's hop reads 17.45.
    Row("ring", 200, CALLS, 17.8, 17.45, TABLE),
    Row("ring", 3000, CALLS, 1.05, 17.67, TABLE, per=200),
    Row("churn", 3000, CALLS, 1.05, 27.33, TABLE, per=200),
    # The collector's share grows with n (ROADMAP item 14): ceilings 10 %
    # over the reading, no growth bound yet.  The ring's passes are read
    # over [240, 360] sim-s, a steady probe round: over [120, 240] they
    # read 17.36 / 20.85 / 24.44 young, mostly first allocations.  Churn's
    # young passes at 1,000 and 3,000 sit tighter: an object per downloaded
    # row on the §4.3 join path reads 52.22 and 61.22 (cost-join-row-objects).
    Row("ring", 200, YOUNG, 4.77, 4.34, FLOOR),
    Row("ring", 1000, YOUNG, 12.8, 11.67, FLOOR),
    Row("ring", 3000, YOUNG, 14.4, 13.06, FLOOR),
    Row("ring", 200, MIDDLE, 0, 0, FLOOR),
    Row("ring", 1000, MIDDLE, 0.92, 0.83, FLOOR),
    Row("ring", 3000, MIDDLE, 1.22, 1.11, FLOOR),
    Row("churn", 200, YOUNG, 31.5, 28.61, TABLE),
    Row("churn", 1000, YOUNG, 51.2, 50.26, TABLE),
    Row("churn", 3000, YOUNG, 60.0, 58.83, TABLE),
    Row("churn", 200, MIDDLE, 0, 0, TABLE),
    Row("churn", 1000, MIDDLE, 5.03, 4.57, TABLE),
    Row("churn", 3000, MIDDLE, 5.76, 5.23, TABLE),
    Row("churn", 3000, FULL, 2, 2, TABLE),
    Row("rounds", 2000, "tracked/node", 64, 61.1, ROUNDS),
    Row("rounds", 2000, "pointers", 0, 0, TOPS),
    Row("rounds", 2000, YOUNG, 20, 12.0, TABLE),
    Row("rounds", 2000, FULL, 1, 1, ROUNDS),
    Row("probe_ticks", 200, FULL, 2, 1, TICKS),
    Row("ring_steady", 200, "tracked/node", 4, -0.005, TABLE),
    Row("level0_rows", 1000, "bytes/row", 22, 21.4, PEER_ROWS),
    # 7.74 until pending timers became rows (7.04 before them).
    Row("scalable_churn", 5000, CALLS, 7.46, 6.78, TIMER_ROWS),
    # A pending leave or refresh is a row of one heap behind one handle
    # (Simulator.timer_rows), so what a run leaves tracked does not grow with
    # its 7,315 joins: one EventHandle per pending timer read 3,889.
    Row("scalable_churn", 5000, "tracked", 64, 18, TIMER_ROWS),
    Row("scalable_seeding", 20_000, "tracked", 999, 32, TABLE),
    Row("scalable_seeding", 20_000, "pending", 4, 2, TABLE),
    Row("timer_batch", 10_000, "tracked", 32, 14, TABLE),
    # A step is 12 C calls, at most id_bits of them, after 16 of set-up;
    # 25 * 40 and 1.5x (264 and 217 at n = 1,000) until every step split.
    Row("broadcast", 16_000, "C calls", 16 + 12 * 40, 232, TIMER_ROWS),
    Row("broadcast", 16_000, "C calls", 1.4, 232, TIMER_ROWS, per=1000),
    Row("tree_sample", 4000, "lexsorts", 0, 0, TRIE),
    Row("tree_sample", 4000, "argsorts", 1, 1, TRIE),
    Row("closed_spans", 20_000, "|tracked|", 49, 1, TABLE),
    Row("closed_spans", 20_000, "bytes/span", 150, 116.7, TABLE),
    Row("disabled_views", 1000, "bytes beyond the view", 16, 0, TABLE),
]


#: Builders that count collector passes, each run in a fresh interpreter.
#: ``probe_ticks`` starts its own, with no test module imported: the
#: imports of this one delay its one full pass past the end of the run.
FRESH = ("ring", "churn", "rounds")
#: Builders no other test checks (the rest are checked where they started).
OWN = ("ring", "churn", "probe_ticks")


@functools.cache
def measure(name: str, n: int) -> dict:
    """What builder ``name`` reads at ``n``, once per process."""
    if name in FRESH:
        return fresh_axis(name)[n]
    return globals()[name](n)


@functools.cache
def fresh_axis(name: str) -> dict:
    """Builder ``name`` at each n of its rows, in one fresh interpreter."""
    ns = sorted({row.n for row in ROWS if row.builder == name})
    code = (f"import json\nfrom tests.test_costs import {name}\n"
            f"print(json.dumps([{name}(n) for n in {ns}]))")
    return dict(zip(ns, json.loads(fresh_python(code))))


def check(name: str, n: int, *counters: str) -> None:
    """Every row of builder ``name`` at ``n``, or those of ``counters``."""
    rows = [
        row for row in ROWS
        if (row.builder, row.n) == (name, n) and (not counters or row.counter in counters)
    ]
    assert rows, f"no row for {name} at n = {n}"
    for row in rows:
        read = measure(name, n)[row.counter]
        limit = row.bound * measure(name, row.per)[row.counter] if row.per else row.bound
        assert read <= limit, (
            f"{name}, n = {n}: {row.counter} {read:.4g} > {limit:.4g}"
            f" (read {row.value:g} at '{row.since}')"
        )


@pytest.mark.costs
@pytest.mark.parametrize(
    "name, n", sorted({(r.builder, r.n) for r in ROWS if r.builder in OWN}), ids=str
)
def test_cost(name, n):
    check(name, n)


def per_10k(passes: Passes, events: int) -> dict:
    young, middle, full = passes.by_gen
    return {YOUNG: young * 1e4 / events, MIDDLE: middle * 1e4 / events, FULL: full}


# -- the builders: one run each, returning its counters -----------------------


def ring(n):
    """Python calls over 120 sim-s after 120 of warm-up, then collector
    passes over the next 120: the first window's passes are mostly the
    engine's first allocations, not a steady probe round."""
    net = seeded_ring(n)
    net.run(until=120.0)
    first = net.sim.events_executed
    with Profile() as prof:
        net.run(until=240.0)
    events = net.sim.events_executed - first
    first += events
    with Passes() as passes:
        net.run(until=360.0)
    steady = net.sim.events_executed - first
    assert min(events, steady) > 2000
    return {CALLS: prof.calls / events, **per_10k(passes, steady)}


def churn(n):
    """The ledger's ``detailed_churn`` mix (levels 0, 0, 1, 2) after 30 sim-s:
    Python calls and collector passes over three 12-s cycles of a crash, a
    leave and no departure, one join each."""
    net = seeded_ring(n, levels=(0, 0, 1, 2))
    net.run(until=30.0)
    rng = np.random.default_rng(0)
    first = net.sim.events_executed
    with Passes() as passes, Profile() as prof:
        for depart in (net.crash, net.leave, None):
            live = [key for key, node in net.nodes.items() if node.alive]
            if depart:
                depart(live.pop(int(rng.integers(len(live)))))
            net.add_node(1e9, bootstrap=live[0])
            net.run(until=net.now + 12.0)
    events = net.sim.events_executed - first
    assert events > 10 * n
    return {CALLS: prof.calls / events, **per_10k(passes, events)}


def rounds(n):
    """What seeding leaves for a full collector pass to walk, per node, and
    the ``Pointer`` objects among it (no list holds an object per row); then
    collector passes over 600 sim-s of steady §4.1 probing from 60 s."""
    with Footprint(of=Pointer) as fp:
        net = seeded_ring(n)
    nodes = net.live_nodes()
    rows = sum(len(node.peer_list) for node in nodes)
    held = sum(
        len(node.top_list)
        + sum(len(node.cross_parts.for_part(part)) for part in node.cross_parts.parts())
        for node in nodes
    )
    assert len(nodes) == n and rows > 250_000
    assert rows / 10 < held < rows / 5
    for node in nodes[::40]:
        parts = mutable_parts(node.peer_list).values()
        assert not any(isinstance(part, Pointer) for part in parts)
        for column in vars(node.peer_list).values():
            if isinstance(column, (list, array)):
                assert len(column) == len(node.peer_list)
    net.run(until=60.0)
    first = net.sim.events_executed
    with Passes() as passes:
        net.run(until=660.0)
    events = net.sim.events_executed - first
    assert events == 60 * n
    return {"tracked/node": fp.tracked / n, "pointers": fp.typed, **per_10k(passes, events)}


_TICKS = """
from repro.compare import TournamentConfig, run_tournament
from tests.costs import Passes

cfg = TournamentConfig(contestants=("explicit-probe",), n_nodes={n},
                       duration=130.0, window=30.0, seeds=(0,))
with Passes() as passes:
    (row,) = run_tournament(cfg)["rows"]
print(*passes.by_gen, row["spans_total"])
"""


def probe_ticks(n):
    """Explicit-probe alone, ``n`` x 130 sim-s, observability, bus and
    windower on (what a tournament runs), in a fresh interpreter: what a
    pytest run keeps alive would move the collector's thresholds."""
    young, middle, full, spans = map(int, fresh_python(_TICKS.format(n=n)).split())
    assert spans > 150_000
    return {FULL: full}


def ring_steady(n):
    """Objects still tracked, per node, after 540 sim-s (~16 probe rounds)
    of steady state from 60 s."""
    net = seeded_ring(n)
    net.run(until=60.0)
    with Footprint() as fp:
        net.run(until=600.0)
    assert sum(node.stats.probes_sent for node in net.live_nodes()) >= 15 * n
    for node in net.live_nodes():
        timers = node.ctx.loop_timers
        assert len(timers) <= 5
        assert set(timers) <= {"probe", "refresh", "sweep", "audit", "level"}
    return {"tracked/node": fp.tracked / n}


def level0_rows(n):
    """What a row of the paper's commonest peer list weighs: ``n`` nodes all
    at level 0, every column and sparse map of every list, and the network's
    id -> address table once.  An honest network writes every address its
    table holds, so no row keeps its own."""
    net = seeded_ring(n, levels=(0,))
    live, table = net.live_nodes(), net._addresses
    rows, size, extras = 0, sys.getsizeof(table), []
    for node in live:
        rows += len(node.peer_list)
        size += sum(
            sys.getsizeof(part) for part in vars(node.peer_list).values()
            if isinstance(part, (list, dict, array)) and part is not table
        )
        ctx = node.ctx
        extras += list(ctx.peer_list._extras.values()) + list(ctx.top_list._extras)
        if ctx.cross_parts._rows is not None:
            extras += ctx.cross_parts._rows._extras
    assert rows == n * n
    assert not [row for row in extras if row is not None and row[2] is not SHARED]
    return {"bytes/row": size / rows}


def timer_batch(n):
    """Objects a sorted batch of ``n`` timers adds: the closure and its cells."""
    sim = Simulator()
    times = np.sort(np.random.default_rng(0).uniform(0.0, 100.0, n))
    values = list(range(n))
    with Footprint() as fp:
        sim.schedule_batch(times, sim.reserve(n) + np.arange(n), print, values)
    assert len(sim) == 1
    return {"tracked": fp.tracked}


def scalable_seeding(n):
    """Seeding a ``ScalableSim``: no handle, bound method or heap pair per
    seeded timer."""
    sim = ScalableSim(ScalableParams(n_target=n, use_transit_stub=False))
    with Footprint() as fp:
        sim.seed_population()
    assert sim.population == n
    return {"tracked": fp.tracked, "pending": len(sim.sim)}


def scalable_churn(n):
    """Python calls per join, leave, refresh or level change of a run, and
    the objects the run leaves tracked."""
    sim = ScalableSim(
        ScalableParams(n_target=n, warmup_s=0.0, duration_s=600.0, seed=4, lifetime_rate=0.05)
    )
    sim.seed_population()
    with Footprint() as fp, Profile() as prof:
        res = sim.run()
    events = res.joins + res.leaves + res.refreshes + res.level_changes
    assert events > 10_000 and res.joins > 5000
    return {CALLS: prof.calls / events, "tracked": fp.tracked}


def broadcast(n):
    """C calls of one 40-bit ``binomial_broadcast`` over ``n`` random ids: at
    most ``id_bits`` vector steps of a fixed number of calls each (18 steps
    at n = 16,000, 13 at 1,000)."""
    rng = np.random.default_rng(0xB175)
    ids = np.unique(rng.integers(0, 1 << 40, size=n, dtype=np.uint64))
    levels = rng.integers(0, 4, size=ids.size).astype(np.int32)
    with Profile() as prof:
        depths, _ = binomial_broadcast(ids, levels, 0, 40)
    assert (depths >= 0).all()
    return {"C calls": prof.c_calls}


def tree_sample(n):
    """The sorts of one ``_sample_tree``.  NumPy 2 runs ``np.lexsort``
    through a Python-level dispatcher; every argsort, function or method,
    ends in one ``ndarray.argsort`` C call."""
    sim = ScalableSim(ScalableParams(n_target=n, seed=2, use_transit_stub=False))
    sim.seed_population()
    with Profile(keyed=True) as prof:
        audience = sim._sample_tree()
    assert audience > 100 and prof.by_name["argsort"] >= 1
    return {"lexsorts": prof.named("lexsort"), "argsorts": prof.by_name["argsort"]}


def closed_spans(n):
    """``n`` closed ``probe`` spans after 1,000 (the interned key tuple
    exists from there on): a retained span is a row, not an object."""
    obs, targets = NodeObs("n0", enabled=True), list(range(1000, 1200))  # shared, as peer keys are

    def probes(k):
        for i in range(k):
            obs.end(obs.start("probe", float(i), target=targets[i % 200]), i + 0.1, "ok")

    probes(1000)
    with Footprint(trace=True) as fp:
        probes(n)
    assert obs.span_count() == n + 1000
    return {"|tracked|": abs(fp.tracked), "bytes/span": fp.traced / n}


def disabled_views(n):
    """Bytes per disabled ``NodeObs`` beyond its own size and a disabled
    registry's: it holds no columns."""

    def bytes_per(make):
        with Footprint(trace=True) as fp:
            made = [make() for _ in range(n)]
        return fp.traced / n, made[0]

    per_view, view = bytes_per(lambda: NodeObs("n0"))
    per_registry, _ = bytes_per(lambda: MetricsRegistry(enabled=False))
    assert view.spans == [] and view.span_count() == 0 and view.open_traces() == []
    return {"bytes beyond the view": per_view - per_registry - sys.getsizeof(view)}
