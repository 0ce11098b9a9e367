"""Named chaos scenarios.

Each :class:`Scenario` couples a protocol configuration tuned for chaos
runs (fast probe/report clocks so detection and repair fit in simulated
minutes, frozen level changes so the population shape stays the
convergence oracle's) with a seeded :class:`~repro.chaos.faults.FaultPlan`
builder.

Two timing rules every scenario obeys:

* **partitions and zombies stay inside the detection horizon**
  (``probe_misses_to_fail * probe_timeout`` — 6 s under
  :data:`CHAOS_CONFIG`): the pinned protocol behavior for longer cuts is
  permanent mutual eviction (see ``tests/integration/test_partition.py``),
  which can never re-converge without out-of-band rendezvous and would
  make a zero-violation acceptance criterion a lie;
* **crashes are allowed to be detected** — they are announced via §4.1
  obituaries and, for ``crash_recover``, repaired via the §4.3 rejoin —
  so their windows need no such cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict

from repro.chaos.faults import FaultPlan
from repro.core.config import ProtocolConfig

#: The common chaos clock: detection horizon 3 x 2 = 6 s, quiescence
#: bound (see :func:`repro.chaos.monitor.quiescence_bound`) = 8 + 6 +
#: (2*4 + 3*2 + 16*0.25) + 8 = 40 s.
CHAOS_CONFIG = ProtocolConfig(
    id_bits=16,
    probe_interval=8.0,
    probe_timeout=2.0,
    probe_misses_to_fail=3,
    multicast_ack_timeout=2.0,
    multicast_attempts=3,
    report_timeout=4.0,
    level_check_interval=1e6,
    multicast_processing_delay=0.25,
    join_retry_attempts=2,
    join_retry_backoff=2.0,
)


@dataclass(frozen=True)
class Scenario:
    """A named, parameterized chaos recipe."""

    name: str
    description: str
    default_nodes: int
    settle: float
    plan: Callable[[int, int], FaultPlan]
    threshold_bps: float = 1e9
    config_overrides: Dict[str, float] = field(default_factory=dict)

    def make_config(self) -> ProtocolConfig:
        if self.config_overrides:
            return replace(CHAOS_CONFIG, **self.config_overrides)
        return CHAOS_CONFIG

    def build_plan(self, n_nodes: int, seed: int) -> FaultPlan:
        return self.plan(n_nodes, seed)


def _smoke_plan(n: int, seed: int) -> FaultPlan:
    plan = FaultPlan(seed)
    plan.crash(5.0, count=1)
    plan.partition(12.0, groups=2, duration=3.5)
    plan.pair_loss(20.0, pairs=max(4, n // 2), rate=0.3, duration=8.0)
    plan.duplicate(24.0, rate=0.2, duration=8.0)
    return plan


def _churn_partition_plan(n: int, seed: int) -> FaultPlan:
    burst = max(2, n // 100)
    plan = FaultPlan(seed)
    plan.churn(10.0, crash=burst, join=burst)
    plan.partition(35.0, groups=2, duration=4.0)
    plan.churn(55.0, crash=burst, join=burst)
    plan.partition(75.0, groups=3, duration=4.0)
    plan.crash_recover(95.0, count=max(1, burst // 2), down_for=20.0)
    return plan


def _loss_storm_plan(n: int, seed: int) -> FaultPlan:
    # The churn burst comes *after* the storm clears: an event multicast
    # under heavy targeted loss can exhaust its bounded retries
    # (rate^attempts per lossy tree edge), and the §4.6 expiry that would
    # eventually repair the miss is far outside the quiescence window.
    # The storm itself still exercises lossy probing — including
    # false-positive evictions and their REFRESH refutation.
    plan = FaultPlan(seed)
    plan.pair_loss(10.0, pairs=4 * n, rate=0.4, duration=30.0)
    plan.duplicate(15.0, rate=0.15, duration=25.0)
    plan.churn(48.0, crash=max(1, n // 40), join=max(1, n // 40))
    return plan


def _zombie_latency_plan(n: int, seed: int) -> FaultPlan:
    plan = FaultPlan(seed)
    plan.zombie(10.0, count=max(1, n // 30), duration=4.0)
    plan.latency_spike(20.0, scale=3.0, duration=15.0)
    plan.slow(25.0, count=max(1, n // 20), extra=0.3, duration=15.0)
    plan.zombie(45.0, count=max(1, n // 30), duration=4.0)
    return plan


def _crash_churn_plan(n: int, seed: int) -> FaultPlan:
    # Crash/churn only (no partitions or zombies), so there is no
    # detection-horizon cap to respect: this is the DetSan smoke — lots
    # of joins and obituaries means lots of Pointer-carrying payloads
    # that node state must not keep.
    batch = max(1, n // 20)
    plan = FaultPlan(seed)
    plan.crash(8.0, count=batch)
    plan.churn(20.0, crash=batch, join=batch)
    plan.crash_recover(40.0, count=max(1, batch // 2), down_for=15.0)
    plan.churn(60.0, join=batch)
    return plan


def _recovery_stress_plan(n: int, seed: int) -> FaultPlan:
    batch = max(1, n // 25)
    plan = FaultPlan(seed)
    plan.crash_recover(10.0, count=batch, down_for=15.0)
    plan.crash_recover(40.0, count=batch, down_for=20.0)
    plan.crash(60.0, count=max(1, batch // 2))
    plan.churn(65.0, join=batch)
    return plan


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="smoke",
            description="fast everything-once pass for CI (one crash, a "
                        "short cut, loss, duplication)",
            default_nodes=40,
            settle=10.0,
            plan=_smoke_plan,
        ),
        Scenario(
            name="churn-partition",
            description="churn bursts interleaved with short partitions "
                        "and crash-recovery (the acceptance scenario)",
            default_nodes=500,
            settle=15.0,
            plan=_churn_partition_plan,
        ),
        Scenario(
            name="loss-storm",
            description="wide asymmetric pair loss plus duplication with "
                        "churn in the middle of the storm",
            default_nodes=120,
            settle=10.0,
            plan=_loss_storm_plan,
        ),
        Scenario(
            name="zombie-latency",
            description="hung (zombie) nodes, a global latency spike and "
                        "slow endpoints",
            default_nodes=90,
            settle=10.0,
            plan=_zombie_latency_plan,
        ),
        Scenario(
            name="crash_churn",
            description="crash and churn bursts with a recovery batch — "
                        "the DetSan sanitizer smoke (payload-heavy "
                        "join/obituary traffic, no partitions)",
            default_nodes=60,
            settle=10.0,
            plan=_crash_churn_plan,
        ),
        Scenario(
            name="recovery-stress",
            description="repeated crash-recovery batches, a permanent "
                        "crash and fresh joins",
            default_nodes=100,
            settle=10.0,
            plan=_recovery_stress_plan,
        ),
    )
}
