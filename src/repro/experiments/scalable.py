"""The scalable (100,000-node) PeerWindow engine.

This is our build of the paper's own measurement device (§5): *"we record
all the correct peer lists in a centralized data structure, and only
record erroneous items in nodes' individual data structures ... making it
possible to run the whole experiment in memory"*.

Representation
--------------

Nodes live in NumPy slot arrays (id, level, threshold, alive, join time).
Peer lists are **implicit**: the size of an l-level node's list is the
number of live nodes sharing its l-bit prefix, maintained in per-level
prefix population counters (``_counts[l]``, one ``int32`` cell per l-bit
prefix).  Per-level *membership* counters (``_level_counts[l]``) count only
the level-l nodes per prefix; they give audience compositions for the
error and bandwidth accounting.  Each family is one flat table (cell of
``(l, prefix)`` = ``2^l - 1 + prefix``, the per-level arrays are views), so
one event reads or updates its ``max_level + 1`` cells with one gather.

Dynamics
--------

* Joins arrive in a Poisson process at rate ``n_target / mean_lifetime``
  (§5.1); each join samples a lifetime and a bandwidth from the Gnutella
  distributions and schedules the leave.
* Each node's level is the §2 cost model's stationary point for the
  *measured* system event rate; a periodic re-level sweep moves nodes
  whose affordable level changed (counted as level-change events, §4.3).
* Refresh multicasts fire for nodes that outlive twice the average
  lifetime (§4.6) — rare by construction, as the paper observes.

Accuracy accounting
-------------------

A leave keeps one entry **stale** in every audience member's list from
the departure until that member's delivery time; a join leaves one entry
**absent** symmetrically.  Per event we add
``delay(l) * |level-l audience|`` stale/absent entry-seconds to level l,
where ``delay(l)`` combines failure-detection latency (for leaves), the
report leg, and the multicast tree depth at level l times the per-hop
cost (1 s processing + mean underlay latency).  Per-level tree depths and
sender out-degrees are *measured*, not assumed: the engine periodically
runs the exact §4.2 binomial dissemination over the real audience of a
random subject (see :func:`binomial_broadcast`).  That tree is fixed by
the id trie and the strongest-first rule, so it is built bit-synchronously:

* the groups still waiting at bit ``b`` are the id-trie nodes of depth ``b``;
* one vector step per bit splits every group at once and re-roots each
  split-off half under its strongest member;
* "strongest" is a segmented minimum over the ``(level, id)`` rank.

Cost: at most ``id_bits`` steps of O(n) array work (about 40 ms for the
60,000-member audiences of the paper-scale run).

Dividing by the integrated entry-seconds (sampled each measurement tick)
gives exactly the paper's per-level peer-list error rate (figures 7, 10,
12); the same per-event bookkeeping accumulates input/output bits for
figure 8.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.transit_stub import TransitStubParams, TransitStubTopology
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.bandwidth_dist import (
    GnutellaBandwidthDistribution,
    threshold_from_bandwidth,
)
from repro.workloads.lifetime import GnutellaLifetimeDistribution, LifetimeDistribution


# ---------------------------------------------------------------------------
# Vectorized exact multicast dissemination
# ---------------------------------------------------------------------------


def binomial_broadcast(
    ids: np.ndarray,
    levels: np.ndarray,
    root_pos: int,
    id_bits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the §4.2 dissemination over an explicit audience.

    Every node holding the event handles bit ``b`` in the same vector step:
    the members it must still reach that differ from it at ``b`` get the
    event through their strongest one (lowest level, then lowest id), who
    serves them from bit ``b + 1`` on.  At most ``id_bits`` steps, each O(n).

    Parameters
    ----------
    ids, levels:
        Audience member ids (uint64) and levels, including the root.
    root_pos:
        Index of the multicast root (the top node) within the arrays.
    id_bits:
        Id width.

    Returns
    -------
    depths:
        Per-member delivery depth (hops from the root; root gets 0).
        Members the dissemination cannot reach keep ``-1`` (must not
        happen for well-formed audiences; tests assert full coverage).
    sender_counts:
        Per-member number of multicast messages sent (out-degree).
    """
    n = ids.shape[0]
    depths = np.full(n, -1, dtype=np.int32)
    sender_counts = np.zeros(n, dtype=np.int32)
    if n == 0:
        return depths, sender_counts
    depths[root_pos] = 0
    # Strongest-first rank (min level, then min id) and its inverse.
    by_strength = np.lexsort((ids, levels))
    rank = np.empty(n, dtype=np.intp)
    rank[by_strength] = np.arange(n)
    # Undelivered members in id order, each beside the node that must
    # reach it.  A root's members share its first ``b`` bits at bit ``b``
    # (they are one node of the id trie), so they are one contiguous run.
    members = np.argsort(ids, kind="stable")
    members = members[members != root_pos]
    roots = np.full(members.size, root_pos, dtype=np.intp)
    one = np.uint64(1)
    for b in range(id_bits):
        if members.size == 0:
            break
        shift = np.uint64(id_bits - 1 - b)
        split = np.flatnonzero(((ids[members] ^ ids[roots]) >> shift) & one)
        if split.size == 0:
            continue
        # One run per root whose group splits at this bit: the root sends
        # once, to the strongest member of the half it is not in, and that
        # member takes the half over.
        split_roots = roots[split]
        new_run = np.concatenate(([True], split_roots[1:] != split_roots[:-1]))
        run_starts = np.flatnonzero(new_run)
        split_rank = rank[members[split]]
        best = np.minimum.reduceat(split_rank, run_starts)
        targets = by_strength[best]
        senders = split_roots[run_starts]
        depths[targets] = depths[senders] + 1
        sender_counts[senders] += 1  # a root has one group: no repeats
        run_of = np.cumsum(new_run) - 1
        roots[split] = targets[run_of]
        undelivered = np.ones(members.size, dtype=bool)
        undelivered[split[split_rank == best[run_of]]] = False
        members = members[undelivered]
        roots = roots[undelivered]
    # Anything still in ``members`` equals its root in every bit: a
    # duplicate id, which a well-formed audience does not have.
    return depths, sender_counts


# ---------------------------------------------------------------------------
# Parameters and reports
# ---------------------------------------------------------------------------


#: Most cells one prefix-counter table may have (``2^(max_level+1) - 1``
#: ``int32`` cells, two tables per simulation): 64 MiB each, max_level <= 23.
COUNTER_TABLE_CELL_BUDGET = 1 << 24

#: Joins whose threshold and lifetime one refill draws ahead (the
#: ``bandwidth`` and ``lifetime`` streams have no other reader once the
#: population is seeded).  No result depends on it.
JOIN_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class ScalableParams:
    """Scenario parameters; defaults are the paper's common case (§5.1)."""

    n_target: int = 100_000
    id_bits: int = 48  # uniform ids; 48 bits ≫ log2(N), fits uint64 math
    lifetime_rate: float = 1.0
    duration_s: float = 1800.0  # measured window after warm-up
    warmup_s: float = 400.0
    seed: int = 0
    max_level: int = 18
    event_bits: int = 1000
    ack_bits: int = 100
    heartbeat_bits: int = 500
    probe_interval_s: float = 30.0
    probe_timeout_s: float = 5.0
    processing_delay_s: float = 1.0
    relevel_interval_s: float = 60.0
    measure_interval_s: float = 30.0
    tree_sample_interval_s: float = 120.0
    rate_window_s: float = 300.0
    use_transit_stub: bool = True
    threshold_fraction: float = 0.01
    threshold_floor_bps: float = 500.0

    def __post_init__(self) -> None:
        if self.n_target < 2:
            raise ValueError("n_target must be >= 2")
        if not 8 <= self.id_bits <= 62:
            raise ValueError("id_bits must be in [8, 62] for uint64 math")
        if self.lifetime_rate <= 0:
            raise ValueError("lifetime_rate must be positive")
        if self.max_level < 1 or self.max_level > self.id_bits:
            raise ValueError("max_level must be in [1, id_bits]")
        if self.n_target > 1 << self.id_bits:
            raise ValueError(
                f"n_target={self.n_target} needs more distinct ids than "
                f"id_bits={self.id_bits} has"
            )
        cells = (2 << self.max_level) - 1
        if cells > COUNTER_TABLE_CELL_BUDGET:
            raise ValueError(
                f"max_level={self.max_level} needs {cells:,} cells per counter "
                f"table; the budget is {COUNTER_TABLE_CELL_BUDGET:,}"
            )
        # A periodic tick with a non-positive period reschedules itself at
        # the same simulated instant forever; probe traffic divides by its
        # interval; ``threshold_from_bandwidth`` refuses the last.
        for name in (
            "relevel_interval_s", "measure_interval_s", "tree_sample_interval_s",
            "rate_window_s", "duration_s", "probe_interval_s", "threshold_fraction",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # A negative delay would charge negative staleness.
        for name in (
            "warmup_s", "probe_timeout_s", "processing_delay_s", "threshold_floor_bps",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class LevelRow:
    """Per-level results — one row of figures 5-8."""

    level: int
    population: int
    fraction: float
    mean_list_size: float
    min_list_size: float
    max_list_size: float
    error_rate: float
    stale_rate: float  # leave-staleness share of the error
    absent_rate: float  # join-absence share of the error
    in_bps: float
    out_bps: float


@dataclass
class ScalableResult:
    """Everything the figures need from one run."""

    params: ScalableParams
    final_population: int
    measured_event_rate: float
    rows: List[LevelRow]
    mean_error_rate: float
    joins: int = 0
    leaves: int = 0
    level_changes: int = 0
    refreshes: int = 0
    mean_tree_depth: float = 0.0
    max_tree_depth: int = 0
    mean_root_out_degree: float = 0.0

    def level_histogram(self) -> Dict[int, int]:
        return {r.level: r.population for r in self.rows}

    def fraction_at_level(self, level: int) -> float:
        for r in self.rows:
            if r.level == level:
                return r.fraction
        return 0.0

    def n_levels(self) -> int:
        return len([r for r in self.rows if r.population > 0])


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ScalableSim:
    """Centralized-bookkeeping PeerWindow simulation (100k-node capable)."""

    def __init__(
        self,
        params: Optional[ScalableParams] = None,
        lifetime_dist: Optional[LifetimeDistribution] = None,
        bandwidth_dist: Optional[GnutellaBandwidthDistribution] = None,
    ):
        self.p = params if params is not None else ScalableParams()
        self.streams = RandomStreams(self.p.seed)
        self.sim = Simulator()
        self.lifetimes = (
            lifetime_dist
            if lifetime_dist is not None
            else GnutellaLifetimeDistribution(lifetime_rate=self.p.lifetime_rate)
        )
        self.bandwidths = (
            bandwidth_dist if bandwidth_dist is not None else GnutellaBandwidthDistribution()
        )
        self._mean_lifetime = self.lifetimes.mean
        # Underlay latency: mean pairwise latency over the transit-stub
        # model (or the paper's 0.5 s/step assumption when disabled).
        if self.p.use_transit_stub:
            topo = TransitStubTopology(TransitStubParams(), seed=self.p.seed)
            self.mean_link_latency = float(np.mean(topo.latency_sample(4096)))
        else:
            self.mean_link_latency = 0.5
        self._hop_delay = self.p.processing_delay_s + self.mean_link_latency

        # Slot arrays --------------------------------------------------
        cap = int(self.p.n_target * 1.5) + 16
        self._cap = cap
        self.ids = np.zeros(cap, dtype=np.uint64)
        self.levels = np.zeros(cap, dtype=np.int16)
        self.thresholds = np.zeros(cap, dtype=np.float64)
        self.alive = np.zeros(cap, dtype=bool)
        self.join_times = np.zeros(cap, dtype=np.float64)
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self._slot_of: Dict[int, int] = {}  # id value -> slot

        # Prefix population counters -----------------------------------
        # One flat table each; the cell of (l, prefix) is 2^l - 1 + prefix,
        # and ``_counts[l]`` / ``_level_counts[l]`` are views of level l.
        L = self.p.max_level
        self._cell_base = (1 << np.arange(L + 1, dtype=np.int64)) - 1
        self._cell_shift = np.uint64(self.p.id_bits) - np.arange(L + 1, dtype=np.uint64)
        self._counts_flat = np.zeros((2 << L) - 1, dtype=np.int32)
        self._level_counts_flat = np.zeros((2 << L) - 1, dtype=np.int32)
        self._counts, self._level_counts = (
            [flat[(1 << l) - 1 : (2 << l) - 1] for l in range(L + 1)]
            for flat in (self._counts_flat, self._level_counts_flat)
        )

        # Measurement accumulators -------------------------------------
        self.stale_seconds = np.zeros(L + 1)
        self.absent_seconds = np.zeros(L + 1)
        self.entry_seconds = np.zeros(L + 1)
        self.bits_in = np.zeros(L + 1)
        self.bits_out = np.zeros(L + 1)
        self.node_seconds = np.zeros(L + 1)  # population integrated over time
        self._measuring = False
        self._measure_t0 = 0.0

        # Tree-depth calibration ----------------------------------------
        self._depth_by_level = np.zeros(L + 1)
        self._depth_samples = np.zeros(L + 1)
        self._sends_by_level = np.zeros(L + 1)
        self._send_samples = 0
        # What ``_delays`` / ``_charge_traffic`` read, derived from the four
        # above where ``_sample_tree`` writes them.
        self._depth_sampled = np.zeros(L + 1, dtype=bool)
        self._depth_delay = np.zeros(L + 1)  # depth * hop delay where sampled
        self._send_bits: Optional[np.ndarray] = None
        self._tree_depths_all: List[float] = []
        self._tree_max_depth = 0
        self._root_out_degrees: List[int] = []

        # Event-rate estimator -----------------------------------------
        self._event_times: deque = deque()
        self._rate_estimate = 0.0

        self.joins = 0
        self.leaves = 0
        self.level_changes = 0
        self.refreshes = 0

        self._rng_life = self.streams.get("lifetime")
        self._rng_bw = self.streams.get("bandwidth")
        self._rng_ids = self.streams.get("ids")
        self._rng_misc = self.streams.get("misc")
        # (threshold, lifetime) of the joins to come, next one last.
        self._join_draws: List[Tuple[float, float]] = []

    # -- population mechanics ------------------------------------------------

    @property
    def population(self) -> int:
        return len(self._slot_of)

    def _random_id(self) -> int:
        if len(self._slot_of) >= 1 << self.p.id_bits:
            raise RuntimeError(
                f"all 2**{self.p.id_bits} ids are live; id_bits is too small "
                f"for n_target={self.p.n_target}"
            )
        while True:
            value = int(self._rng_ids.integers(0, 1 << self.p.id_bits, dtype=np.uint64))
            if value not in self._slot_of:
                return value

    def _random_ids(self, n: int) -> np.ndarray:
        """What ``n`` calls of :meth:`_random_id` would return, in order.

        One ``integers(size=k)`` call yields the values of k scalar calls
        (pinned by ``test_batch_draw_is_scalar_draws``), and each round
        draws exactly as many values as are still missing, so the stream is
        consumed to the same point as by the scalar loop.
        """
        taken = np.fromiter(self._slot_of, dtype=np.uint64, count=len(self._slot_of))
        values = np.empty(0, dtype=np.uint64)
        while values.size < n:
            draw = self._rng_ids.integers(
                0, 1 << self.p.id_bits, size=n - values.size, dtype=np.uint64
            )
            values = np.concatenate([values, draw[~np.isin(draw, taken)]])
            first = np.unique(values, return_index=True)[1]
            if first.size < values.size:  # keep first occurrences, in draw order
                values = values[np.sort(first)]
        return values

    def _affordable_level(self, threshold: float) -> int:
        """§2 stationary level for the measured event rate."""
        rate = self._rate_estimate
        if rate <= 0:
            return 0
        cost0 = rate * self.p.event_bits
        if cost0 <= threshold:
            return 0
        return min(int(math.ceil(math.log2(cost0 / threshold))), self.p.max_level)

    def _affordable_levels(self, thresholds: np.ndarray) -> np.ndarray:
        """:meth:`_affordable_level` of each.  ``np.log2`` may differ from
        ``math.log2`` in the last bit, not in the ceiling (``TestBatchSeeding``)."""
        cost0 = self._rate_estimate * self.p.event_bits
        levels = np.zeros(thresholds.size, dtype=np.int16)
        above = cost0 > thresholds  # false everywhere when the rate is <= 0
        levels[above] = np.minimum(
            np.ceil(np.log2(cost0 / thresholds[above])), self.p.max_level
        )
        return levels

    def _prefix(self, value: int, l: int) -> int:
        return value >> (self.p.id_bits - min(l, self.p.max_level)) if l else 0

    def _cells(self, value: int) -> np.ndarray:
        """Flat-table cells of one id's prefixes, for l = 0..max_level."""
        return (np.uint64(value) >> self._cell_shift).astype(np.int64) + self._cell_base

    def _add_node(
        self, value: int, level: int, threshold: float, now: float, cells: np.ndarray
    ) -> int:
        slot = self._free.pop()
        self.ids[slot] = value
        self.levels[slot] = level
        self.thresholds[slot] = threshold
        self.alive[slot] = True
        self.join_times[slot] = now
        self._slot_of[value] = slot
        self._counts_flat[cells] += 1  # one cell per level
        l = min(level, self.p.max_level)
        self._level_counts[l][self._prefix(value, l)] += 1
        return slot

    def _remove_node(self, value: int, cells: np.ndarray) -> None:
        slot = self._slot_of.pop(value)
        self.alive[slot] = False
        self._counts_flat[cells] -= 1
        l = min(int(self.levels[slot]), self.p.max_level)
        self._level_counts[l][self._prefix(value, l)] -= 1
        self._free.append(slot)

    # -- event-rate estimator ------------------------------------------------

    def _record_event(self) -> None:
        now = self.sim.now
        times = self._event_times
        times.append(now)
        cutoff = now - self.p.rate_window_s
        while times and times[0] < cutoff:
            times.popleft()
        if now > 0:
            window = min(self.p.rate_window_s, now) or 1.0
            self._rate_estimate = len(times) / window

    # -- error/bandwidth accounting ---------------------------------------------

    def _delays(self, detection: float) -> np.ndarray:
        """Expected event-propagation delay to the level-l audience members,
        for l = 0..max_level."""
        # A level no tree sample has reached yet gets the log2(N)/2 guess.
        unsampled_depth = max(1.0, math.log2(max(self.population, 2)) * 0.5)
        tree = np.where(
            self._depth_sampled, self._depth_delay, unsampled_depth * self._hop_delay
        )
        return detection + self._hop_delay + tree  # the report leg is one hop

    def _audience(self, cells: np.ndarray) -> np.ndarray:
        """How many level-l nodes hear about the subject whose
        :meth:`_cells` these are, l = 0..max_level."""
        return self._level_counts_flat[cells].astype(np.int64)

    def _account_event(self, cells: np.ndarray, detection: float, stale: bool) -> None:
        """Charge one join/leave event's staleness/absence plus traffic."""
        if not self._measuring:
            return
        audience = self._audience(cells)
        # A level nobody listens at is charged ``delay * 0``: nothing.
        charge = self._delays(detection) * audience
        if stale:
            self.stale_seconds += charge
        else:
            self.absent_seconds += charge
        self._charge_traffic(audience)

    def _account_traffic(self, subject_value: int) -> None:
        """Charge one multicast's bandwidth (any event kind)."""
        if self._measuring:
            self._charge_traffic(self._audience(self._cells(subject_value)))

    def _charge_traffic(self, audience: np.ndarray) -> None:
        # Each audience member receives the 1000-bit event and acks it.
        self.bits_in += audience * self.p.event_bits
        self.bits_out += audience * self.p.ack_bits
        # Sender side of the multicast: distribute the tree's sends over
        # levels using the calibrated per-level out-degree profile.
        if self._send_bits is not None:
            self.bits_out += self._send_bits

    # -- simulation events ---------------------------------------------------------

    def _schedule_join(self) -> None:
        rate = self.p.n_target / self._mean_lifetime
        gap = float(self._rng_misc.exponential(1.0 / rate))
        self.sim.schedule(gap, self._do_join)

    def _do_join(self) -> None:
        now = self.sim.now
        value = self._random_id()
        if not self._join_draws:
            self._refill_join_draws()
        threshold, lifetime = self._join_draws.pop()
        level = self._affordable_level(threshold)
        cells = self._cells(value)
        self._add_node(value, level, threshold, now, cells)
        self.sim.schedule(lifetime, self._do_leave, value)
        self.joins += 1
        self._record_event()
        # Join events create *absent* pointers until delivery.
        self._account_event(cells, detection=0.0, stale=False)
        # §4.6 refresh: only nodes outliving twice the average lifetime
        # ever refresh (most never do).
        refresh_period = 2.0 * self._mean_lifetime
        if lifetime > refresh_period:
            self.sim.schedule(refresh_period, self._do_refresh, value, refresh_period)
        self._schedule_join()

    def _refill_join_draws(self) -> None:
        """Draw the next ``JOIN_DRAW_BLOCK`` joins' values: what that many
        scalar ``sample(rng)`` calls on each stream would return."""
        thresholds = threshold_from_bandwidth(
            self.bandwidths.sample_each(self._rng_bw, JOIN_DRAW_BLOCK),
            self.p.threshold_fraction, self.p.threshold_floor_bps,
        )
        lifetimes = self.lifetimes.sample(self._rng_life, JOIN_DRAW_BLOCK)
        self._join_draws = list(zip(thresholds.tolist(), lifetimes.tolist()))[::-1]

    def _do_leave(self, value: int) -> None:
        if value not in self._slot_of:
            return
        detection = self.p.probe_interval_s / 2.0 + self.p.probe_timeout_s
        cells = self._cells(value)
        self._account_event(cells, detection=detection, stale=True)
        self._remove_node(value, cells)
        self.leaves += 1
        self._record_event()

    def _do_refresh(self, value: int, period: float) -> None:
        if value not in self._slot_of:
            return
        self.refreshes += 1
        self._record_event()
        # A refresh re-announces existing state: traffic, but no error.
        self._account_traffic(value)
        self.sim.schedule(period, self._do_refresh, value, period)

    def _relevel_tick(self) -> None:
        """Autonomic level adjustment sweep (vectorized §4.3).

        Mirrors :class:`~repro.core.levels.LevelController`'s hysteresis:
        a node lowers (l -> l+1) only when its current cost exceeds its
        threshold, and raises (l -> l-1) only when the cost falls below
        half the threshold — the dead zone keeps levels from flapping as
        the measured rate fluctuates.
        """
        rate = self._rate_estimate
        if rate > 0 and self.population:
            mask = self.alive
            slots_all = np.flatnonzero(mask)
            thresholds = self.thresholds[slots_all]
            current = self.levels[slots_all].astype(np.float64)
            cost_now = rate * self.p.event_bits / np.exp2(current)
            lower = cost_now > thresholds
            raise_ = (cost_now < 0.5 * thresholds) & (current > 0)
            desired = self.levels[slots_all].astype(np.int16)
            desired[lower] += 1
            desired[raise_] -= 1
            desired = np.clip(desired, 0, self.p.max_level)
            changed = desired != self.levels[slots_all]
            if changed.any():
                slots = slots_all[changed]
                new_levels = desired[changed]
                for slot, new in zip(slots, new_levels):
                    value = int(self.ids[slot])
                    old = min(int(self.levels[slot]), self.p.max_level)
                    nl = min(int(new), self.p.max_level)
                    self._level_counts[old][self._prefix(value, old)] -= 1
                    self._level_counts[nl][self._prefix(value, nl)] += 1
                    self.levels[slot] = new
                    self.level_changes += 1
                    # A level change multicasts (traffic) but does not make
                    # pointers stale or absent, and it is deliberately NOT
                    # fed into the controller's rate estimate: letting the
                    # controller count its own adjustments creates a
                    # positive feedback loop (rate up -> levels down ->
                    # more changes).  The real protocol avoids this with
                    # per-node EWMA smoothing; the sweep achieves the same
                    # fixed point by tracking churn (join/leave/refresh)
                    # only.
                    self._account_traffic(value)
        self.sim.schedule(self.p.relevel_interval_s, self._relevel_tick)

    def _measure_tick(self) -> None:
        """Integrate entry-seconds, node-seconds and probe traffic."""
        if self._measuring:
            dt = self.p.measure_interval_s
            bits = self.p.id_bits
            for l in range(self.p.max_level + 1):
                slots = self._level_slots(l)
                if slots.size == 0:
                    continue
                prefixes = (
                    (self.ids[slots] >> np.uint64(bits - l)).astype(np.int64)
                    if l
                    else np.zeros(slots.size, dtype=np.int64)
                )
                sizes = self._counts[l][prefixes]
                self.entry_seconds[l] += float(sizes.sum()) * dt
                self.node_seconds[l] += slots.size * dt
                # Ring probing (§4.1): one heartbeat per probe interval per
                # node, plus the ack.
                probes = slots.size * dt / self.p.probe_interval_s
                self.bits_out[l] += probes * self.p.heartbeat_bits
                self.bits_in[l] += probes * (self.p.heartbeat_bits + self.p.ack_bits)
        self.sim.schedule(self.p.measure_interval_s, self._measure_tick)

    def _level_slots(self, l: int) -> np.ndarray:
        mask = self.alive & (
            np.minimum(self.levels, self.p.max_level) == l
        )
        return np.flatnonzero(mask)

    def _tree_sample_tick(self) -> None:
        """Calibrate per-level depths/out-degrees with one exact tree."""
        if self.population >= 4:
            self._sample_tree()
        self.sim.schedule(self.p.tree_sample_interval_s, self._tree_sample_tick)

    def _sample_tree(self) -> None:
        bits = self.p.id_bits
        # Random live subject.
        values = list(self._slot_of.keys())
        subject = values[int(self._rng_misc.integers(0, len(values)))]
        subject_u = np.uint64(subject)
        mask = self.alive.copy()
        # Audience: alive nodes whose eigenstring is a prefix of subject.
        lv = np.minimum(self.levels, self.p.max_level).astype(np.uint64)
        shifts = np.uint64(bits) - lv
        agree = ((self.ids ^ subject_u) >> shifts) == 0
        mask &= agree
        idx = np.flatnonzero(mask)
        if idx.size < 2:
            return
        ids = self.ids[idx]
        levels = self.levels[idx].astype(np.int32)
        # Root: the strongest audience member (a top node), ties by id.
        order = np.lexsort((ids, levels))
        root_pos = int(order[0])
        depths, senders = binomial_broadcast(ids, levels, root_pos, bits)
        reached = depths >= 0
        for l in range(self.p.max_level + 1):
            sel = reached & (np.minimum(levels, self.p.max_level) == l)
            if sel.any():
                self._depth_by_level[l] += float(depths[sel].mean())
                self._depth_samples[l] += 1
            sends_l = senders[np.minimum(levels, self.p.max_level) == l].sum()
            self._sends_by_level[l] += float(sends_l)
        self._send_samples += 1
        self._depth_sampled = self._depth_samples > 0
        np.divide(
            self._depth_by_level, self._depth_samples,
            out=self._depth_delay, where=self._depth_sampled,
        )
        self._depth_delay *= self._hop_delay
        self._send_bits = self._sends_by_level / self._send_samples * self.p.event_bits
        self._tree_depths_all.append(float(depths[reached].mean()))
        self._tree_max_depth = max(self._tree_max_depth, int(depths.max()))
        self._root_out_degrees.append(int(senders[root_pos]))

    # -- lifecycle ----------------------------------------------------------------

    def seed_population(self) -> None:
        """Create the initial ``n_target`` nodes (the paper's step one).
        Once per ``ScalableSim``; :meth:`run` calls it if nobody has."""
        if self.population:
            raise RuntimeError(
                "this ScalableSim is already seeded; seed_population() runs once"
            )
        n = self.p.n_target
        # Analytic initial rate: joins + leaves ≈ 2N/L.
        self._rate_estimate = 2.0 * n / self._mean_lifetime
        bws = np.asarray(self.bandwidths.sample(self._rng_bw, n))
        thresholds = threshold_from_bandwidth(
            bws, self.p.threshold_fraction, self.p.threshold_floor_bps
        )
        # Residual (stationary) lifetimes, so the population neither dips
        # nor surges after seeding.
        lifetimes = self.lifetimes.sample_residual(self._rng_life, n)
        values = self._random_ids(n)
        levels = self._affordable_levels(thresholds)
        slots = self._free[: -n - 1 : -1]  # what n pops would return
        del self._free[-n:]
        self._slot_of.update(zip(values.tolist(), slots))
        at = np.asarray(slots)
        self.ids[at] = values
        self.levels[at] = levels
        self.thresholds[at] = thresholds
        self.alive[at] = True
        self.join_times[at] = 0.0
        bits = self.p.id_bits
        own = np.minimum(levels, self.p.max_level)
        for l in range(self.p.max_level + 1):
            prefixes = (values >> np.uint64(bits - l)).astype(np.int64)
            self._counts[l] += np.bincount(prefixes, minlength=1 << l)
            self._level_counts[l] += np.bincount(prefixes[own == l], minlength=1 << l)
        # Two batches that are the schedule of, per node, ``schedule(lifetime,
        # _do_leave, value)`` then — if it outlives the refresh period —
        # ``schedule(refresh_period, _do_refresh, value, refresh_period)``:
        # a leave takes the number after all that earlier nodes took, its
        # refresh the next (DESIGN.md §4, Schedule discipline).
        refresh_period = 2.0 * self._mean_lifetime
        refreshing = lifetimes > refresh_period
        taken = np.cumsum(refreshing)
        first = self.sim.reserve(n + int(taken[-1]))
        leave_seqs = first + np.arange(n) + taken - refreshing
        now = self.sim.now
        leave_times = now + lifetimes  # elementwise: each is ``now + delay``
        order = np.lexsort((leave_seqs, leave_times))
        self.sim.schedule_batch(
            leave_times[order], leave_seqs[order], self._do_leave, values[order].tolist()
        )
        # Every refresh falls on the same instant, so in sequence order.
        refresh_seqs = leave_seqs[refreshing] + 1
        self.sim.schedule_batch(
            np.full(refresh_seqs.size, now + refresh_period), refresh_seqs,
            self._do_refresh, values[refreshing].tolist(), refresh_period,
        )

    def run(self) -> ScalableResult:
        """Seed, warm up, measure, and report.  Once per ``ScalableSim``."""
        if self.sim.now > 0 or self.sim.events_executed:
            raise RuntimeError(
                "this ScalableSim has already run; build a new one per run"
            )
        if not self.population:
            self.seed_population()
        self._schedule_join()
        self.sim.schedule(self.p.relevel_interval_s, self._relevel_tick)
        self.sim.schedule(self.p.measure_interval_s, self._measure_tick)
        self.sim.schedule(1.0, self._tree_sample_tick)
        # Warm-up: run without accounting so the level distribution and
        # the rate estimator reach steady state first.
        self.sim.run(until=self.p.warmup_s)
        self._measuring = True
        self._measure_t0 = self.sim.now
        self.sim.run(until=self.p.warmup_s + self.p.duration_s)
        return self._report()

    # -- reporting ----------------------------------------------------------------

    def _report(self) -> ScalableResult:
        rows: List[LevelRow] = []
        pop = self.population
        bits = self.p.id_bits
        total_err_num = 0.0
        total_err_den = 0.0
        for l in range(self.p.max_level + 1):
            slots = self._level_slots(l)
            count = int(slots.size)
            if count == 0 and self.node_seconds[l] == 0:
                continue
            if count:
                prefixes = (
                    (self.ids[slots] >> np.uint64(bits - l)).astype(np.int64)
                    if l
                    else np.zeros(count, dtype=np.int64)
                )
                sizes = self._counts[l][prefixes].astype(float)
            else:
                sizes = np.zeros(1)
            err_num = self.stale_seconds[l] + self.absent_seconds[l]
            err_den = self.entry_seconds[l]
            error_rate = err_num / err_den if err_den > 0 else 0.0
            stale_rate = self.stale_seconds[l] / err_den if err_den > 0 else 0.0
            absent_rate = self.absent_seconds[l] / err_den if err_den > 0 else 0.0
            total_err_num += err_num
            total_err_den += err_den
            ns = self.node_seconds[l]
            rows.append(
                LevelRow(
                    level=l,
                    population=count,
                    fraction=count / pop if pop else 0.0,
                    mean_list_size=float(sizes.mean()),
                    min_list_size=float(sizes.min()),
                    max_list_size=float(sizes.max()),
                    error_rate=float(error_rate),
                    stale_rate=float(stale_rate),
                    absent_rate=float(absent_rate),
                    in_bps=float(self.bits_in[l] / ns) if ns > 0 else 0.0,
                    out_bps=float(self.bits_out[l] / ns) if ns > 0 else 0.0,
                )
            )
        mean_error = total_err_num / total_err_den if total_err_den > 0 else 0.0
        return ScalableResult(
            params=self.p,
            final_population=pop,
            measured_event_rate=self._rate_estimate,
            rows=rows,
            mean_error_rate=float(mean_error),
            joins=self.joins,
            leaves=self.leaves,
            level_changes=self.level_changes,
            refreshes=self.refreshes,
            mean_tree_depth=(
                float(np.mean(self._tree_depths_all)) if self._tree_depths_all else 0.0
            ),
            max_tree_depth=self._tree_max_depth,
            mean_root_out_degree=(
                float(np.mean(self._root_out_degrees)) if self._root_out_degrees else 0.0
            ),
        )
