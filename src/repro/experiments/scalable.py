"""The scalable (100,000-node) PeerWindow engine.

This is our build of the paper's own measurement device (§5): *"we record
all the correct peer lists in a centralized data structure, and only
record erroneous items in nodes' individual data structures ... making it
possible to run the whole experiment in memory"*.

Representation
--------------

Nodes live in NumPy slot arrays (id, level, threshold, alive).
Peer lists are **implicit**: the size of an l-level node's list is the
number of live nodes sharing its l-bit prefix, maintained in per-level
prefix population counters (``_counts[l]``, one ``int32`` cell per l-bit
prefix).  Per-level *membership* counters (``_level_counts[l]``) count only
the level-l nodes per prefix; they give audience compositions for the
error and bandwidth accounting.  Each family is one flat table (cell of
``(l, prefix)`` = ``2^l - 1 + prefix``, the per-level arrays are views), so
a block of events reads or updates its ``max_level + 1`` cells each with one
gather.

Dynamics
--------

* Joins arrive in a Poisson process at rate ``n_target / mean_lifetime``
  (§5.1); each join samples a lifetime and a bandwidth from the Gnutella
  distributions and schedules the leave.  A join's id, bandwidth and
  lifetime are drawn ``JOIN_DRAW_BLOCK`` joins ahead, each stream having
  no other reader after seeding, and the chain of joins re-arms one handle.
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

* the audience is sorted by id once, so every id-trie node is a run of
  positions;
* the groups still waiting at bit ``b`` are the id-trie nodes of depth ``b``
  with a member left to reach, each held as ``(lo, hi, root)``;
* one vector step per bit finds every group's split point with one
  ``searchsorted`` and re-roots each split-off half under its strongest
  member;
* "strongest" is a segmented minimum (one ``reduceat``) over the rank
  ``level * n + position``, which is the ``(level, id)`` order.

Cost: one sort, then at most ``id_bits`` steps over the waiting groups
(≈ 1.4 n group-steps in all for uniform ids), not over their members:
about 20 ms for the 66,000-member audiences of the paper-scale run.

Dividing by the integrated entry-seconds (sampled each measurement tick)
gives exactly the paper's per-level peer-list error rate (figures 7, 10,
12); the same per-event charges accumulate input/output bits for figure 8.
Each event queues one churn row; ``_flush`` charges a block of rows with one
sort (each row sees its own moment's level counts) and one axis-0 reduce per
accumulator (the same addends in the same order as one ``+=`` per event).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, islice, repeat
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.analytic import (
    RAISE_FRACTION,
    level_shifts,
    stationary_level,
    stationary_levels,
)
from repro.experiments.predict import system_event_rate
from repro.net.transit_stub import TransitStubParams, TransitStubTopology
from repro.sim.engine import EventHandle, Simulator
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
    serves them from bit ``b + 1`` on.  At most ``id_bits`` steps, each over
    the id-trie nodes still waiting, not over their members.

    Parameters
    ----------
    ids, levels:
        Audience member ids (uint64, each below ``2**id_bits``) and levels,
        one per member, including the root.
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

    Raises
    ------
    ValueError
        ``ids`` not ``uint64``, ``ids`` / ``levels`` shapes that differ, an
        id of ``2**id_bits`` or more, or a ``root_pos`` outside ``[0, n)``
        (an empty audience has no root to check).
    """
    ids = np.asarray(ids)
    levels = np.asarray(levels)
    if ids.dtype != np.uint64:
        raise ValueError(f"ids must be uint64, not {ids.dtype}")
    if ids.ndim != 1 or levels.shape != ids.shape:
        raise ValueError(
            f"ids and levels must be 1-D and of one shape, not {ids.shape} and {levels.shape}"
        )
    n = ids.shape[0]
    depths = np.full(n, -1, dtype=np.int32)
    sender_counts = np.zeros(n, dtype=np.int32)
    if n == 0:
        return depths, sender_counts
    if not 0 <= root_pos < n:
        raise ValueError(f"root_pos={root_pos} is outside [0, {n})")
    # Members in id order: a node of the id trie is one run of positions.
    # Equal ids (ill-formed) keep their input order, so of two copies at one
    # level the first is the stronger.
    order = ids.argsort()
    sorted_ids = ids[order]
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        order = ids.argsort(kind="stable")
        sorted_ids = ids[order]
    if int(sorted_ids[-1]) >> id_bits:
        raise ValueError(f"id {int(sorted_ids[-1])} does not fit in id_bits={id_bits}")
    # Strongest-first rank of each position: (level, position in id order)
    # as one integer, so a position is ``rank % n``.  The extra last cell
    # lets a half that ends at ``n`` close its ``reduceat`` segment.
    rank = np.empty(n + 1, dtype=np.int64)
    rank[:n] = levels[order].astype(np.int64) * n
    rank[:n] += np.arange(n)
    rank[n] = np.iinfo(np.int64).max
    depths[root_pos] = 0
    # The trie nodes still waiting, in position order: positions [lo, hi),
    # all undelivered but the node's root.  A node whose root is alone in
    # it is done.
    waiting = int(n > 1)
    lo = np.zeros(waiting, dtype=np.intp)
    hi = np.full(waiting, n, dtype=np.intp)
    root = (order == root_pos).nonzero()[0][:waiting]
    one = np.uint64(1)
    for b in range(id_bits):
        if lo.size == 0:
            break
        shift = np.uint64(id_bits - 1 - b)
        # First position whose id has the root's first b bits and a 1 at b.
        mid = sorted_ids.searchsorted(((sorted_ids[root] >> shift) | one) << shift)
        upper = root >= mid
        split = ((lo < mid) & (mid < hi)).nonzero()[0]
        target = root.copy()
        if split.size:
            # Each splitting node's root sends once, to the strongest member
            # of the half it is not in, and that member roots the half.  The
            # halves are in position order, so the segments between them
            # cover each position at most once.
            bounds = np.empty(2 * split.size, dtype=np.intp)
            bounds[0::2] = np.where(upper, lo, mid)[split]
            bounds[1::2] = np.where(upper, mid, hi)[split]
            target[split] = np.minimum.reduceat(rank, bounds)[0::2] % n
            senders = order[root[split]]
            depths[order[target[split]]] = depths[senders] + 1
            sender_counts[senders] += 1  # a root has one node: no repeats
        # Both halves of every node, lower first, then only those waiting.
        halves = 2 * lo.size
        lo2 = np.empty(halves, dtype=np.intp)
        hi2 = np.empty(halves, dtype=np.intp)
        root2 = np.empty(halves, dtype=np.intp)
        lo2[0::2] = lo
        lo2[1::2] = hi2[0::2] = mid
        hi2[1::2] = hi
        root2[0::2] = np.where(upper, target, root)
        root2[1::2] = np.where(upper, root, target)
        keep = (hi2 - lo2 > 1).nonzero()[0]
        lo = lo2[keep]
        hi = hi2[keep]
        root = root2[keep]
    # A node still waiting holds copies of its root's id: duplicates, which
    # a well-formed audience does not have.
    return depths, sender_counts


# ---------------------------------------------------------------------------
# Parameters and reports
# ---------------------------------------------------------------------------


#: Most cells one prefix-counter table may have (``2^(max_level+1) - 1``
#: ``int32`` cells, two tables per simulation): 64 MiB each, max_level <= 23.
COUNTER_TABLE_CELL_BUDGET = 1 << 24

#: Joins whose threshold, lifetime and id one refill draws ahead (the
#: ``bandwidth``, ``lifetime`` and ``ids`` streams have no other reader once
#: the population is seeded).  No result depends on it.
JOIN_DRAW_BLOCK = 1024

#: Churn rows one ``_flush`` pass takes; it bounds the pass's memory.  No
#: result depends on it.
CHURN_BLOCK = 4096
# A churn row: id, kind, old level, new level (-1: none), unsampled-tree delay.
_JOIN, _LEAVE, _REFRESH, _RELEVEL = range(4)
_ROW = 5


class _UnsampledDelays(dict):
    """Population -> tree delay to a level no tree sample has reached yet:
    the log2(N)/2-hop guess, computed at a population's first lookup."""

    def __init__(self, hop_delay: float):
        super().__init__()
        self.hop_delay = hop_delay

    def __missing__(self, population: int) -> float:
        delay = self[population] = (
            max(1.0, math.log2(max(population, 2)) * 0.5) * self.hop_delay
        )
        return delay


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

    #: The one handle the chain of joins re-arms; :meth:`run` makes it.
    _join: EventHandle

    def __init__(
        self,
        params: Optional[ScalableParams] = None,
        lifetime_dist: Optional[LifetimeDistribution] = None,
        bandwidth_dist: Optional[GnutellaBandwidthDistribution] = None,
    ):
        self.p = params if params is not None else ScalableParams()
        if lifetime_dist is not None and lifetime_dist.lifetime_rate != self.p.lifetime_rate:
            raise ValueError(
                f"lifetime_dist.lifetime_rate={lifetime_dist.lifetime_rate} differs from "
                f"params.lifetime_rate={self.p.lifetime_rate}"
            )
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
        self._unsampled = _UnsampledDelays(self._hop_delay)
        # The join process's constants (§5.1, §4.6) and the follow-ups a
        # join schedules, bound once.
        self._join_scale = 1.0 / (self.p.n_target / self._mean_lifetime)
        self._refresh_period = 2.0 * self._mean_lifetime
        self._leave, self._refresh = self._do_leave, self._do_refresh

        # Slot arrays --------------------------------------------------
        cap = int(self.p.n_target * 1.5) + 16
        self._cap = cap
        self.ids = np.zeros(cap, dtype=np.uint64)
        self.levels = np.zeros(cap, dtype=np.int16)
        self.thresholds = np.zeros(cap, dtype=np.float64)
        self.alive = np.zeros(cap, dtype=bool)
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
        # What ``_flush`` charges with, derived from the four above where
        # ``_sample_tree`` writes them.
        self._depth_sampled = np.zeros(L + 1, dtype=bool)
        self._depth_delay = np.zeros(L + 1)  # depth * hop delay where sampled
        self._send_bits: Optional[np.ndarray] = None
        self._tree_depths_all: List[float] = []
        self._tree_max_depth = 0
        self._root_out_degrees: List[int] = []

        # Event-rate estimator -----------------------------------------
        self._event_times: deque = deque()
        self._rate_estimate = 0.0

        self._rows: List[float] = []  # churn rows not yet flushed, back to back

        self.joins = 0
        self.leaves = 0
        self.level_changes = 0
        self.refreshes = 0

        self._rng_life = self.streams.get("lifetime")
        self._rng_bw = self.streams.get("bandwidth")
        self._rng_ids = self.streams.get("ids")
        self._rng_misc = self.streams.get("misc")
        # (threshold, lifetime) of the joins to come, and the ``ids``
        # values still to be taken; next one last.
        self._join_draws: List[Tuple[float, float]] = []
        self._id_draws: List[int] = []

    # -- population mechanics ------------------------------------------------

    @property
    def population(self) -> int:
        return len(self._slot_of)

    def _random_id(self) -> int:
        """The next ``ids`` value that is not live now.  The values come
        ``JOIN_DRAW_BLOCK`` at a time, which is that many scalar draws
        (``test_batch_draw_is_scalar_draws``), and each is checked against
        the live set when it is taken: the ids are the scalar loop's, only
        the stream runs ahead, and after seeding nothing else reads it."""
        taken = self._slot_of
        if len(taken) >= 1 << self.p.id_bits:
            raise RuntimeError(
                f"all 2**{self.p.id_bits} ids are live; id_bits is too small "
                f"for n_target={self.p.n_target}"
            )
        draws = self._id_draws
        while True:
            if not draws:
                draws += self._rng_ids.integers(
                    0, 1 << self.p.id_bits, size=JOIN_DRAW_BLOCK, dtype=np.uint64
                ).tolist()[::-1]
            value = draws.pop()
            if value not in taken:
                return value

    def _random_ids(self, n: int) -> np.ndarray:
        """The ids ``n`` scalar draws would give, skipping a live or
        repeated value, in order (what ``n`` calls of :meth:`_random_id`
        return).

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

    def _cells(self, values: np.ndarray) -> np.ndarray:
        """Flat-table cells of each id's prefixes: one row per id, one
        column per level l = 0..max_level."""
        return (values[:, None] >> self._cell_shift).astype(np.int64) + self._cell_base

    # -- event-rate estimator ------------------------------------------------

    def _record_event(self) -> None:
        """Count a join, leave or refresh (its row queued) now."""
        if len(self._rows) >= _ROW * CHURN_BLOCK:
            self._flush()
        now = self.sim._now  # the clock's own field: one call fewer per event
        times = self._event_times
        times.append(now)
        cutoff = now - self.p.rate_window_s
        while times and times[0] < cutoff:
            times.popleft()
        if now > 0:
            window = min(self.p.rate_window_s, now) or 1.0
            self._rate_estimate = len(times) / window

    # -- simulation events ---------------------------------------------------------

    def _do_join(self) -> None:
        value = self._random_id()
        if not self._join_draws:
            self._refill_join_draws()
        threshold, lifetime = self._join_draws.pop()
        level = stationary_level(
            self._rate_estimate * self.p.event_bits, threshold, self.p.max_level
        )
        slot = self._free.pop()
        self.ids[slot] = value
        self.levels[slot] = level
        self.thresholds[slot] = threshold
        self.alive[slot] = True
        slot_of = self._slot_of
        slot_of[value] = slot
        self.sim.schedule(lifetime, self._leave, value)
        self.joins += 1
        # Join events create *absent* pointers until delivery.
        self._rows += (value, _JOIN, -1, level, self._unsampled[len(slot_of)])
        self._record_event()
        # §4.6 refresh: only nodes outliving twice the average lifetime
        # ever refresh (most never do).
        period = self._refresh_period
        if lifetime > period:
            self.sim.schedule(period, self._refresh, value, period)
        # The next join, a Poisson gap from now (§5.1).
        self._join.rearm(self._rng_misc.exponential(self._join_scale))

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
        slot = self._slot_of.get(value)
        if slot is None:
            return
        # Charged while the leaver still counts: its own audience and N.
        self._rows += (
            value, _LEAVE, int(self.levels[slot]), -1, self._unsampled[len(self._slot_of)]
        )
        del self._slot_of[value]
        self.alive[slot] = False
        self._free.append(slot)
        self.leaves += 1
        self._record_event()

    def _do_refresh(self, value: int, period: float) -> None:
        if value not in self._slot_of:
            return
        self.refreshes += 1
        # A refresh re-announces existing state: traffic, but no error.
        self._rows += (value, _REFRESH, -1, -1, 0.0)
        self._record_event()
        self.sim.schedule(period, self._refresh, value, period)

    def _relevel_tick(self) -> None:
        """Autonomic level adjustment sweep (vectorized §4.3).

        Each live node's cost at its current level and the measured rate
        goes through :func:`~repro.core.analytic.level_shifts` at
        ``RAISE_FRACTION``, clipped to ``[0, max_level]``: the stateless
        rule, without the detailed engine's anti-flap hold (DESIGN.md §4,
        *The level rule*).
        """
        rate = self._rate_estimate
        if rate > 0 and self.population:
            slots_all = np.flatnonzero(self.alive)
            thresholds = self.thresholds[slots_all]
            levels = self.levels[slots_all]
            cost_now = rate * self.p.event_bits / np.exp2(levels.astype(np.float64))
            shifts = level_shifts(levels, cost_now, thresholds, RAISE_FRACTION)
            desired = np.clip(levels + shifts, 0, self.p.max_level)
            changed = desired != levels
            if changed.any():
                slots = slots_all[changed]
                old = levels[changed]
                new = desired[changed]
                self.levels[slots] = new
                self.level_changes += slots.size
                # A level change multicasts (traffic) but does not make
                # pointers stale or absent, and it is deliberately NOT fed
                # into the controller's rate estimate: letting the
                # controller count its own adjustments creates a positive
                # feedback loop (rate up -> levels down -> more changes).
                # The real protocol avoids this with per-node EWMA
                # smoothing; the sweep achieves the same fixed point by
                # tracking churn (join/leave/refresh) only.  One row per
                # changed node, in slot order.
                self._rows += chain.from_iterable(zip(
                    self.ids[slots].tolist(), repeat(_RELEVEL), old.tolist(),
                    new.tolist(), repeat(0.0),
                ))
        self.sim.schedule(self.p.relevel_interval_s, self._relevel_tick)

    def _flush(self) -> None:
        """Apply the pending churn rows, ``CHURN_BLOCK`` at a time, as if
        each had been applied at its own event (DESIGN.md §4, *Churn rows*).
        Row i's level-count updates and audience reads share one sort key,
        ``cell * (3k + 3) + order``: ``3i`` for an update before the read (a
        join's, a level change's two), ``3i + 1`` for the read, ``3i + 2``
        for a leave's removal; a per-cell running sum then gives each read
        its own moment's count."""
        pending = self._rows
        if not pending:
            return
        self._rows = []
        p = self.p
        width = p.max_level + 1
        leave_delay = p.probe_interval_s / 2.0 + p.probe_timeout_s + self._hop_delay
        for start in range(0, len(pending), _ROW * CHURN_BLOCK):
            rows = pending[start : start + _ROW * CHURN_BLOCK]
            k = len(rows) // _ROW
            cells = self._cells(np.array(rows[0::_ROW], dtype=np.uint64))
            kind = np.array(rows[1::_ROW], dtype=np.int8)
            old = np.array(rows[2::_ROW], dtype=np.int64)
            new = np.array(rows[3::_ROW], dtype=np.int64)
            # One entry per (row, level) read, then one per level-count update.
            adds = (new >= 0).nonzero()[0]
            drops = (old >= 0).nonzero()[0]
            reads = k * width
            cell = np.concatenate(
                [cells.ravel(), cells[adds, new[adds]], cells[drops, old[drops]]]
            )
            order = np.concatenate([
                np.repeat(3 * np.arange(k) + 1, width),
                3 * adds,
                3 * drops + 2 * (kind[drops] == _LEAVE),
            ])
            step = np.zeros(cell.size, dtype=np.int64)
            step[reads : reads + adds.size] = 1
            step[reads + adds.size :] = -1
            # A join adds its node to every prefix, a leave removes it.
            size_step = np.zeros(cell.size, dtype=np.int64)
            size_step[:reads] = np.repeat((kind == _JOIN).astype(np.int64) - (kind == _LEAVE), width)
            by_cell = (cell * (3 * k + 3) + order).argsort()
            cell, step, size_step = cell[by_cell], step[by_cell], size_step[by_cell]
            starts = np.concatenate(([True], cell[1:] != cell[:-1])).nonzero()[0]
            # Per cell, the updates up to and including each entry.
            running = step.cumsum()
            running -= np.repeat(running[starts] - step[starts], np.diff(starts, append=cell.size))
            counts = self._level_counts_flat[cell] + running
            held = cell[starts]
            self._level_counts_flat[held] += np.add.reduceat(step, starts)
            self._counts_flat[held] += np.add.reduceat(size_step, starts)
            if not self._measuring:
                continue
            is_read = by_cell < reads
            audience = np.empty(reads, dtype=np.int64)
            audience[by_cell[is_read]] = counts[is_read]
            audience = audience.reshape(k, width)
            # Same addends, same order: an axis-0 reduce adds the rows one
            # after another, as k ``+=`` would (``test_axis0_reduce_is_sequential``).
            charged = kind <= _LEAVE
            tree = np.where(
                self._depth_sampled, self._depth_delay,
                np.array(rows[4::_ROW])[charged, None],
            )
            leaves = kind[charged] == _LEAVE
            delay = np.where(leaves, leave_delay, self._hop_delay)[:, None] + tree
            charge = delay * audience[charged]
            for acc, addends in (
                (self.stale_seconds, charge[leaves]),
                (self.absent_seconds, charge[~leaves]),
                (self.bits_in, audience * p.event_bits),
            ):
                acc[:] = np.add.reduce(np.vstack([acc, addends]), axis=0)
            # Each audience member receives the 1000-bit event and acks it;
            # the sender side spreads the tree's sends over levels by the
            # calibrated per-level out-degree profile: two adds per event.
            if self._send_bits is None:
                sent = audience * p.ack_bits
            else:
                sent = np.empty((2 * k, width))
                sent[0::2] = audience * p.ack_bits
                sent[1::2] = self._send_bits
            self.bits_out[:] = np.add.reduce(np.vstack([self.bits_out, sent]), axis=0)

    def _measure_tick(self) -> None:
        """Integrate entry-seconds, node-seconds and probe traffic."""
        self._flush()
        if self._measuring:
            dt = self.p.measure_interval_s
            nodes = np.zeros(self.p.max_level + 1)
            entries = np.zeros(self.p.max_level + 1)
            for l in range(self.p.max_level + 1):
                sizes, members = self._level_lists(l)
                nodes[l] = members.sum()
                entries[l] = sizes @ members  # an integer: exact
            self.entry_seconds += entries * dt
            self.node_seconds += nodes * dt
            # Ring probing (§4.1): one heartbeat per probe interval per
            # node, plus the ack.
            probes = nodes * dt / self.p.probe_interval_s
            self.bits_out += probes * self.p.heartbeat_bits
            self.bits_in += probes * (self.p.heartbeat_bits + self.p.ack_bits)
        self.sim.schedule(self.p.measure_interval_s, self._measure_tick)

    def _level_lists(self, l: int) -> Tuple[np.ndarray, np.ndarray]:
        """Level l's peer-list sizes and how many level-l nodes have each:
        a level-l node's list is everyone sharing its l-bit prefix, so per
        prefix that has a level-l node, that prefix's population."""
        members = self._level_counts[l]
        held = members.nonzero()[0]
        return self._counts[l][held].astype(np.int64), members[held].astype(np.int64)

    def _tree_sample_tick(self) -> None:
        """Calibrate per-level depths/out-degrees with one exact tree."""
        if self.population >= 4:
            self._sample_tree()
        self.sim.schedule(self.p.tree_sample_interval_s, self._tree_sample_tick)

    def _sample_tree(self) -> int:
        """Add one exact tree over a random subject's audience to the
        calibration; returns the audience size (0 below two members)."""
        self._flush()  # rows queued so far are charged with the delays of before
        bits = self.p.id_bits
        # Random live subject.
        i = int(self._rng_misc.integers(0, len(self._slot_of)))
        subject = next(islice(self._slot_of, i, None))
        subject_u = np.uint64(subject)
        mask = self.alive.copy()
        # Audience: alive nodes whose eigenstring is a prefix of subject.
        lv = np.minimum(self.levels, self.p.max_level).astype(np.uint64)
        shifts = np.uint64(bits) - lv
        agree = ((self.ids ^ subject_u) >> shifts) == 0
        mask &= agree
        idx = np.flatnonzero(mask)
        if idx.size < 2:
            return 0
        ids = self.ids[idx]
        levels = self.levels[idx].astype(np.int32)
        # Root: the strongest audience member (a top node), ties by id.
        strongest = (levels == levels.min()).nonzero()[0]
        root_pos = int(strongest[ids[strongest].argmin()])
        depths, senders = binomial_broadcast(ids, levels, root_pos, bits)
        reached = depths >= 0
        # Sums of integers, exact in float64: a level's mean depth does not
        # depend on the order its depths are added in.
        width = self.p.max_level + 1
        capped = np.minimum(levels, self.p.max_level)
        reached_levels = capped[reached]
        depth_counts = np.bincount(reached_levels, minlength=width)
        depth_sums = np.bincount(reached_levels, weights=depths[reached], minlength=width)
        sampled = depth_counts > 0
        self._depth_by_level[sampled] += depth_sums[sampled] / depth_counts[sampled]
        self._depth_samples[sampled] += 1
        self._sends_by_level += np.bincount(capped, weights=senders, minlength=width)
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
        return int(idx.size)

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
        self._rate_estimate = system_event_rate(n, self._mean_lifetime)
        bws = np.asarray(self.bandwidths.sample(self._rng_bw, n))
        thresholds = threshold_from_bandwidth(
            bws, self.p.threshold_fraction, self.p.threshold_floor_bps
        )
        # Residual (stationary) lifetimes, so the population neither dips
        # nor surges after seeding.
        lifetimes = self.lifetimes.sample_residual(self._rng_life, n)
        values = self._random_ids(n)
        levels = stationary_levels(
            self._rate_estimate * self.p.event_bits, thresholds, self.p.max_level
        )
        slots = self._free[: -n - 1 : -1]  # what n pops would return
        del self._free[-n:]
        self._slot_of.update(zip(values.tolist(), slots))
        at = np.asarray(slots)
        self.ids[at] = values
        self.levels[at] = levels
        self.thresholds[at] = thresholds
        self.alive[at] = True
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
        refresh_period = self._refresh_period
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
        self._join = self.sim.schedule(
            self._rng_misc.exponential(self._join_scale), self._do_join
        )
        self.sim.schedule(self.p.relevel_interval_s, self._relevel_tick)
        self.sim.schedule(self.p.measure_interval_s, self._measure_tick)
        self.sim.schedule(1.0, self._tree_sample_tick)
        # Warm-up: run without accounting so the level distribution and
        # the rate estimator reach steady state first.
        self.sim.run(until=self.p.warmup_s)
        self._flush()
        self._measuring = True
        self._measure_t0 = self.sim.now
        self.sim.run(until=self.p.warmup_s + self.p.duration_s)
        self._flush()
        return self._report()

    # -- reporting ----------------------------------------------------------------

    def _report(self) -> ScalableResult:
        rows: List[LevelRow] = []
        pop = self.population
        total_err_num = 0.0
        total_err_den = 0.0
        for l in range(self.p.max_level + 1):
            sizes, members = self._level_lists(l)
            count = int(members.sum())
            if count == 0 and self.node_seconds[l] == 0:
                continue
            if count:
                mean_size = float(sizes @ members) / count
                min_size, max_size = float(sizes.min()), float(sizes.max())
            else:
                mean_size = min_size = max_size = 0.0
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
                    mean_list_size=mean_size,
                    min_list_size=min_size,
                    max_list_size=max_size,
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
