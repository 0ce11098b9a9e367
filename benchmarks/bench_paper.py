"""The paper's evaluation as one checked document, ``BENCH_paper.json``.

Each entry of :data:`ROWS` states one claim of the paper (§1, §2, §4.2,
§5 Figs 5-12) or of this repo's ablations: the paper's value, the band
the measurement must fall in, how to measure it, and a note where the
reproduction deviates.  :func:`build_paper_doc` runs every measurement
and records ``{id, section, claim, paper, band, measured, ok, note}``
per row, plus the data each figure plots.  A row with no band is
reported, not judged (``ok`` is ``null``): the deviations the notes
explain.

Figures 5-12 run at the paper's scale only (``repro.experiments.scenario``:
100,000 nodes, seed 1, 600 + 1,800 sim-s; Figs 9/10 sweep 5 k-100 k
nodes, Figs 11/12 sweep Lifetime_Rate 0.1-10 at 100 k).  Every run is a
pure function of its parameters, so the document is byte-identical
across rebuilds.  It holds no timings: engine cost is the ledger's
(``benchmarks/ledger/``).

``scripts/bench_trajectory.py --paper`` writes the document and renders
EXPERIMENTS.md's tables from it (:func:`render_experiments`);
``--paper --check`` byte-compares both.
"""

from __future__ import annotations

import math
import operator
import os
import re
from dataclasses import replace
from functools import cache
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines import closed_forms
from repro.baselines.explicit_probe import ExplicitProbeScheme
from repro.core.analytic import CostModel
from repro.experiments import ablation
from repro.experiments.figures import (
    fig9_scalability_levels,
    fig11_adaptivity_levels,
    run_scenario,
)
from repro.experiments.scalable import ScalableParams, binomial_broadcast
from repro.experiments.scenario import COMMON, LIFETIME_RATES, SCALE_SWEEP
from repro.experiments.stats import replicate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER_PATH = os.path.join(ROOT, "BENCH_paper.json")
EXPERIMENTS_PATH = os.path.join(ROOT, "EXPERIMENTS.md")
PAPER_VERSION = 1

#: The ablations' scenario: small enough that a sweep of it takes seconds.
ABLATION = ScalableParams(n_target=4000, duration_s=400.0, warmup_s=150.0, seed=5)
#: Replication of the common run across seeds, at the paper's scale.
REPLICATION = ScalableParams(n_target=100_000, duration_s=1200.0, warmup_s=400.0)
REPLICATION_SEEDS = (1, 2, 3)

Band = Tuple[Tuple[str, float], ...]

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}


class Row(NamedTuple):
    id: str
    section: str
    claim: str
    paper: Optional[str]  # the paper's value as the paper states it
    band: Band  # every (op, bound) must hold; () = reported, not judged
    measure: Callable[[], float]
    note: str = ""


def _num(x: float) -> float:
    """Four significant digits, but never fewer than the integer part."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    if not math.isfinite(x) or x == 0:
        return x
    return round(x, max(0, 3 - math.floor(math.log10(abs(x)))))


# ---------------------------------------------------------------------------
# Measurements (each cached: several rows read one run)
# ---------------------------------------------------------------------------


def _levels():
    return [r for r in run_scenario(COMMON).rows if r.population > 0]


def _level0():
    return next(r for r in _levels() if r.level == 0)


def _halving_ratio() -> float:
    """The adjacent-level size ratio farthest from 2."""
    sizes = {r.level: r.mean_list_size for r in _levels()}
    ratios = [sizes[a] / max(sizes[a + 1], 1) for a in sizes if a + 1 in sizes]
    return max(ratios, key=lambda ratio: abs(ratio - 2.0))


def _in_per_1000(row) -> float:
    return row.in_bps / max(row.mean_list_size, 1) * 1000.0


@cache
def _scale():
    return {int(p.x): p for p in fig9_scalability_levels(SCALE_SWEEP, COMMON)}


@cache
def _rates():
    return {p.x: p for p in fig11_adaptivity_levels(LIFETIME_RATES, COMMON)}


def _frac0(point) -> float:
    return dict(point.level_fractions).get(0, 0.0)


_MODEL = CostModel(mean_lifetime_s=3600.0, changes_per_lifetime=3.0,
                   redundancy=1.0, message_bits=1000.0)
_PROBING = ExplicitProbeScheme(mean_lifetime_s=7200.0)


def _peerwindow_margin() -> float:
    """Least (PeerWindow - scheme) pointers over every budget and scheme
    (N = 100 k, one-hour lifetimes)."""
    peer_window = CostModel(mean_lifetime_s=3600.0)
    return min(
        peer_window.pointers_for_bandwidth(w) - s.pointers_for_bandwidth(w)
        for w in (500.0, 5_000.0, 50_000.0, 500_000.0)
        for s in closed_forms(100_000, 3600.0)
    )


@cache
def _trees() -> List[Tuple[int, float, int, float, int]]:
    """(audience, log2 N, max depth, mean depth, root out-degree) of one
    §4.2 dissemination per audience size."""
    rng = np.random.default_rng(0)
    out = []
    for n in (1000, 10_000, 100_000):
        ids = np.unique(rng.integers(0, 1 << 40, size=n, dtype=np.uint64))
        levels = rng.integers(0, 4, size=ids.size).astype(np.int32)
        root = int(np.lexsort((ids, levels))[0])
        levels[root] = 0
        depths, senders = binomial_broadcast(ids, levels, root, 40)
        out.append((int(ids.size), float(np.log2(ids.size)), int(depths.max()),
                    float(depths.mean()), int(senders[root])))
    return out


@cache
def _replication():
    return replicate(REPLICATION, REPLICATION_SEEDS)


@cache
def _ablation(name: str):
    runs = {
        "probe_interval": lambda: ablation.ablate_probe_interval(
            [5.0, 15.0, 30.0, 60.0, 120.0], ABLATION),
        "target_policy": lambda: [
            ablation.ablate_target_policy(n_members=1024, id_bits=24, seed=s)
            for s in range(5)],
        "hysteresis": lambda: dict(
            ablation.ablate_hysteresis([0.3, 0.5, 0.7, 0.9, 0.98])),
        "warmup": lambda: ablation.ablate_warmup([0, 1, 2, 3]),
        "digitization": lambda: [f for _, f in ablation.ablate_bandwidth_digitization(
            [-0.1, -0.05, 0.0, 0.05, 0.1])],
        "lifetime_shape": lambda: [
            n for _, _, n in ablation.ablate_lifetime_shape(ABLATION)],
        "threshold_floor": lambda: [
            d for _, d in ablation.ablate_threshold_floor([2000.0, 500.0, 125.0], ABLATION)],
    }
    return runs[name]()


@cache
def _detailed_churn():
    """100 nodes, 20 crash + join cycles, 230 sim-s on the detailed engine."""
    from repro.core.config import ProtocolConfig
    from repro.core.protocol import PeerWindowNetwork

    config = ProtocolConfig(
        id_bits=16, probe_interval=5.0, probe_timeout=1.0,
        multicast_ack_timeout=1.0, report_timeout=2.0,
        level_check_interval=20.0, multicast_processing_delay=0.1,
    )
    net = PeerWindowNetwork(config=config, master_seed=1)
    net.seed_nodes([1e9] * 100)
    net.run(until=30.0)
    rng = net.streams.get("bench-churn")
    for _ in range(20):
        live = [k for k in net.nodes if net.nodes[k].alive]
        net.crash(live[int(rng.integers(0, len(live)))])
        net.add_node(1e9, bootstrap=live[0])
        net.run(until=net.sim.now + 10.0)
    net.run(until=net.sim.now + 30.0)  # settle in-flight joins/detections
    return net.stats_summary()


def _underlay_mean_latency() -> float:
    from repro.net.transit_stub import TransitStubParams, TransitStubTopology

    topo = TransitStubTopology(TransitStubParams(), seed=0)
    return float(np.mean(topo.latency_sample(100_000)))


def _min_step(values: List[float]) -> float:
    return min(b - a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------

S2, S1, S42 = "§2 analytic model", "§1 intro comparison", "§4.2 multicast tree"
F5, F6, F7, F8 = "§5.1 Fig 5", "§5.1 Fig 6", "§5.1 Fig 7", "§5.1 Fig 8"
F9, F10, F11, F12 = "§5.2 Fig 9", "§5.2 Fig 10", "§5.3 Fig 11", "§5.3 Fig 12"
REPL, ABL, ENG = "replication", "ablations", "detailed engine"

ROWS: Tuple[Row, ...] = (
    Row("analytic_pointers_at_5kbps", S2,
        "pointers at 5 kbps (L = 3600 s, m = 3, r = 1, i = 1000 b)", "≈ 6,000",
        (("==", 6000.0),), lambda: _MODEL.pointers_for_bandwidth(5000.0)),
    Row("analytic_bps_per_1000_pointers", S2,
        "bandwidth per 1,000 pointers", "< 1 kbps",
        (("<", 1000.0),), _MODEL.bandwidth_per_1000_pointers),
    Row("intro_probing_pointers_10kbps", S1,
        "explicit probing: pointers at 10 kbps (500-bit beats, 30 s)", "600",
        (("==", 600.0),), lambda: _PROBING.pointers_for_bandwidth(10_000.0)),
    Row("intro_probing_wasted", S1,
        "explicit probing: share of probes wasted (2-hour lifetimes)", "99.58 %",
        ((">", 0.995),), lambda: 1.0 - _PROBING.useful_message_fraction()),
    Row("intro_peerwindow_margin", S1,
        "PeerWindow's pointers minus each scheme's, least over 0.5-500 kbps "
        "(N = 100 k, L = 1 h)", "PeerWindow collects the most",
        ((">=", 0.0),), _peerwindow_margin),
    Row("fig05_level0_share", F5,
        "share of the nodes at level 0", "> 50 %",
        ((">", 0.5),), lambda: _level0().fraction),
    Row("fig06_halving_ratio", F6,
        "adjacent-level peer-list size ratio farthest from 2", "N / 2^l",
        ((">=", 1.2), ("<=", 2.8)), _halving_ratio,
        "the band is 2 ± 40 %"),
    Row("fig07_max_error", F7,
        "peer-list error rate, worst level", "< 0.5 %",
        (("<", 0.01),), lambda: max(r.error_rate for r in _levels()),
        "the band is 1 %: the §4.1 failure-detection delay (probe interval / 2 "
        "+ timeout, 20 s mean) is charged on every leave; the paper's 25-s "
        "staleness bound covers the multicast only"),
    Row("fig07_stale_over_absent", F7,
        "leave staleness minus join absence, least over levels", None,
        ((">", 0.0),),
        lambda: min(r.stale_rate - r.absent_rate for r in _levels()),
        "staleness carries the detection delay the paper's bound omits"),
    Row("fig07_level0_error", F7,
        "peer-list error rate at level 0", "< 0.5 %",
        (), lambda: _level0().error_rate,
        "above the paper: this error includes the detection delay on leaves; "
        "the next two rows split it"),
    Row("fig07_level0_stale", F7,
        "level 0: stale pointers (leaves: detection + multicast delay)", None,
        (), lambda: _level0().stale_rate),
    Row("fig07_level0_absent", F7,
        "level 0: absent pointers (joins: multicast delay only)", None,
        (), lambda: _level0().absent_rate),
    Row("fig08_out_peak_level", F8,
        "level with the most output bandwidth", "levels 0-1",
        (("==", 0),),
        lambda: max(_levels(), key=lambda r: (r.out_bps, -r.level)).level),
    Row("fig08_in_per_1000_level0", F8,
        "level 0: input bps per 1,000 pointers", "≈ 500",
        ((">", 150.0), ("<", 1200.0)), lambda: _in_per_1000(_levels()[0]),
        "measured churn makes ≈ 2 state changes per lifetime where §2 assumes "
        "m = 3; 2/3 × 500 ≈ 333"),
    Row("fig09_level0_shrink", F9,
        "level-0 share at 5 k minus at 100 k", "shrinks with N",
        ((">", 0.0),), lambda: _frac0(_scale()[5000]) - _frac0(_scale()[100_000])),
    Row("fig09_levels_growth", F9,
        "populated levels at 100 k minus at 5 k", "grows with N",
        ((">=", 0),), lambda: _scale()[100_000].n_levels - _scale()[5000].n_levels),
    Row("fig09_level0_share_5000", F9,
        "level-0 share at N = 5,000", "100 %",
        (), lambda: _frac0(_scale()[5000]),
        "level 0 costs the event rate (next row) × 1,000 bits, above the "
        "500-bps floor, so the weakest nodes sit deeper; the paper's figure "
        "implies < 0.5 events/s, which its own lifetimes do not produce"),
    Row("fig09_event_rate_5000", F9,
        "measured events per second at N = 5,000", None,
        (), lambda: run_scenario(replace(COMMON, n_target=5000)).measured_event_rate),
    Row("fig10_growth_ratio", F10,
        "mean error rate at 100 k over at 5 k", "\"very slight\" rise",
        (("<", 5.0),),
        lambda: _scale()[100_000].mean_error_rate
        / max(_scale()[5000].mean_error_rate, 1e-5)),
    Row("fig10_max_error", F10,
        "mean error rate, worst N", None,
        (("<", 0.02),), lambda: max(p.mean_error_rate for p in _scale().values())),
    Row("fig11_level0_growth", F11,
        "level-0 share at rate 10 minus at rate 0.1", "collapses to level 0",
        ((">", 0.0),), lambda: _frac0(_rates()[10.0]) - _frac0(_rates()[0.1])),
    Row("fig11_levels_shrink", F11,
        "populated levels at rate 0.1 minus at rate 10", "fewer when stable",
        ((">", 0),), lambda: _rates()[0.1].n_levels - _rates()[10.0].n_levels),
    Row("fig11_rate01_levels", F11,
        "populated levels at Lifetime_Rate 0.1", "~10",
        (), lambda: _rates()[0.1].n_levels,
        "the paper's \"~10 levels, ~15 % at level 0\" are approximate, read "
        "off its figure; this row and the next are the measured cell"),
    Row("fig11_rate01_level0_share", F11,
        "level-0 share at Lifetime_Rate 0.1", "~15 %",
        (), lambda: _frac0(_rates()[0.1])),
    Row("fig12_error_ratio", F12,
        "mean error rate at rate 0.1 over at rate 1", "~10×",
        ((">", 3.0), ("<", 30.0)),
        lambda: _rates()[0.1].mean_error_rate / _rates()[1.0].mean_error_rate),
    Row("multicast_depth", S42,
        "max depth / log2 N, worst audience (1 k, 10 k, 100 k)", "≈ log2 N steps",
        (("<=", 2.0),), lambda: max(d / lg for _, lg, d, _, _ in _trees())),
    Row("multicast_root_degree_min", S42,
        "root out-degree / log2 N, least audience", "≈ log2 N",
        ((">=", 0.4),), lambda: min(o / lg for _, lg, _, _, o in _trees())),
    Row("multicast_root_degree_max", S42,
        "root out-degree / log2 N, greatest audience", "≈ log2 N",
        (("<=", 2.0),), lambda: max(o / lg for _, lg, _, _, o in _trees())),
    Row("multicast_log2_100k", S42,
        "log2 of the 100 k audience", "16.6 steps (§5.1)",
        ((">", 16.5), ("<", 16.7)), lambda: _trees()[-1][1]),
    Row("replication_error_ci_low", REPL,
        "mean error rate, 95 % CI low (100 k, seeds 1-3)", None,
        ((">", 0.0),), lambda: _replication()["mean_error_rate"].ci_low),
    Row("replication_error_ci_high", REPL,
        "mean error rate, 95 % CI high", None,
        (("<", 0.02),), lambda: _replication()["mean_error_rate"].ci_high),
    Row("replication_level0_ci_low", REPL,
        "level-0 share, 95 % CI low", "> 50 %",
        ((">", 0.5),), lambda: _replication()["frac_level0"].ci_low),
    Row("ablation_probe_interval", ABL,
        "error at 120-s probes over at 5-s probes", None,
        ((">", 1.0),),
        lambda: _ablation("probe_interval")[-1][1] / _ablation("probe_interval")[0][1],
        "detection latency dominates staleness"),
    Row("ablation_strongest_coverage", ABL,
        "strongest-first targets: least audience coverage over 5 seeds", None,
        (("==", 1.0),),
        lambda: min(r["strongest_coverage"] for r in _ablation("target_policy"))),
    Row("ablation_random_coverage", ABL,
        "random targets: least audience coverage over 5 seeds", None,
        (("<", 1.0),),
        lambda: min(r["random_coverage"] for r in _ablation("target_policy"))),
    Row("ablation_hysteresis_narrow", ABL,
        "level changes in 500 noisy ticks: raise fraction 0.98 minus 0.5", None,
        ((">", 0),),
        lambda: _ablation("hysteresis")[0.98] - _ablation("hysteresis")[0.5]),
    Row("ablation_hysteresis_wide", ABL,
        "level changes: raise fraction 0.5 minus 0.3", None,
        ((">=", 0),),
        lambda: _ablation("hysteresis")[0.5] - _ablation("hysteresis")[0.3]),
    Row("ablation_warmup_full_list", ABL,
        "§4.3 warm-up: time to the full list, 3 extra levels minus 0 (s)", None,
        ((">", 0.0),), lambda: _ablation("warmup")[-1][2] - _ablation("warmup")[0][2]),
    Row("ablation_warmup_download", ABL,
        "§4.3 warm-up: initial download, 0 extra levels minus 3 (pointers)", None,
        ((">", 0),), lambda: _ablation("warmup")[0][3] - _ablation("warmup")[-1][3]),
    Row("ablation_digitization_monotone", ABL,
        "bandwidth-CDF shift -0.1 → +0.1: least step of the level-0 share", None,
        ((">=", 0.0),), lambda: _min_step(_ablation("digitization"))),
    Row("ablation_digitization_worst", ABL,
        "level-0 share at the pessimistic shift -0.1", "> 50 % (Fig 5)",
        ((">", 0.45),), lambda: _ablation("digitization")[0]),
    Row("ablation_lifetime_shape", ABL,
        "populated levels, most minus least over three shapes of one mean", None,
        (("<=", 1),),
        lambda: max(_ablation("lifetime_shape")) - min(_ablation("lifetime_shape"))),
    Row("ablation_threshold_floor", ABL,
        "deepest level at a 125-bps floor minus at 2000 bps", None,
        ((">=", 0),),
        lambda: _ablation("threshold_floor")[-1] - _ablation("threshold_floor")[0]),
    Row("detailed_live_nodes", ENG,
        "live nodes after 20 crash + join cycles from 100", None,
        ((">=", 99), ("<=", 101)), lambda: _detailed_churn()["live_nodes"],
        "a join whose bootstrap crashed in the same cycle may fail"),
    Row("detailed_error", ENG,
        "mean error rate after the churn settles", None,
        (("<", 0.02),), lambda: _detailed_churn()["mean_error_rate"]),
    Row("underlay_mean_latency", ENG,
        "GT-ITM transit-stub mean pairwise latency, 100 k pairs (s)", None,
        ((">", 0.5), ("<", 1.1)), _underlay_mean_latency,
        "the closed-form predictor assumes ≈ 0.78 s"),
)


# ---------------------------------------------------------------------------
# What each figure plots
# ---------------------------------------------------------------------------


def _sweep(points, x_name: str, cast) -> Dict[str, Any]:
    return {"columns": [x_name, "populated levels", "level-0 share"],
            "rows": [[cast(p.x), p.n_levels, _frac0(p)] for p in points.values()]}


def _tables() -> Dict[str, Dict[str, Any]]:
    levels = _levels()
    return {
        F5: {"columns": ["level", "nodes", "fraction"],
             "rows": [[r.level, r.population, r.fraction] for r in levels]},
        F6: {"columns": ["level", "mean", "min", "max"],
             "rows": [[r.level, r.mean_list_size, r.min_list_size, r.max_list_size]
                      for r in levels]},
        F7: {"columns": ["level", "error rate", "stale (leaves)", "absent (joins)"],
             "rows": [[r.level, r.error_rate, r.stale_rate, r.absent_rate]
                      for r in levels]},
        F8: {"columns": ["level", "in bps", "out bps", "in bps / 1000 pointers"],
             "rows": [[r.level, r.in_bps, r.out_bps, _in_per_1000(r)] for r in levels]},
        F9: _sweep(_scale(), "N", int),
        F10: {"columns": ["N", "mean error rate"],
              "rows": [[n, p.mean_error_rate] for n, p in _scale().items()]},
        F11: _sweep(_rates(), "Lifetime_Rate", float),
        F12: {"columns": ["Lifetime_Rate", "mean error rate", "rate × error"],
              "rows": [[x, p.mean_error_rate, x * p.mean_error_rate]
                       for x, p in _rates().items()]},
        S42: {"columns": ["audience", "log2 N", "max depth", "mean depth",
                          "root out-degree"],
              "rows": [list(t) for t in _trees()]},
        REPL: {"columns": ["metric", "mean", "std", "ci low", "ci high"],
               "rows": [[s.name, s.mean, s.std, s.ci_low, s.ci_high]
                        for s in _replication().values()]},
    }


def build_paper_doc() -> Dict[str, Any]:
    """The BENCH_paper.json document: every row measured and judged."""
    rows = []
    for row in ROWS:
        value = row.measure()
        ok = all(_OPS[op](value, bound) for op, bound in row.band) if row.band else None
        rows.append({
            "id": row.id, "section": row.section, "claim": row.claim,
            "paper": row.paper, "band": [list(b) for b in row.band] or None,
            "measured": _num(value), "ok": ok, "note": row.note or None,
        })
    tables = {
        section: {"columns": t["columns"],
                  "rows": [[v if isinstance(v, str) else _num(v) for v in r]
                           for r in t["rows"]]}
        for section, t in _tables().items()
    }
    return {"schema_version": PAPER_VERSION, "rows": rows, "tables": tables}


# ---------------------------------------------------------------------------
# EXPERIMENTS.md's generated blocks
# ---------------------------------------------------------------------------

_BLOCK = re.compile(
    r"^(<!-- BENCH_paper: ([^\n]+?) -->\n).*?^(<!-- /BENCH_paper -->)$", re.S | re.M)


def _md_table(columns: List[str], rows: List[List[Any]]) -> List[str]:
    lines = ["| " + " | ".join(str(c) for c in r) + " |" for r in [columns, *rows]]
    return lines[:1] + ["|" + "---|" * len(columns)] + lines[1:]


def _section_md(doc: Dict[str, Any], section: str) -> str:
    lines: List[str] = []
    table = doc["tables"].get(section)
    if table:
        lines += _md_table(table["columns"], table["rows"]) + [""]
    rows = [r for r in doc["rows"] if r["section"] == section]
    lines += _md_table(
        ["row", "claim", "paper", "band", "measured", "ok"],
        [[f"`{r['id']}`", r["claim"], r["paper"] or "—",
          ", ".join(f"{op} {bound}" for op, bound in r["band"] or ()) or "—",
          r["measured"], {True: "✓", False: "✗", None: "—"}[r["ok"]]]
         for r in rows])
    lines += [f"\n`{r['id']}`: {r['note']}." for r in rows if r["note"]]
    return "\n".join(lines) + "\n"


def render_experiments(doc: Dict[str, Any], text: str) -> str:
    """``text`` with each ``<!-- BENCH_paper: SECTION -->`` block rendered
    from ``doc``; every section of the document must have one block."""
    seen: List[str] = []

    def fill(match: "re.Match[str]") -> str:
        seen.append(match.group(2))
        return match.group(1) + _section_md(doc, match.group(2)) + match.group(3)

    out = _BLOCK.sub(fill, text)
    sections = list(dict.fromkeys(r["section"] for r in doc["rows"]))
    if sorted(seen) != sorted(sections):
        raise ValueError(f"EXPERIMENTS.md blocks {seen} != document sections {sections}")
    return out
