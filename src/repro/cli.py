"""Command-line interface: regenerate any paper figure from the shell.

::

    python -m repro fig5                    # common-run level distribution
    python -m repro fig9 --scales 5000 20000 100000
    python -m repro fig11 --rates 0.1 1 10
    python -m repro common -n 100000        # figures 5-8 in one run
    python -m repro predict -n 100000       # closed-form predictions
    python -m repro baselines               # the intro comparison table
    python -m repro lint src/repro          # detlint static analysis

Every command prints the same table the corresponding benchmark prints
and optionally writes it as CSV (``--csv out.csv``).
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence

from repro.experiments import figures
from repro.experiments.report import print_table
from repro.experiments.scalable import ScalableParams
from repro.experiments.scenario import COMMON


def _table(title: str, headers: Sequence[str], rows: Iterable[Sequence],
           csv_path: Optional[str] = None) -> None:
    rows = [list(r) for r in rows]
    print_table(title, headers, rows)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerows(rows)
        print(f"[wrote {csv_path}]")


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    print(f"[wrote {path}]")


def _deliver(args, markdown: str, json_text: str) -> None:
    """A report goes where ``--out`` / ``--json`` say, else to stdout."""
    if args.out:
        _write(args.out, markdown)
    if args.json:
        _write(args.json, json_text)
    if not args.out and not args.json:
        print(markdown, end="")


def _emit(args, title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    _table(title, headers, rows, csv_path=args.csv)


def _check_outputs(args, *dests: str) -> None:
    """Refuse an unwritable destination before the run, not after it."""
    from repro.paths import prepare_output_path

    for dest in dests:
        path = getattr(args, dest)
        if path:
            prepare_output_path(path, what="--" + dest.replace("_", "-"))


def _derived_spec(config, n_nodes: int, byzantine: bool = False):
    """The health spec a run is judged by when no file names one."""
    from repro.obs.health import HealthSpec

    derive = HealthSpec.byzantine if byzantine else HealthSpec.default
    return derive(config, n_nodes)


def _load_spec(path: Optional[str]):
    """The health spec ``--spec`` names (None without one), read — and
    refused, if it is malformed — before anything runs."""
    from repro.obs.health import HealthSpec

    return HealthSpec.load(path) if path else None


def _stream_config(args, spec):
    """The telemetry stream ``--watch`` / ``--snapshot-jsonl`` ask for
    (the dashboard always band-evaluates, so it needs a spec), or None."""
    if not (args.watch or args.snapshot_jsonl):
        return None
    from repro.obs.stream import StreamConfig

    return StreamConfig(
        window=args.window,
        spec=spec,
        snapshot_path=args.snapshot_jsonl,
        render=bool(args.watch),
    )


def _write_exports(args, spans, snapshot, meta: dict) -> None:
    """Write what ``--spans`` / ``--chrome`` / ``--metrics`` name.  ``meta``
    records what produced the snapshot, so that ``repro obs health`` can
    rebuild the matching default spec."""
    from repro.obs import export

    if args.spans:
        print(f"[wrote {export.write_spans_jsonl(args.spans, spans)}]")
    if args.chrome:
        print(f"[wrote {export.write_chrome_trace(args.chrome, spans)}]")
    if args.metrics:
        print(f"[wrote {export.write_metrics_json(args.metrics, snapshot, meta=meta)}]")


def _judge(title: str, verdicts, csv_path: Optional[str] = None) -> bool:
    """Print the verdict table and the breaches under it; True when
    there are none."""
    _table(
        title,
        ["slo", "value", "lo", "hi", "ok"],
        [
            [v.slo, round(v.value, 6),
             "-" if v.lo is None else v.lo,
             "-" if v.hi is None else v.hi,
             "ok" if v.ok else "BREACH"]
            for v in verdicts
        ],
        csv_path=csv_path,
    )
    breaches = [v for v in verdicts if not v.ok]
    if breaches:
        print(f"\nUNHEALTHY: {len(breaches)} SLO breach(es)")
        for v in breaches:
            print("  " + v.describe())
    else:
        print(f"\nHEALTHY: {len(verdicts)} SLO(s) ok")
    return not breaches


def _params(args) -> ScalableParams:
    return replace(
        COMMON,
        n_target=args.nodes,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
    )


def cmd_common(args) -> None:
    result = figures.run_scenario(_params(args))
    _emit(
        args,
        f"common PeerWindow, N={args.nodes:,} (figures 5-8)",
        ["level", "nodes", "fraction", "mean_list", "min", "max",
         "error_rate", "in_bps", "out_bps"],
        [
            [r.level, r.population, round(r.fraction, 4),
             round(r.mean_list_size, 1), r.min_list_size, r.max_list_size,
             round(r.error_rate, 6), round(r.in_bps, 1), round(r.out_bps, 1)]
            for r in result.rows if r.population > 0
        ],
    )
    print(f"mean error rate: {result.mean_error_rate:.5f}; "
          f"tree depth mean {result.mean_tree_depth:.1f} max {result.max_tree_depth}; "
          f"root out-degree {result.mean_root_out_degree:.1f}")


#: command -> (title, headers, rows of the figure, decimals kept per column).
_FIGURES = {
    "fig5": ("figure 5 — node distribution", ["level", "nodes", "fraction"],
             figures.fig5_node_distribution, (None, None, 4)),
    "fig6": ("figure 6 — peer-list sizes", ["level", "mean", "min", "max"],
             figures.fig6_peer_list_sizes, (None, 1, None, None)),
    "fig7": ("figure 7 — error rates", ["level", "error_rate"],
             figures.fig7_error_rates, (None, 6)),
    "fig8": ("figure 8 — bandwidth", ["level", "in_bps", "out_bps"],
             figures.fig8_bandwidth, (None, 1, 1)),
}


def cmd_fig(args) -> None:
    title, headers, rows_of, decimals = _FIGURES[args.command]
    rows = rows_of(_params(args))
    _emit(args, title, headers,
          [[v if d is None else round(v, d) for v, d in zip(row, decimals)]
           for row in rows])
    if args.command == "fig5" and args.chart:
        from repro.experiments.plot import level_distribution_chart

        print()
        print(level_distribution_chart([(level, frac) for level, _, frac in rows]))


def cmd_sweep(args) -> None:
    """fig9 (and fig10's error column) sweeps the scale, fig11 (and
    fig12's) the lifetime rate: one row per point either way."""
    if args.command == "fig9":
        points = figures.fig9_scalability_levels(args.scales, _params(args))
        title, x_name, cast = "figures 9/10 — scale sweep", "N", int
        chart = {"title": "mean error vs N"}
    else:
        points = figures.fig11_adaptivity_levels(args.rates, _params(args))
        title, x_name, cast = "figures 11/12 — Lifetime_Rate sweep", "rate", float
        chart = {"title": "mean error vs Lifetime_Rate (log y — figure 12)",
                 "log_y": True}
    rows = [[cast(p.x), p.n_levels,
             round(dict(p.level_fractions).get(0, 0.0), 4),
             round(p.mean_error_rate, 6)] for p in points]
    _emit(args, title, [x_name, "levels", "frac_L0", "mean_error"], rows)
    if args.chart:
        from repro.experiments.plot import line_chart

        print()
        print(line_chart([(r[0], r[3]) for r in rows], **chart))


def cmd_predict(args) -> None:
    from repro.experiments.predict import (
        predict_bps_per_1000_pointers,
        predict_error_rate,
        predict_level_distribution,
        predict_n_levels,
    )

    dist = predict_level_distribution(args.nodes)
    _emit(args, f"closed-form level distribution, N={args.nodes:,}",
          ["level", "fraction"],
          [[l, round(f, 4)] for l, f in sorted(dist.items())])
    print(f"predicted levels: {predict_n_levels(args.nodes)}")
    print(f"predicted mean error rate: {predict_error_rate(args.nodes):.5f}")
    print(f"input bps per 1000 pointers: {predict_bps_per_1000_pointers():.0f}")


def cmd_baselines(args) -> None:
    from repro.baselines import closed_forms
    from repro.core.analytic import CostModel

    pw = CostModel(mean_lifetime_s=3600.0)
    schemes = closed_forms(args.nodes, mean_lifetime_s=3600.0)
    budgets = [500.0, 5_000.0, 50_000.0]
    rows = []
    for w in budgets:
        rows.append([f"{w:,.0f}", round(pw.pointers_for_bandwidth(w), 1)]
                    + [round(s.pointers_for_bandwidth(w), 1) for s in schemes])
    _emit(args, f"pointers per budget (N={args.nodes:,}, L=1h)",
          ["budget_bps", "peerwindow"] + [s.name for s in schemes], rows)


def cmd_chaos(args) -> int:
    from repro.chaos import (
        BYZANTINE_SCENARIOS,
        SCENARIOS,
        ByzantineRunner,
        ChaosRunner,
    )

    if args.list:
        _emit(args, "chaos scenarios",
              ["scenario", "default_nodes", "description"],
              [[s.name, s.default_nodes, s.description]
               for s in (*SCENARIOS.values(), *BYZANTINE_SCENARIOS.values())])
        return 0
    byzantine = args.byzantine is not None
    family, name, flag = (
        (BYZANTINE_SCENARIOS, args.byzantine, "byzantine scenario") if byzantine
        else (SCENARIOS, args.scenario, "scenario")
    )
    scenario = family.get(name)
    if scenario is None:
        print(f"unknown {flag} {name!r}; "
              f"choose from: {', '.join(sorted(family))}", file=sys.stderr)
        return 2
    _check_outputs(args, "trace", "spans", "chrome", "metrics", "snapshot_jsonl")
    config = scenario.make_config()
    n = args.nodes if args.nodes is not None else scenario.default_nodes
    # Without --health the stream is still judged: by the derived spec.
    stream_spec = _derived_spec(config, n, byzantine)
    if args.health and args.health != "default":
        stream_spec = _load_spec(args.health)
    health_spec = stream_spec if args.health else None
    observe = bool(args.spans or args.chrome or args.metrics)
    runner = (ByzantineRunner if byzantine else ChaosRunner)(
        scenario, n_nodes=args.nodes, seed=args.seed, observe=observe,
        health_spec=health_spec, stream=_stream_config(args, stream_spec),
        detsan=args.detsan,
    )
    result = runner.run()
    _emit(
        args,
        f"chaos {result.scenario}, N={result.n_nodes}, seed={result.seed}",
        ["metric", "value"],
        [
            ["simulated_seconds", round(result.duration, 1)],
            ["faults_injected", result.faults_injected],
            ["safety_checks", result.safety_checks],
            ["convergence_checks", result.convergence_checks],
            ["live_nodes", result.live_nodes],
            ["mean_error_rate", round(result.mean_error_rate, 6)],
            ["violations", len(result.violations)],
        ] + ([["spans_recorded", len(result.spans)]] if observe else []),
    )
    if args.trace:
        _write(args.trace, result.trace)
    if args.snapshot_jsonl:
        print(f"[wrote {args.snapshot_jsonl}]")
    _write_exports(args, result.spans, result.metrics, {
        "scenario": result.scenario,
        "n_nodes": result.n_nodes,
        "seed": result.seed,
        "duration": result.duration,
        "mean_error_rate": result.mean_error_rate,
        "config": config.describe(),
    })
    rc = 0
    if result.violations:
        print(f"\nFAIL: {len(result.violations)} invariant violation(s); first 20:")
        for v in result.violations[:20]:
            print("  " + v.describe())
        rc = 1
    else:
        print("\nOK: all invariants held (safety throughout; convergence after "
              "each quiescence window)")
    if runner.detsan:
        if result.detsan_violations:
            print(f"DETSAN: {len(result.detsan_violations)} sanitizer "
                  f"finding(s):")
            for line in result.detsan_violations[:20]:
                print("  " + line)
            rc = 1
        else:
            print("DETSAN: clean (no held-object, wall-clock, or "
                  "global-RNG findings)")
    # The run table owns --csv, so the verdict table is printed only.
    if health_spec is not None and not _judge(
        f"health: chaos {result.scenario} vs spec '{health_spec.name}'",
        result.health_verdicts,
    ):
        rc = 1
    return rc


def cmd_obs_run(args) -> int:
    """An instrumented churn run: spans, metrics, exporters."""
    from repro.core.config import ProtocolConfig
    from repro.core.protocol import PeerWindowNetwork
    from repro.net.latency import PairwiseLatencyModel
    from repro.obs.export import write_metrics_csv
    from repro.sim.rng import RandomStreams

    _check_outputs(args, "spans", "chrome", "metrics", "metrics_csv",
                   "snapshot_jsonl")
    config = ProtocolConfig(id_bits=16)
    net = PeerWindowNetwork(
        config=config,
        topology=PairwiseLatencyModel(),
        master_seed=args.seed,
        parallel=args.parallel,
        observability=True,
    )
    net.seed_nodes([4000.0] * args.nodes)
    stream = _stream_config(args, _derived_spec(config, args.nodes))
    windower = None if stream is None else stream.build(net)
    advance = net.run if windower is None else windower.run
    # Deterministic churn so every instrumented path fires: a few joins
    # (handshakes + JOIN multicasts) and leaves/timeout-driven obituaries.
    churn_rng = RandomStreams(args.seed).get("obs-churn")
    keys = list(net.nodes)
    bootstrap = keys[0]
    n_churn = max(2, args.nodes // 20)
    for key in sorted(churn_rng.choice(keys[1:], size=n_churn, replace=False)):
        net.leave(int(key))
    advance(until=args.duration / 2)
    for _ in range(n_churn):
        net.add_node(4000.0, bootstrap)
    advance(until=args.duration)
    if windower is not None:
        windower.finish()
        if args.snapshot_jsonl:
            print(f"[wrote {args.snapshot_jsonl}]")

    snapshot = net.metrics_snapshot()
    spans = net.spans()
    by_name = collections.Counter(s.name for s in spans)
    _emit(
        args,
        f"obs run, N={args.nodes}, seed={args.seed}, "
        f"{'parallel=' + str(args.parallel) if args.parallel else 'sequential'}",
        ["span", "count"],
        [[name, by_name[name]] for name in sorted(by_name)],
    )
    print(f"{len(spans)} spans in {len(net.traces())} traces; "
          f"{len(snapshot['counters'])} counters, "
          f"{len(snapshot['dists'])} distributions over "
          f"{snapshot['nodes']} nodes")
    # The execution mode (parallel=N) is deliberately left out of the
    # meta: it is an implementation detail, and including it would break
    # the byte-identity of sequential-vs-partitioned reports.
    _write_exports(args, spans, snapshot, {
        "n_nodes": args.nodes,
        "seed": args.seed,
        "duration": args.duration,
        "mean_error_rate": net.mean_error_rate(),
        "config": config.describe(),
    })
    if args.metrics_csv:
        print(f"[wrote {write_metrics_csv(args.metrics_csv, snapshot)}]")
    return 0


#: ``ProtocolConfig`` fields that older metrics files record, each at the
#: one value the protocol now has; a file holding any other value for
#: one of them describes a run this build cannot reproduce.
_RETIRED_CONFIG_FIELDS = {"timer_jitter": 0.0, "multicast_redundancy": 1, "claim_audit_margin": 1.5}


def _recorded_config(recorded: dict, where: str):
    """The ``ProtocolConfig`` a metrics file's ``meta.config`` records;
    an unknown field or a refused value is a ``SchemaError`` naming both."""
    from dataclasses import fields

    from repro.core.config import ProtocolConfig
    from repro.core.errors import ConfigError
    from repro.obs.analyze import SchemaError

    known = {f.name for f in fields(ProtocolConfig)}
    kwargs = {}
    for name, value in recorded.items():
        if name in known:
            kwargs[name] = value
        elif name not in _RETIRED_CONFIG_FIELDS or value != _RETIRED_CONFIG_FIELDS[name]:
            raise SchemaError(f"{where}: meta.config field {name!r} = {value!r} is not a setting of this build")
    try:
        return ProtocolConfig(**kwargs)
    except ConfigError as exc:
        raise SchemaError(f"{where}: meta.config: {exc}") from None


def _health_inputs(spans_path: str, metrics_path: Optional[str], spec=None):
    """Shared loader for ``obs analyze|health|report`` and ``live
    swarm``: the analysis report, the run's signals, the health spec
    (``spec``, or derived from the run's recorded config), the run meta."""
    from repro.core.config import ProtocolConfig
    from repro.obs.analyze import analyze_file, load_metrics
    from repro.obs.health import run_signals

    report = analyze_file(spans_path)
    snapshot = load_metrics(metrics_path) if metrics_path else None
    meta: dict = {}
    config = ProtocolConfig(id_bits=16)
    if snapshot is not None:
        if isinstance(snapshot.get("meta"), dict):
            meta = snapshot["meta"]
        if isinstance(meta.get("config"), dict):
            config = _recorded_config(meta["config"], metrics_path)
    signals = run_signals(report, snapshot, config, meta=meta)
    if spec is None:
        spec = _derived_spec(config, int(meta.get("n_nodes", report.nodes)))
    return report, signals, spec, meta


def cmd_obs_analyze(args) -> int:
    """Reconstruct span trees from a JSONL export and print aggregates."""
    _check_outputs(args, "json")
    report, _signals, _spec, _meta = _health_inputs(args.spans, args.metrics)
    doc = report.to_dict()
    m = doc["multicast"]
    _emit(
        args,
        f"span analytics: {args.spans}",
        ["metric", "value"],
        [
            ["spans", doc["spans_total"]],
            ["lines_skipped", doc["lines_skipped"]],
            ["nodes", doc["nodes"]],
            ["mcast.trees", m["trees"]],
            ["mcast.tree_completeness", round(m["tree_completeness"], 6)],
            ["mcast.orphan_hops", m["orphan_hops"]],
            ["mcast.max_depth", m["max_depth"]],
            ["mcast.mean_fanout", round(m["fanout"]["mean"], 3)],
            ["mcast.mean_latency_s", round(m["completion_latency"]["mean"], 3)],
            ["mcast.redirect_rate", round(m["redirect_rate"], 6)],
            ["join.ok", doc["join"]["ok"]],
            ["join.failed", doc["join"]["failed"]],
            ["join.warmup_mean_s", round(doc["join"]["warmup"]["mean"], 3)],
            ["probe.count", doc["probe"]["count"]],
            ["probe.timeout_rate", round(doc["probe"]["timeout_rate"], 6)],
            ["obituary.false_positives", doc["obituaries"]["false_positives"]],
        ],
    )
    if args.json:
        _write(args.json, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_obs_health(args) -> int:
    """Judge a recorded run against a health spec; exit 1 on breach."""
    from repro.obs.health import evaluate

    _report, signals, spec, _meta = _health_inputs(
        args.spans, args.metrics, _load_spec(args.spec)
    )
    healthy = _judge(f"health: {args.spans} vs spec '{spec.name}'",
                     evaluate(spec, signals), csv_path=args.csv)
    return 0 if healthy else 1


def cmd_obs_report(args) -> int:
    """The full health report: markdown to stdout/--out, JSON via --json."""
    from repro.obs.health import evaluate
    from repro.obs.report import build_report, render_json, render_markdown

    _check_outputs(args, "out", "json")
    report, signals, spec, meta = _health_inputs(
        args.spans, args.metrics, _load_spec(args.spec)
    )
    verdicts = evaluate(spec, signals)
    doc = build_report(report, verdicts, signals=signals, meta=meta)
    _deliver(args, render_markdown(doc), render_json(doc))
    return 0 if doc["healthy"] else 1


def cmd_watch(args) -> int:
    """Render telemetry frames from a --snapshot-jsonl file."""
    from repro.obs.dashboard import watch_file

    return watch_file(
        args.frames,
        follow=args.follow,
        interval=args.interval,
        ansi=False if args.plain else None,
        verdict_exit=not args.no_verdict_exit,
    )


def cmd_compare(args) -> int:
    """Protocol tournament: every contestant over identical workloads."""
    from repro.compare import (
        TournamentConfig,
        contestant_names,
        render_json,
        render_markdown,
        run_tournament,
    )

    known = contestant_names()
    if args.list:
        _emit(args, "tournament contestants", ["contestant"],
              [[name] for name in known])
        return 0
    try:
        cfg = TournamentConfig(
            contestants=tuple(args.contestants or known),
            n_nodes=args.nodes,
            duration=args.duration,
            window=args.window,
            seeds=tuple(range(args.seed, args.seed + args.seeds)),
            parallel=args.parallel,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    on_window = None
    if args.watch:
        from repro.obs.dashboard import ComparisonDashboard

        on_window = ComparisonDashboard(ansi=False if args.plain else None)
    if args.frames_dir:
        os.makedirs(args.frames_dir, exist_ok=True)
    doc = run_tournament(cfg, frames_dir=args.frames_dir, on_window=on_window)
    _deliver(args, render_markdown(doc), render_json(doc))
    return 0 if doc["champion_healthy"] else 1


def cmd_obs_render(args) -> int:
    """Render recorded frames (and optionally spans) to static HTML."""
    from repro.obs.analyze import load_spans
    from repro.obs.render_html import build_html
    from repro.obs.stream import load_frames_file

    _check_outputs(args, "out")
    frames, _, skipped = load_frames_file(args.frames)
    spans = None
    if args.spans:
        spans, _, span_skipped = load_spans(args.spans)
        skipped += span_skipped
    page = build_html(
        frames,
        spans=spans,
        title=args.title,
        lines_skipped=skipped,
        tree_limit=args.trees,
    )
    _write(args.out, page)
    return 0


def cmd_obs_trees(args) -> int:
    """Print reconstructed multicast tree shapes from a span JSONL."""
    from repro.obs.analyze import load_spans
    from repro.obs.dashboard import render_mcast_trees

    spans, _, skipped = load_spans(args.spans)
    print(render_mcast_trees(spans, limit=args.limit, max_nodes=args.max_nodes))
    if skipped:
        print(
            f"WARNING: skipped {skipped} unreadable line(s) in {args.spans}",
            file=sys.stderr,
        )
    return 0


def cmd_live_node(args) -> int:
    """One live node process (``seed`` is a node with no --via)."""
    import asyncio

    from repro.live.clock import wall_epoch
    from repro.live.node import LiveNodeSpec, run_node

    spec = LiveNodeSpec(
        host=args.host,
        port=args.port,
        index=args.index,
        n_nodes=args.swarm_size,
        master_seed=args.seed,
        epoch=float(args.epoch) if args.epoch is not None else wall_epoch(),
        duration=args.duration,
        seed_address=args.via,
        join_at=args.join_at,
        settle=args.settle,
        request_retries=args.request_retries,
        telemetry_window=args.telemetry_window,
    )
    result = asyncio.run(run_node(spec, args.out))
    role = "seed" if args.via is None else f"joined={result['joined']}"
    print(
        f"live node {spec.address} ({role}) level={result['level']} "
        f"sent={result['transport']['sent']} "
        f"delivered={result['transport']['delivered']}"
    )
    return 0 if result["joined"] else 1


def cmd_live_swarm(args) -> int:
    """Launch an N-process localhost swarm, merge its exports, and judge
    (optionally against a sim counterpart of the same (n, config))."""
    from repro.live.swarm import fidelity_rows, launch_swarm, run_sim_counterpart
    from repro.obs.health import evaluate

    named_spec = _load_spec(args.spec)

    def judge(label: str, spans_path: str, metrics_path: str):
        _report, signals, spec, _meta = _health_inputs(
            spans_path, metrics_path, named_spec)
        return signals, _judge(
            f"health ({label}): {spans_path} vs spec '{spec.name}'",
            evaluate(spec, signals), csv_path=args.csv)

    telemetry_window = args.telemetry_window
    if args.watch and telemetry_window <= 0:
        telemetry_window = 2.0
    summary = launch_swarm(
        n=args.nodes,
        duration=args.duration,
        outdir=args.out,
        base_port=args.base_port,
        master_seed=args.seed,
        stagger=args.stagger,
        settle=args.settle,
        request_retries=args.request_retries,
        telemetry_window=telemetry_window,
        watch=args.watch,
    )
    print(
        f"swarm: {summary['joined']}/{summary['n']} nodes up; "
        f"spans={summary['spans']} metrics={summary['metrics']}"
    )
    if summary.get("telemetry"):
        print(f"telemetry frames merged to {summary['telemetry']}")
    runtime = summary["runtime"]
    print("runtimes: " + " ".join(f"{stat}={runtime[stat]}" for stat in runtime))
    rc = 0
    if summary["joined"] < summary["n"]:
        print(f"WARNING: {summary['n'] - summary['joined']} node(s) failed to join")
        rc = 1
    if runtime["malformed"] or runtime["socket_errors"]:
        # Datagrams that left one node and reached no handler: version
        # skew or a codec bug, whether or not an SLO happens to breach.
        print("WARNING: the swarm dropped datagrams (malformed / socket_errors)")
        rc = 1
    live_signals = None
    if args.health or args.compare_sim:
        live_signals, healthy = judge("live", summary["spans"], summary["metrics"])
        if not healthy:
            rc = 1
    if args.compare_sim:
        sim_dir = os.path.join(args.out, "sim")
        sim = run_sim_counterpart(
            n=args.nodes,
            duration=args.duration,
            outdir=sim_dir,
            master_seed=args.seed,
            stagger=args.stagger,
        )
        sim_signals, healthy = judge("sim", sim["spans"], sim["metrics"])
        if not healthy:
            rc = 1
        _emit(
            args,
            f"sim-vs-real fidelity, n={args.nodes}, seed={args.seed}",
            ["signal", "sim", "live"],
            fidelity_rows(sim_signals, live_signals),
        )
    return rc


def cmd_lint(args) -> int:
    """detlint: the determinism & LP-isolation static analyzer."""
    from repro.analysis import all_rules, run_lint

    rules = all_rules()
    if args.rules:
        _emit(args, "detlint rules", ["rule", "title"],
              [[r.id, r.title] for r in rules])
        if args.explain:
            for r in rules:
                print(f"\n{r.id} — {r.title}\n  {r.rationale}")
        return 0
    _check_outputs(args, "report")
    findings = run_lint(args.paths or ["src/repro"], rules=rules)
    if args.format == "json":
        doc = {
            "findings": [f.to_dict() for f in findings],
            "checked_rules": [r.id for r in rules],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        summary = f"{len(findings)} finding(s) across {len(rules)} rules"
        text = "\n".join([f.describe() for f in findings] + [summary]) + "\n"
    if args.report:
        _write(args.report, text)
    else:
        print(text, end="")
    return 1 if findings else 0


def _number(cast, lo, strict: bool = False):
    """An argparse ``type``: ``cast(text)``, refused unless it is
    ``>= lo`` (``> lo`` with ``strict``; a NaN is neither)."""
    def parse(text: str):
        value = cast(text)
        if not (value > lo if strict else value >= lo):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {lo}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


#: The flags that mean the same thing on every subcommand that takes
#: them, said once: dest -> (option strings, type, help).
_RUN_FLAGS = {
    "nodes": (("-n", "--nodes"), None,
              "population (the paper's system scale: 100000)"),
    "seed": (("--seed",), int,
             "master seed; same seed => byte-identical output"),
    "duration": (("--duration",), _number(float, 0, strict=True),
                 "simulated seconds (fig*: measured, after --warmup; "
                 "live: epoch-relative lifetime)"),
    "window": (("--window",), _number(float, 0, strict=True),
               "telemetry window width in simulated seconds"),
    "parallel": (("--parallel",), _number(int, 1),
                 "run on N logical processes (byte-identical output)"),
}


def _run_flags(min_nodes: int = 1, **defaults) -> argparse.ArgumentParser:
    """A parent parser holding the :data:`_RUN_FLAGS` named in
    ``defaults``, each with the default this subcommand gives it.  A fresh
    parser per distinct set of defaults: argparse parents share their
    actions, and ``set_defaults`` on one child would rewrite them all."""
    parent = argparse.ArgumentParser(add_help=False)
    for dest, default in defaults.items():
        strings, kind, text = _RUN_FLAGS[dest]
        parent.add_argument(
            *strings, dest=dest, default=default, help=text,
            type=kind or _number(int, min_nodes))
    return parent


def build_parser() -> argparse.ArgumentParser:
    # A refused value surfaces as ArgumentError for main() to print as one
    # ``error:`` line; every (sub)parser must opt in on its own.
    quiet = functools.partial(argparse.ArgumentParser, exit_on_error=False)
    parser = quiet(
        prog="repro",
        description="PeerWindow (ICPP 2005) reproduction — regenerate any paper figure.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=quiet)

    def command(group, name, func, *parents, **kwargs):
        """The subcommand ``name`` of ``group``, run by ``func``."""
        p = group.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    def options(*parents) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    common_opts = options()
    common_opts.add_argument("--csv", help="also write the table as CSV")
    common_opts.add_argument("--chart", action="store_true",
                             help="also draw a terminal chart")
    sim_opts = options(_run_flags(nodes=20_000, duration=1200.0, seed=1))
    sim_opts.add_argument("--warmup", type=float, default=400.0)
    export_opts = options()
    export_opts.add_argument("--spans", help="record observability spans and "
                                             "write them as JSONL here")
    export_opts.add_argument("--chrome", help="write a Chrome trace_event file "
                                              "here (open in about://tracing)")
    export_opts.add_argument("--metrics", help="write the run's metrics "
                                               "snapshot as JSON here")
    stream_opts = options(_run_flags(window=15.0))
    stream_opts.add_argument("--watch", action="store_true",
                             help="render the live telemetry dashboard "
                                  "during the run")
    stream_opts.add_argument("--snapshot-jsonl", dest="snapshot_jsonl", default=None,
                             help="write deterministic per-window telemetry "
                                  "frames as JSONL here (byte-identical "
                                  "across --parallel)")
    recorded_opts = options()
    recorded_opts.add_argument("spans", help="span JSONL file (from `obs run --spans`)")
    recorded_opts.add_argument("--metrics", help="metrics JSON from the same run "
                                                 "(enables bandwidth/error SLOs)")
    spec_opts = options()
    spec_opts.add_argument("--spec", help="HealthSpec JSON (default: derived "
                                          "from the run's recorded config)")
    report_opts = options()
    report_opts.add_argument("--out", help="write the markdown here (default: stdout)")
    report_opts.add_argument("--json", help="write the document as JSON here")

    for name, fn in (
        ("common", cmd_common),
        ("fig5", cmd_fig), ("fig6", cmd_fig), ("fig7", cmd_fig), ("fig8", cmd_fig),
    ):
        command(sub, name, fn, common_opts, sim_opts)
    p9 = command(sub, "fig9", cmd_sweep, common_opts, sim_opts,
                 help="scale sweep (also fig10 error column)")
    p9.add_argument("--scales", nargs="+", type=int,
                    default=[5_000, 20_000, 100_000])
    p11 = command(sub, "fig11", cmd_sweep, common_opts, sim_opts,
                  help="Lifetime_Rate sweep (also fig12 error column)")
    p11.add_argument("--rates", nargs="+", type=float,
                     default=[0.1, 0.5, 1.0, 2.0, 10.0])
    closed_form_opts = _run_flags(nodes=100_000)
    command(sub, "predict", cmd_predict, common_opts, closed_form_opts,
            help="closed-form predictions (no simulation)")
    command(sub, "baselines", cmd_baselines, common_opts, closed_form_opts,
            help="the intro comparison table")

    pch = command(sub, "chaos", cmd_chaos, common_opts,
                  _run_flags(nodes=None, seed=0), export_opts, stream_opts,
                  help="deterministic fault-injection run with live "
                       "invariant checking (-n defaults to the scenario's "
                       "population)")
    pch.add_argument("--scenario", default="smoke",
                     help="scenario name (--list shows all)")
    pch.add_argument("--byzantine", metavar="SCENARIO", default=None,
                     help="run an adversarial scenario (DESIGN §16) with the "
                          "byzantine runner instead of --scenario; 'default' "
                          "health uses the byzantine SLO bands")
    pch.add_argument("--trace", help="write the deterministic fault/state trace here")
    pch.add_argument("--health", metavar="SPEC",
                     help="evaluate SLOs live + post-hoc and fail (exit 1) "
                          "on breach; SPEC is a HealthSpec JSON path or "
                          "'default' (derived from the scenario config)")
    pch.add_argument("--detsan", action="store_true",
                     help="run under the DetSan runtime sanitizer (a walk "
                          "of node state for held objects + clock/RNG "
                          "tripwires; exit 1 on any finding)")
    pch.add_argument("--list", action="store_true", help="list scenarios and exit")

    pobs = sub.add_parser("obs",
                          help="observability: instrumented runs, span-tree "
                               "analytics, SLO health checks, reports")
    obs_sub = pobs.add_subparsers(dest="obs_command", required=True,
                                  parser_class=quiet)
    porun = command(
        obs_sub, "run", cmd_obs_run, common_opts,
        # n >= 3: a bootstrap plus the two churn victims.
        _run_flags(min_nodes=3, nodes=200, duration=300.0, seed=1, parallel=None),
        export_opts, stream_opts,
        help="instrumented churn run: span tree, metrics registry, exporters")
    porun.add_argument("--metrics-csv", dest="metrics_csv",
                       help="write the metrics snapshot as CSV here")
    poana = command(
        obs_sub, "analyze", cmd_obs_analyze, common_opts, recorded_opts,
        help="reconstruct multicast/join/probe trees from a span JSONL "
             "export and print per-operation aggregates")
    poana.add_argument("--json", help="write the full analysis document here")
    command(obs_sub, "health", cmd_obs_health, common_opts, recorded_opts, spec_opts,
            help="judge a recorded run against paper-derived SLOs "
                 "(exit 1 on breach)")
    command(obs_sub, "report", cmd_obs_report, common_opts, recorded_opts,
            spec_opts, report_opts,
            help="full markdown/JSON health report (exit 1 when unhealthy)")
    porend = command(
        obs_sub, "render", cmd_obs_render, common_opts,
        help="render recorded telemetry to one self-contained static HTML "
             "page (timeline, level histogram, tree shapes; no JS, no "
             "external assets)")
    porend.add_argument("frames", help="telemetry frame JSONL file")
    porend.add_argument("--spans",
                        help="span JSONL from the same run (adds multicast "
                             "tree shapes)")
    porend.add_argument("--out", default="telemetry.html",
                        help="output HTML path")
    porend.add_argument("--title", default="repro telemetry")
    porend.add_argument("--trees", type=int, default=3,
                        help="how many multicast trees to render")
    potree = command(
        obs_sub, "trees", cmd_obs_trees, common_opts,
        help="print reconstructed multicast tree shapes (ASCII) from a "
             "span JSONL export")
    potree.add_argument("spans", help="span JSONL file")
    potree.add_argument("--limit", type=int, default=3,
                        help="largest-N trees to render")
    potree.add_argument("--max-nodes", type=int, default=48,
                        help="span budget per tree before truncation")

    pwatch = command(
        sub, "watch", cmd_watch,
        help="render telemetry frames from a --snapshot-jsonl file "
             "(optionally tailing a still-running producer)")
    pwatch.add_argument("frames", help="telemetry frame JSONL file")
    pwatch.add_argument("--follow", action="store_true",
                        help="tail the file until a final frame arrives")
    pwatch.add_argument("--interval", type=float, default=0.5,
                        help="poll interval in wall seconds with --follow")
    pwatch.add_argument("--plain", action="store_true",
                        help="never repaint in place, even on a TTY")
    pwatch.add_argument("--no-verdict-exit", action="store_true",
                        help="exit 0 even when the last frame carries "
                             "breached SLO verdicts")

    pcmp = command(
        sub, "compare", cmd_compare, common_opts,
        # n >= 2: the smallest population a baseline network holds.
        _run_flags(min_nodes=2, nodes=40, duration=240.0, window=30.0, seed=0,
                   parallel=None),
        report_opts,
        help="protocol tournament: run PeerWindow and the baselines over "
             "identical seeded workloads and emit one scorecard "
             "(exit 1 when the champion breaches its bands)")
    pcmp.add_argument("--contestants", nargs="+", default=None,
                      help="contestant names (--list shows all; "
                           "default: every registered protocol)")
    pcmp.add_argument("--seeds", type=int, default=1,
                      help="number of consecutive seeds to run, from --seed")
    pcmp.add_argument("--frames-dir",
                      help="also write per-contestant telemetry frame JSONL "
                           "files into this directory")
    pcmp.add_argument("--watch", action="store_true",
                      help="render the contestants side by side after every "
                           "lockstep window")
    pcmp.add_argument("--plain", action="store_true",
                      help="with --watch: never repaint in place")
    pcmp.add_argument("--list", action="store_true",
                      help="list contestants and exit")

    plint = command(
        sub, "lint", cmd_lint, common_opts,
        help="detlint: statically check the determinism & LP-isolation "
             "contracts (DET*/ISO*/WIRE* rules)")
    plint.add_argument("paths", nargs="*",
                       help="files or directories (default: src/repro)")
    plint.add_argument("--format", choices=("text", "json"), default="text",
                       help="finding output format")
    plint.add_argument("--report", help="write findings to this file "
                                        "instead of stdout")
    plint.add_argument("--rules", action="store_true",
                       help="list the rule catalog and exit")
    plint.add_argument("--explain", action="store_true",
                       help="with --rules: include each rule's rationale")

    plive = sub.add_parser(
        "live",
        help="realtime backend: the protocol over asyncio/UDP on localhost")
    live_sub = plive.add_subparsers(dest="live_command", required=True,
                                    parser_class=quiet)
    live_opts = options(_run_flags(seed=0, duration=30.0))
    live_opts.add_argument("--settle", type=float, default=4.0,
                           help="quiet window before export")
    live_opts.add_argument("--request-retries", type=int, default=1,
                           help="datagram retransmits per request window")
    live_opts.add_argument("--telemetry-window", dest="telemetry_window",
                           type=float, default=0.0,
                           help="per-node telemetry frame sidecars "
                                "(telemetry_<port>.jsonl) with this window "
                                "width in seconds (0 = none)")
    live_opts.add_argument("--out", default="live-out",
                           help="directory for span/result exports (swarm: "
                                "also the merged spans.jsonl/metrics.json)")
    live_node_opts = options(live_opts)
    live_node_opts.add_argument("--host", default="127.0.0.1")
    live_node_opts.add_argument("--port", type=int, required=True,
                                help="UDP port to bind (the node's address)")
    live_node_opts.add_argument("--index", type=int, default=0,
                                help="node index (seeds this node's RNG streams)")
    live_node_opts.add_argument("--swarm-size", type=int, default=1,
                                help="total nodes in the swarm this belongs to")
    live_node_opts.add_argument("--epoch", default=None,
                                help="shared unix-time epoch (t=0 of the run); "
                                     "default: now")
    live_node_opts.add_argument("--join-at", type=float, default=0.0,
                                help="epoch-relative join time")
    command(live_sub, "seed", cmd_live_node, live_node_opts,
            help="run the bootstrap (first) node of a live system"
            ).set_defaults(via=None)
    pnode = command(live_sub, "node", cmd_live_node, live_node_opts,
                    help="run one node; joins through --via if given")
    pnode.add_argument("--via", default=None,
                       help="bootstrap address host:port (omit = seed)")
    pswarm = command(
        live_sub, "swarm", cmd_live_swarm, common_opts, live_opts,
        _run_flags(nodes=25), spec_opts,
        help="launch an N-process localhost swarm and merge its exports")
    pswarm.add_argument("--base-port", type=int, default=47000)
    pswarm.add_argument("--stagger", type=float, default=0.4,
                        help="seconds between successive joins")
    pswarm.add_argument("--health", action="store_true",
                        help="judge the merged run against the default "
                             "HealthSpec (exit 1 on breach)")
    pswarm.add_argument("--compare-sim", action="store_true",
                        help="also run the sequential-sim counterpart of the "
                             "same (n, config) and print the fidelity table")
    pswarm.add_argument("--watch", action="store_true",
                        help="render merged telemetry frames while the swarm "
                             "runs (implies --telemetry-window 2.0)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs.analyze import SchemaError

    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # e.g. a retired option: one error line, like a refused value
            raise argparse.ArgumentError(None, f"unrecognized arguments: {' '.join(extra)}")
        rc = args.func(args)
    except (OSError, SchemaError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
