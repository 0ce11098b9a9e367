"""Command-line interface: regenerate any paper figure from the shell.

::

    python -m repro fig5                    # common-run level distribution
    python -m repro fig9 --scales 5000 20000 100000
    python -m repro fig12 --rates 0.1 1 10
    python -m repro common -n 100000        # figures 5-8 in one run
    python -m repro predict -n 100000       # closed-form predictions
    python -m repro baselines               # the intro comparison table
    python -m repro lint src/repro          # detlint static analysis

Every command prints the same table the corresponding benchmark prints
and optionally writes it as CSV (``--csv out.csv``).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence

from repro.experiments.report import format_table
from repro.experiments.scalable import ScalableParams, ScalableSim
from repro.experiments.scenario import COMMON_FULL
from repro.workloads.lifetime import GnutellaLifetimeDistribution


def _emit(args, title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = [list(r) for r in rows]
    print(f"\n== {title} ==")
    print(format_table(headers, rows))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerows(rows)
        print(f"[wrote {args.csv}]")


def _params(args, **overrides) -> ScalableParams:
    base = replace(
        COMMON_FULL,
        n_target=args.nodes,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
    )
    return replace(base, **overrides) if overrides else base


def _run(params: ScalableParams):
    sim = ScalableSim(
        params,
        lifetime_dist=GnutellaLifetimeDistribution(lifetime_rate=params.lifetime_rate),
    )
    return sim.run()


def cmd_common(args) -> None:
    result = _run(_params(args))
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


def cmd_fig(args) -> None:
    result = _run(_params(args))
    fig = args.command
    if fig == "fig5":
        _emit(args, "figure 5 — node distribution", ["level", "nodes", "fraction"],
              [[r.level, r.population, round(r.fraction, 4)]
               for r in result.rows if r.population > 0])
        if args.chart:
            from repro.experiments.plot import level_distribution_chart

            print()
            print(level_distribution_chart(
                [(r.level, r.fraction) for r in result.rows if r.population > 0]
            ))
    elif fig == "fig6":
        _emit(args, "figure 6 — peer-list sizes", ["level", "mean", "min", "max"],
              [[r.level, round(r.mean_list_size, 1), r.min_list_size, r.max_list_size]
               for r in result.rows if r.population > 0])
    elif fig == "fig7":
        _emit(args, "figure 7 — error rates", ["level", "error_rate"],
              [[r.level, round(r.error_rate, 6)]
               for r in result.rows if r.population > 0])
    elif fig == "fig8":
        _emit(args, "figure 8 — bandwidth", ["level", "in_bps", "out_bps"],
              [[r.level, round(r.in_bps, 1), round(r.out_bps, 1)]
               for r in result.rows if r.population > 0])


def cmd_fig9_10(args) -> None:
    rows = []
    for n in args.scales:
        result = _run(_params(args, n_target=int(n)))
        fr = {r.level: r.fraction for r in result.rows if r.population > 0}
        rows.append([int(n), len(fr), round(fr.get(0, 0.0), 4),
                     round(result.mean_error_rate, 6)])
    _emit(args, "figures 9/10 — scale sweep",
          ["N", "levels", "frac_L0", "mean_error"], rows)
    if args.chart:
        from repro.experiments.plot import line_chart

        print()
        print(line_chart([(r[0], r[3]) for r in rows], title="mean error vs N"))


def cmd_fig11_12(args) -> None:
    rows = []
    for rate in args.rates:
        result = _run(_params(args, lifetime_rate=float(rate)))
        fr = {r.level: r.fraction for r in result.rows if r.population > 0}
        rows.append([rate, len(fr), round(fr.get(0, 0.0), 4),
                     round(result.mean_error_rate, 6)])
    _emit(args, "figures 11/12 — Lifetime_Rate sweep",
          ["rate", "levels", "frac_L0", "mean_error"], rows)
    if args.chart:
        from repro.experiments.plot import line_chart

        print()
        print(line_chart(
            [(r[0], r[3]) for r in rows],
            title="mean error vs Lifetime_Rate (log y — figure 12)",
            log_y=True,
        ))


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
    from repro.baselines.explicit_probe import ExplicitProbeScheme
    from repro.baselines.gossip import GossipMulticastScheme
    from repro.baselines.onehop import OneHopDHTScheme
    from repro.baselines.pushpull import PushPullGossipScheme
    from repro.baselines.random_walk import RandomWalkScheme
    from repro.core.analytic import CostModel

    pw = CostModel(mean_lifetime_s=3600.0)
    schemes = [
        ExplicitProbeScheme(mean_lifetime_s=3600.0),
        GossipMulticastScheme(redundancy=4.0),
        PushPullGossipScheme(redundancy=2.0),
        OneHopDHTScheme(n_nodes=args.nodes, mean_lifetime_s=3600.0),
        RandomWalkScheme(mean_lifetime_s=3600.0),
    ]
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
    from repro.obs.export import (
        prepare_output_path,
        write_chrome_trace,
        write_metrics_json,
        write_spans_jsonl,
    )

    if args.list:
        _emit(args, "chaos scenarios",
              ["scenario", "default_nodes", "description"],
              [[s.name, s.default_nodes, s.description]
               for s in SCENARIOS.values()]
              + [[s.name, s.default_nodes, s.description]
                 for s in BYZANTINE_SCENARIOS.values()])
        return 0
    runner_cls = ChaosRunner
    if args.byzantine is not None:
        runner_cls = ByzantineRunner
        scenario = BYZANTINE_SCENARIOS.get(args.byzantine)
        if scenario is None:
            print(f"unknown byzantine scenario {args.byzantine!r}; "
                  f"choose from: {', '.join(sorted(BYZANTINE_SCENARIOS))}",
                  file=sys.stderr)
            return 2
    else:
        scenario = SCENARIOS.get(args.scenario)
        if scenario is None:
            print(f"unknown scenario {args.scenario!r}; "
                  f"choose from: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
            return 2
    # Validate output paths up front: a bad --trace/--spans/--chrome
    # destination should fail before the run, not after it.
    if args.trace:
        prepare_output_path(args.trace, what="chaos trace")
    if args.spans:
        prepare_output_path(args.spans, what="span export")
    if args.chrome:
        prepare_output_path(args.chrome, what="Chrome trace")
    if args.metrics:
        prepare_output_path(args.metrics, what="metrics JSON")
    health_spec = None
    if args.health:
        from repro.obs.health import HealthSpec

        if args.health == "default":
            n = args.nodes if args.nodes is not None else scenario.default_nodes
            if args.byzantine is not None:
                health_spec = HealthSpec.byzantine(scenario.make_config(), n)
            else:
                health_spec = HealthSpec.default(scenario.make_config(), n)
        else:
            health_spec = HealthSpec.load(args.health)
    stream = None
    if args.watch or args.snapshot_jsonl:
        from repro.obs.health import HealthSpec
        from repro.obs.stream import StreamConfig

        n = args.nodes if args.nodes is not None else scenario.default_nodes
        stream_spec = health_spec
        if stream_spec is None:
            # The dashboard always band-evaluates; without --health the
            # default spec for the scenario's config judges the stream.
            if args.byzantine is not None:
                stream_spec = HealthSpec.byzantine(scenario.make_config(), n)
            else:
                stream_spec = HealthSpec.default(scenario.make_config(), n)
        if args.snapshot_jsonl:
            prepare_output_path(args.snapshot_jsonl, what="telemetry frames")
        stream = StreamConfig(
            window=args.window,
            spec=stream_spec,
            snapshot_path=args.snapshot_jsonl,
            render=bool(args.watch),
        )
    observe = bool(args.spans or args.chrome or args.metrics)
    runner = runner_cls(
        scenario, n_nodes=args.nodes, seed=args.seed, observe=observe,
        health_spec=health_spec, stream=stream,
        detsan=True if args.detsan else None,
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
        path = prepare_output_path(args.trace, what="chaos trace")
        with open(path, "w") as fh:
            fh.write(result.trace)
        print(f"[wrote {path}]")
    if args.snapshot_jsonl:
        print(f"[wrote {args.snapshot_jsonl}]")
    if args.spans:
        print(f"[wrote {write_spans_jsonl(args.spans, result.spans)}]")
    if args.chrome:
        print(f"[wrote {write_chrome_trace(args.chrome, result.spans)}]")
    if args.metrics:
        meta = {
            "scenario": result.scenario,
            "n_nodes": result.n_nodes,
            "seed": result.seed,
            "duration": result.duration,
            "mean_error_rate": result.mean_error_rate,
            "config": scenario.make_config().describe(),
        }
        print(f"[wrote {write_metrics_json(args.metrics, result.metrics, meta=meta)}]")
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
            print("DETSAN: clean (no payload retention, wall-clock, or "
                  "global-RNG findings)")
    if health_spec is not None:
        breaches = [v for v in result.health_verdicts if not v.ok]
        if breaches:
            print(f"UNHEALTHY: {len(breaches)} SLO breach(es):")
            for v in breaches:
                print("  " + v.describe())
            rc = 1
        else:
            print(f"HEALTHY: {len(result.health_verdicts)} SLO verdict(s) ok")
    return rc


def cmd_obs_run(args) -> int:
    """An instrumented churn run: spans, metrics, profile, exporters."""
    from repro.core.config import ProtocolConfig
    from repro.core.protocol import PeerWindowNetwork
    from repro.net.latency import PairwiseLatencyModel
    from repro.obs.export import (
        prepare_output_path,
        profile_rows,
        write_chrome_trace,
        write_metrics_csv,
        write_metrics_json,
        write_spans_jsonl,
    )
    from repro.sim.rng import RandomStreams

    # Validate output paths up front so a bad destination fails before
    # the (possibly long) instrumented run.
    for path, what in ((args.spans, "span export"),
                       (args.chrome, "Chrome trace"),
                       (args.metrics, "metrics JSON"),
                       (args.metrics_csv, "metrics CSV")):
        if path:
            prepare_output_path(path, what=what)

    config = ProtocolConfig(id_bits=16)
    net = PeerWindowNetwork(
        config=config,
        topology=PairwiseLatencyModel(),
        master_seed=args.seed,
        parallel=args.parallel,
        observability=True,
    )
    net.seed_nodes([4000.0] * args.nodes)
    windower = None
    if args.watch or args.snapshot_jsonl:
        from repro.obs.health import HealthSpec
        from repro.obs.stream import StreamConfig

        if args.snapshot_jsonl:
            prepare_output_path(args.snapshot_jsonl, what="telemetry frames")
        windower = StreamConfig(
            window=args.window,
            spec=HealthSpec.default(config, args.nodes),
            snapshot_path=args.snapshot_jsonl,
            render=bool(args.watch),
        ).build(net)
    advance = net.run if windower is None else (
        lambda until: windower.run(until)
    )
    if args.profile:
        net.enable_profiling()
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
    by_name: dict = {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0) + 1
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
    if args.spans:
        print(f"[wrote {write_spans_jsonl(args.spans, spans)}]")
    if args.chrome:
        print(f"[wrote {write_chrome_trace(args.chrome, spans)}]")
    if args.metrics:
        # meta records what produced the snapshot so `repro obs health`
        # can rebuild the matching default spec.  The execution mode
        # (parallel=N) is deliberately omitted: it is an implementation
        # detail, and including it would break the byte-identity of
        # sequential-vs-partitioned reports.
        meta = {
            "n_nodes": args.nodes,
            "seed": args.seed,
            "duration": args.duration,
            "mean_error_rate": net.mean_error_rate(),
            "config": config.describe(),
        }
        print(f"[wrote {write_metrics_json(args.metrics, snapshot, meta=meta)}]")
    if args.metrics_csv:
        print(f"[wrote {write_metrics_csv(args.metrics_csv, snapshot)}]")
    if args.profile:
        print("\n== profile ==")
        print(format_table(["phase", "calls", "seconds", "mean_us"],
                           profile_rows(net.profile_snapshot())))
    return 0


def _health_inputs(spans_path: str, metrics_path: Optional[str],
                   spec_path: Optional[str]):
    """Shared loader for ``obs analyze|health|report``: the analysis
    report, the combined signal dict, the health spec (loaded or derived
    from the run's recorded config), and the run meta."""
    from repro.core.config import ProtocolConfig
    from repro.obs.analyze import analyze_file, load_metrics
    from repro.obs.health import HealthSpec, metrics_signals

    report = analyze_file(spans_path)
    signals = dict(report.signals())
    meta: dict = {}
    config = ProtocolConfig(id_bits=16)
    if metrics_path:
        snapshot = load_metrics(metrics_path)
        raw_meta = snapshot.get("meta")
        if isinstance(raw_meta, dict):
            meta = raw_meta
        if isinstance(meta.get("config"), dict):
            config = ProtocolConfig(**meta["config"])
        signals.update(metrics_signals(snapshot, config, meta=meta))
    if spec_path:
        spec = HealthSpec.load(spec_path)
    else:
        spec = HealthSpec.default(config, int(meta.get("n_nodes", report.nodes)))
    return report, signals, spec, meta


def cmd_obs_analyze(args) -> int:
    """Reconstruct span trees from a JSONL export and print aggregates."""
    import json as _json

    from repro.paths import prepare_output_path

    if args.json:
        prepare_output_path(args.json, what="analysis JSON")
    report, signals, _spec, _meta = _health_inputs(
        args.spans, args.metrics, None
    )
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
        with open(args.json, "w") as fh:
            fh.write(_json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"[wrote {args.json}]")
    return 0


def cmd_obs_health(args) -> int:
    """Judge a recorded run against a health spec; exit 1 on breach."""
    from repro.obs.health import evaluate

    _report, signals, spec, _meta = _health_inputs(
        args.spans, args.metrics, args.spec
    )
    verdicts = evaluate(spec, signals)
    _emit(
        args,
        f"health: {args.spans} vs spec '{spec.name}'",
        ["slo", "value", "lo", "hi", "ok"],
        [
            [v.slo, round(v.value, 6),
             "-" if v.lo is None else v.lo,
             "-" if v.hi is None else v.hi,
             "ok" if v.ok else "BREACH"]
            for v in verdicts
        ],
    )
    breaches = [v for v in verdicts if not v.ok]
    if breaches:
        print(f"\nUNHEALTHY: {len(breaches)} SLO breach(es)")
        for v in breaches:
            print("  " + v.describe())
        return 1
    print(f"\nHEALTHY: {len(verdicts)} SLO(s) ok")
    return 0


def cmd_obs_report(args) -> int:
    """The full health report: markdown to stdout/--out, JSON via --json."""
    from repro.obs.health import evaluate
    from repro.obs.report import build_report, render_json, render_markdown
    from repro.paths import prepare_output_path

    for path, what in ((args.out, "markdown report"),
                       (args.json, "JSON report")):
        if path:
            prepare_output_path(path, what=what)
    report, signals, spec, meta = _health_inputs(
        args.spans, args.metrics, args.spec
    )
    verdicts = evaluate(spec, signals)
    doc = build_report(report, verdicts, signals=signals, meta=meta)
    markdown = render_markdown(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown)
        print(f"[wrote {args.out}]")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(doc))
        print(f"[wrote {args.json}]")
    if not args.out and not args.json:
        print(markdown, end="")
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
    import os

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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_markdown(doc))
        print(f"[wrote {args.out}]")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(doc))
        print(f"[wrote {args.json}]")
    if not args.out and not args.json:
        print(render_markdown(doc), end="")
    return 0 if doc["champion_healthy"] else 1


def cmd_obs_render(args) -> int:
    """Render recorded frames (and optionally spans) to static HTML."""
    from repro.obs.analyze import load_span_lines
    from repro.obs.export import prepare_output_path
    from repro.obs.render_html import build_html
    from repro.obs.stream import load_frames

    with open(args.frames) as fh:
        frames, _, skipped = load_frames(fh.read().splitlines())
    spans = None
    if args.spans:
        with open(args.spans) as fh:
            spans, _, span_skipped = load_span_lines(fh.read().splitlines())
        skipped += span_skipped
    page = build_html(
        frames,
        spans=spans,
        title=args.title,
        lines_skipped=skipped,
        tree_limit=args.trees,
    )
    prepare_output_path(args.out, what="HTML page")
    with open(args.out, "w") as fh:
        fh.write(page)
    print(f"[wrote {args.out}]")
    return 0


def cmd_obs_trees(args) -> int:
    """Print reconstructed multicast tree shapes from a span JSONL."""
    from repro.obs.analyze import load_span_lines
    from repro.obs.dashboard import render_mcast_trees

    with open(args.spans) as fh:
        spans, _, skipped = load_span_lines(fh.read().splitlines())
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

    via = getattr(args, "via", None)
    spec = LiveNodeSpec(
        host=args.host,
        port=args.port,
        index=args.index,
        n_nodes=args.swarm_size,
        master_seed=args.seed,
        epoch=float(args.epoch) if args.epoch is not None else wall_epoch(),
        duration=args.duration,
        seed_address=via,
        join_at=args.join_at,
        settle=args.settle,
        request_retries=args.request_retries,
        telemetry_window=args.telemetry_window,
    )
    result = asyncio.run(run_node(spec, args.out))
    role = "seed" if via is None else f"joined={result['joined']}"
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

    def judge(label: str, spans_path: str, metrics_path: str):
        report, signals, spec, _meta = _health_inputs(
            spans_path, metrics_path, args.spec
        )
        verdicts = evaluate(spec, signals)
        _emit(
            args,
            f"health ({label}): {spans_path} vs spec '{spec.name}'",
            ["slo", "value", "lo", "hi", "ok"],
            [
                [v.slo, round(v.value, 6),
                 "-" if v.lo is None else v.lo,
                 "-" if v.hi is None else v.hi,
                 "ok" if v.ok else "BREACH"]
                for v in verdicts
            ],
        )
        breaches = [v for v in verdicts if not v.ok]
        for v in breaches:
            print("  " + v.describe())
        return signals, not breaches

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


def _changed_files(ref: str, paths) -> "Optional[list]":
    """``.py`` files changed versus ``ref`` (per ``git diff``) that lie
    under the requested lint paths.  None on git failure."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", "-z", ref, "--"],
            capture_output=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = ""
        if isinstance(exc, subprocess.CalledProcessError):
            detail = (exc.stderr or b"").decode(errors="replace").strip()
        print(f"cannot diff against {ref!r}: {detail or exc}", file=sys.stderr)
        return None
    wanted = [os.path.normpath(p) for p in paths]
    files = []
    for name in out.stdout.decode(errors="replace").split("\0"):
        if not name or not name.endswith(".py"):
            continue
        norm = os.path.normpath(name)
        in_scope = any(
            norm == w or norm.startswith(w + os.sep) for w in wanted
        )
        # Deleted files show up in the diff but have nothing to lint.
        if in_scope and os.path.exists(norm):
            files.append(norm)
    return sorted(files)


def cmd_lint(args) -> int:
    """detlint: the determinism & LP-isolation static analyzer."""
    import json as _json

    from repro.analysis import Baseline, all_rules, run_lint
    from repro.paths import prepare_output_path

    rules = all_rules()
    if args.rules:
        _emit(args, "detlint rules", ["rule", "title"],
              [[r.id, r.title] for r in rules])
        if args.explain:
            for r in rules:
                print(f"\n{r.id} — {r.title}\n  {r.rationale}")
        return 0
    # Validate report/baseline destinations before the (possibly long) walk.
    if args.report:
        prepare_output_path(args.report, what="lint report")
    if args.write_baseline:
        prepare_output_path(args.baseline, what="detlint baseline")

    paths = args.paths or ["src/repro"]
    if args.changed:
        changed = _changed_files(args.changed, paths)
        if changed is None:
            return 2
        if not changed:
            print(f"[no .py files under {', '.join(paths)} changed vs "
                  f"{args.changed}]")
            return 0
        print(f"[incremental: {len(changed)} file(s) changed vs "
              f"{args.changed}; per-file rules only — interprocedural "
              f"checks need the whole tree]")
        findings = run_lint(changed, rules=rules, project=False)
    else:
        findings = run_lint(paths, rules=rules)

    if args.write_baseline:
        baseline = Baseline.from_findings(findings)
        print(f"[wrote {baseline.save(args.baseline)}: "
              f"{len(findings)} grandfathered finding(s)]")
        return 0

    baseline = Baseline()
    if args.baseline and os.path.exists(args.baseline):
        baseline = Baseline.load(args.baseline)
    new, grandfathered = baseline.split(findings)

    if args.format == "json":
        doc = {
            "findings": [f.to_dict() for f in new],
            "baselined": len(grandfathered),
            "checked_rules": [r.id for r in rules],
        }
        text = _json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(text)
            print(f"[wrote {args.report}]")
        else:
            print(text, end="")
    else:
        lines = [f.describe() for f in new]
        summary = (
            f"{len(new)} finding(s)"
            + (f", {len(grandfathered)} baselined" if grandfathered else "")
            + f" across {len(rules)} rules"
        )
        if args.report:
            with open(args.report, "w") as fh:
                fh.write("\n".join(lines + [summary]) + "\n")
            print(f"[wrote {args.report}]")
        else:
            for line in lines:
                print(line)
            print(summary)
    return 1 if new else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PeerWindow (ICPP 2005) reproduction — regenerate any paper figure.",
    )
    common_opts = argparse.ArgumentParser(add_help=False)
    common_opts.add_argument("--csv", help="also write the table as CSV")
    common_opts.add_argument("--chart", action="store_true",
                             help="also draw a terminal chart")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim_args(p):
        p.add_argument("-n", "--nodes", type=int, default=20_000,
                       help="system scale (paper: 100000)")
        p.add_argument("--duration", type=float, default=1200.0,
                       help="measured seconds after warm-up")
        p.add_argument("--warmup", type=float, default=400.0)
        p.add_argument("--seed", type=int, default=1)

    for name, fn in (
        ("common", cmd_common),
        ("fig5", cmd_fig), ("fig6", cmd_fig), ("fig7", cmd_fig), ("fig8", cmd_fig),
    ):
        p = sub.add_parser(name, parents=[common_opts])
        add_sim_args(p)
        p.set_defaults(func=fn)

    p9 = sub.add_parser("fig9", parents=[common_opts], help="scale sweep (also fig10 error column)")
    add_sim_args(p9)
    p9.add_argument("--scales", nargs="+", type=int,
                    default=[5_000, 20_000, 100_000])
    p9.set_defaults(func=cmd_fig9_10)

    p11 = sub.add_parser("fig11", parents=[common_opts], help="Lifetime_Rate sweep (also fig12 error column)")
    add_sim_args(p11)
    p11.add_argument("--rates", nargs="+", type=float,
                     default=[0.1, 0.5, 1.0, 2.0, 10.0])
    p11.set_defaults(func=cmd_fig11_12)

    pp = sub.add_parser("predict", parents=[common_opts], help="closed-form predictions (no simulation)")
    pp.add_argument("-n", "--nodes", type=int, default=100_000)
    pp.set_defaults(func=cmd_predict)

    pb = sub.add_parser("baselines", parents=[common_opts], help="the intro comparison table")
    pb.add_argument("-n", "--nodes", type=int, default=100_000)
    pb.set_defaults(func=cmd_baselines)

    pch = sub.add_parser("chaos", parents=[common_opts],
                         help="deterministic fault-injection run with live "
                              "invariant checking")
    pch.add_argument("--scenario", default="smoke",
                     help="scenario name (--list shows all)")
    pch.add_argument("--byzantine", metavar="SCENARIO", default=None,
                     help="run an adversarial scenario (DESIGN §16) with the "
                          "byzantine runner instead of --scenario; 'default' "
                          "health uses the byzantine SLO bands")
    pch.add_argument("-n", "--nodes", type=int, default=None,
                     help="population (default: the scenario's)")
    pch.add_argument("--seed", type=int, default=0,
                     help="master seed; same seed => byte-identical trace")
    pch.add_argument("--trace", help="write the deterministic fault/state trace here")
    pch.add_argument("--spans", help="record observability spans and write them "
                                     "as JSONL here (enables tracing)")
    pch.add_argument("--chrome", help="write a Chrome trace_event file here "
                                      "(open in about://tracing; enables tracing)")
    pch.add_argument("--health", metavar="SPEC",
                     help="evaluate SLOs live + post-hoc and fail (exit 1) "
                          "on breach; SPEC is a HealthSpec JSON path or "
                          "'default' (derived from the scenario config)")
    pch.add_argument("--metrics", help="write the run's metrics snapshot "
                                       "as JSON here (enables tracing)")
    pch.add_argument("--watch", action="store_true",
                     help="render the live telemetry dashboard while the "
                          "scenario runs (enables tracing)")
    pch.add_argument("--snapshot-jsonl", dest="snapshot_jsonl", default=None,
                     help="write deterministic per-window telemetry frames "
                          "as JSONL here (enables tracing)")
    pch.add_argument("--window", type=float, default=15.0,
                     help="telemetry window width in simulated seconds")
    pch.add_argument("--detsan", action="store_true",
                     help="run under the DetSan runtime sanitizer (payload "
                          "retention + clock/RNG tripwires; exit 1 on any "
                          "finding; REPRO_DETSAN=1 does the same)")
    pch.add_argument("--list", action="store_true", help="list scenarios and exit")
    pch.set_defaults(func=cmd_chaos)

    pobs = sub.add_parser("obs",
                          help="observability: instrumented runs, span-tree "
                               "analytics, SLO health checks, reports")
    obs_sub = pobs.add_subparsers(dest="obs_command", required=True)

    porun = obs_sub.add_parser(
        "run", parents=[common_opts],
        help="instrumented churn run: span tree, metrics registry, "
             "exporters, profiling")
    porun.add_argument("-n", "--nodes", type=int, default=200)
    porun.add_argument("--duration", type=float, default=300.0,
                       help="simulated seconds")
    porun.add_argument("--seed", type=int, default=1)
    porun.add_argument("--parallel", type=int, default=None,
                       help="run on N logical processes (byte-identical output)")
    porun.add_argument("--spans", help="write spans as JSONL here")
    porun.add_argument("--chrome", help="write a Chrome trace_event file here")
    porun.add_argument("--metrics", help="write the metrics snapshot as JSON here")
    porun.add_argument("--metrics-csv", dest="metrics_csv",
                       help="write the metrics snapshot as CSV here")
    porun.add_argument("--profile", action="store_true",
                       help="attach wall-clock phase profilers and print them")
    porun.add_argument("--watch", action="store_true",
                       help="render the live telemetry dashboard during the run")
    porun.add_argument("--snapshot-jsonl", dest="snapshot_jsonl", default=None,
                       help="write deterministic per-window telemetry frames "
                            "as JSONL here (byte-identical across --parallel)")
    porun.add_argument("--window", type=float, default=15.0,
                       help="telemetry window width in simulated seconds")
    porun.set_defaults(func=cmd_obs_run)

    poana = obs_sub.add_parser(
        "analyze", parents=[common_opts],
        help="reconstruct multicast/join/probe trees from a span JSONL "
             "export and print per-operation aggregates")
    poana.add_argument("spans", help="span JSONL file (from `obs run --spans`)")
    poana.add_argument("--metrics", help="metrics JSON from the same run")
    poana.add_argument("--json", help="write the full analysis document here")
    poana.set_defaults(func=cmd_obs_analyze)

    pohealth = obs_sub.add_parser(
        "health", parents=[common_opts],
        help="judge a recorded run against paper-derived SLOs "
             "(exit 1 on breach)")
    pohealth.add_argument("spans", help="span JSONL file")
    pohealth.add_argument("--metrics", help="metrics JSON from the same run "
                                            "(enables bandwidth/error SLOs)")
    pohealth.add_argument("--spec", help="HealthSpec JSON (default: derived "
                                         "from the run's recorded config)")
    pohealth.set_defaults(func=cmd_obs_health)

    porep = obs_sub.add_parser(
        "report", parents=[common_opts],
        help="full markdown/JSON health report (exit 1 when unhealthy)")
    porep.add_argument("spans", help="span JSONL file")
    porep.add_argument("--metrics", help="metrics JSON from the same run")
    porep.add_argument("--spec", help="HealthSpec JSON")
    porep.add_argument("--out", help="write markdown here (default: stdout)")
    porep.add_argument("--json", help="write the report document as JSON here")
    porep.set_defaults(func=cmd_obs_report)

    porend = obs_sub.add_parser(
        "render", parents=[common_opts],
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
    porend.set_defaults(func=cmd_obs_render)

    potree = obs_sub.add_parser(
        "trees", parents=[common_opts],
        help="print reconstructed multicast tree shapes (ASCII) from a "
             "span JSONL export")
    potree.add_argument("spans", help="span JSONL file")
    potree.add_argument("--limit", type=int, default=3,
                        help="largest-N trees to render")
    potree.add_argument("--max-nodes", type=int, default=48,
                        help="span budget per tree before truncation")
    potree.set_defaults(func=cmd_obs_trees)

    pwatch = sub.add_parser(
        "watch",
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
    pwatch.set_defaults(func=cmd_watch)

    pcmp = sub.add_parser(
        "compare", parents=[common_opts],
        help="protocol tournament: run PeerWindow and the baselines over "
             "identical seeded workloads and emit one scorecard "
             "(exit 1 when the champion breaches its bands)")
    pcmp.add_argument("--contestants", nargs="+", default=None,
                      help="contestant names (--list shows all; "
                           "default: every registered protocol)")
    pcmp.add_argument("-n", "--nodes", type=int, default=40,
                      help="population per contestant")
    pcmp.add_argument("--duration", type=float, default=240.0,
                      help="simulated seconds per seed")
    pcmp.add_argument("--window", type=float, default=30.0,
                      help="telemetry window width in simulated seconds")
    pcmp.add_argument("--seed", type=int, default=0, help="first seed")
    pcmp.add_argument("--seeds", type=int, default=1,
                      help="number of consecutive seeds to run")
    pcmp.add_argument("--parallel", type=int, default=None,
                      help="partitioned engine LPs for the champion "
                           "(scorecard is byte-identical either way)")
    pcmp.add_argument("--out", help="write the markdown scorecard here")
    pcmp.add_argument("--json", help="write the JSON scorecard here")
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
    pcmp.set_defaults(func=cmd_compare)

    plint = sub.add_parser(
        "lint", parents=[common_opts],
        help="detlint: statically check the determinism & LP-isolation "
             "contracts (DET*/ISO*/OBS* rules)")
    plint.add_argument("paths", nargs="*",
                       help="files or directories (default: src/repro)")
    plint.add_argument("--format", choices=("text", "json"), default="text",
                       help="finding output format")
    plint.add_argument("--baseline", default="detlint-baseline.json",
                       help="baseline file of grandfathered findings "
                            "(missing file = empty baseline)")
    plint.add_argument("--write-baseline", action="store_true",
                       help="write current findings to the baseline file "
                            "and exit 0")
    plint.add_argument("--report", help="write findings to this file "
                                        "instead of stdout")
    plint.add_argument("--changed", metavar="GIT_REF",
                       help="incremental mode: lint only .py files changed "
                            "versus this git ref (per-file rules only; the "
                            "interprocedural pass needs the whole tree)")
    plint.add_argument("--rules", action="store_true",
                       help="list the rule catalog and exit")
    plint.add_argument("--explain", action="store_true",
                       help="with --rules: include each rule's rationale")
    plint.set_defaults(func=cmd_lint)

    plive = sub.add_parser(
        "live",
        help="realtime backend: the protocol over asyncio/UDP on localhost")
    live_sub = plive.add_subparsers(dest="live_command", required=True)

    live_node_opts = argparse.ArgumentParser(add_help=False)
    live_node_opts.add_argument("--host", default="127.0.0.1")
    live_node_opts.add_argument("--port", type=int, required=True,
                                help="UDP port to bind (the node's address)")
    live_node_opts.add_argument("--index", type=int, default=0,
                                help="node index (seeds this node's RNG streams)")
    live_node_opts.add_argument("--swarm-size", type=int, default=1,
                                help="total nodes in the swarm this belongs to")
    live_node_opts.add_argument("--seed", type=int, default=0,
                                help="master seed shared by the whole swarm")
    live_node_opts.add_argument("--epoch", default=None,
                                help="shared unix-time epoch (t=0 of the run); "
                                     "default: now")
    live_node_opts.add_argument("--duration", type=float, default=30.0,
                                help="epoch-relative lifetime in seconds")
    live_node_opts.add_argument("--join-at", type=float, default=0.0,
                                help="epoch-relative join time")
    live_node_opts.add_argument("--settle", type=float, default=4.0,
                                help="quiet window before export")
    live_node_opts.add_argument("--request-retries", type=int, default=1,
                                help="datagram retransmits per request window")
    live_node_opts.add_argument("--telemetry-window", dest="telemetry_window",
                                type=float, default=0.0,
                                help="write a telemetry frame sidecar "
                                     "(telemetry_<port>.jsonl) with this "
                                     "window width in seconds (0 = off)")
    live_node_opts.add_argument("--out", default="live-out",
                                help="directory for span/result exports")

    pseed = live_sub.add_parser(
        "seed", parents=[live_node_opts],
        help="run the bootstrap (first) node of a live system")
    pseed.set_defaults(func=cmd_live_node, via=None)

    pnode = live_sub.add_parser(
        "node", parents=[live_node_opts],
        help="run one node; joins through --via if given")
    pnode.add_argument("--via", default=None,
                       help="bootstrap address host:port (omit = seed)")
    pnode.set_defaults(func=cmd_live_node)

    pswarm = live_sub.add_parser(
        "swarm", parents=[common_opts],
        help="launch an N-process localhost swarm and merge its exports")
    pswarm.add_argument("-n", "--nodes", type=int, default=25)
    pswarm.add_argument("--duration", type=float, default=30.0)
    pswarm.add_argument("--seed", type=int, default=0)
    pswarm.add_argument("--base-port", type=int, default=47000)
    pswarm.add_argument("--stagger", type=float, default=0.4,
                        help="seconds between successive joins")
    pswarm.add_argument("--settle", type=float, default=4.0)
    pswarm.add_argument("--request-retries", type=int, default=1)
    pswarm.add_argument("--out", default="live-out",
                        help="output directory (merged spans.jsonl/metrics.json)")
    pswarm.add_argument("--health", action="store_true",
                        help="judge the merged run against the default "
                             "HealthSpec (exit 1 on breach)")
    pswarm.add_argument("--compare-sim", action="store_true",
                        help="also run the sequential-sim counterpart of the "
                             "same (n, config) and print the fidelity table")
    pswarm.add_argument("--spec", help="health spec JSON (default: derived)")
    pswarm.add_argument("--watch", action="store_true",
                        help="render merged telemetry frames while the swarm "
                             "runs (implies --telemetry-window 2.0)")
    pswarm.add_argument("--telemetry-window", dest="telemetry_window",
                        type=float, default=0.0,
                        help="per-node telemetry frame window in seconds "
                             "(0 = no telemetry sidecars)")
    pswarm.set_defaults(func=cmd_live_swarm)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs.analyze import SchemaError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
