#!/usr/bin/env bash
# Repo check: every section below in order, or just one with --<section>.
# Lint and type check are skipped when ruff / mypy are absent, the smokes
# when numpy is.  Each smoke drives one runtime surface end to end and
# judges what came out; its "== title ==" line names the surface and what
# must hold.  Exit status: 1 if any section failed, 2 on an unknown flag.
#
#   scripts/check.sh             # everything below
#   scripts/check.sh --lint      # ruff + mypy only
#   scripts/check.sh --analysis  # detlint gate (zero findings, JSON
#                                # report artifact; no DET001 pragma
#                                # under src/) + DetSan chaos smoke
#   scripts/check.sh --tests     # tests only
#   scripts/check.sh --coldstart # import budget + what a cold start costs
#   scripts/check.sh --paper     # BENCH_paper.json current (Figs 5-12 at
#                                # 100k nodes, ~1 min) + scalable-engine
#                                # seeding, block-draw and golden tests
#   scripts/check.sh --chaos     # chaos smoke only
#   scripts/check.sh --byzantine # byzantine smoke only
#   scripts/check.sh --obs       # obs smoke only
#   scripts/check.sh --health    # health smoke + BENCH_health.json current
#   scripts/check.sh --live      # wire codec tests + live swarm smoke
#   scripts/check.sh --watch     # streaming telemetry smoke only
#   scripts/check.sh --compare   # tournament scorecard smoke +
#                                # BENCH_baselines.json current
#   scripts/check.sh --ledger    # benchmark ledger smoke only
#   scripts/check.sh --scale     # NOT in the default run (~2 min, 2.3 GB):
#                                # a 10^4-node detailed run fits in 550 MB,
#                                # and at the paper's level mix in 2350 MB;
#                                # the scalable engine seeds 10^6 nodes
#                                # in < 700 MB, then runs 10^6 nodes at
#                                # lifetime_rate 0.01 (unjudged, minutes);
#                                # the n=1,000 six-contestant tournament
#                                # keeps its champion healthy in < 1000 MB
set -u
cd "$(dirname "$0")/.."

# The sections, in run order: `--<name>` runs only check_<name>.
SECTIONS="lint analysis tests coldstart paper chaos byzantine obs health live watch compare ledger"
# Sections that run only when asked for by name.
ON_REQUEST="scale"
# Sections skipped whole when numpy is missing.
NEEDS_NUMPY="coldstart paper chaos byzantine obs health live watch compare ledger scale"

selected="$SECTIONS"
if [ -n "${1:-}" ]; then
  selected=""
  for section in $SECTIONS $ON_REQUEST; do
    [ "$1" = "--$section" ] && selected="$section"
  done
  [ -n "$selected" ] || {
    all="$SECTIONS $ON_REQUEST"
    echo "usage: scripts/check.sh [--${all// /|--}]" >&2; exit 2; }
fi

status=0
PY="env PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python"
tmp="$(mktemp -d)"  # check_<name> works in "$dir" = "$tmp/<name>"
trap 'rm -rf "$tmp"' EXIT
have_numpy=0
$PY -c "import numpy" >/dev/null 2>&1 && have_numpy=1

# with_timeout SECS cmd...: run cmd under `timeout SECS` where there is one.
with_timeout() {
  local secs="$1"; shift
  if command -v timeout >/dev/null 2>&1; then timeout "$secs" "$@"; else "$@"; fi
}

check_lint() {
  if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples scripts || status=1
  else
    echo "== ruff not installed; skipping lint (pip install ruff) =="
  fi
  if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (strict on repro.analysis) =="
    mypy src/repro || status=1
  else
    echo "== mypy not installed; skipping type check (pip install mypy) =="
  fi
}

check_analysis() {
  echo "== detlint (determinism & LP-isolation static analysis) =="
  $PY -m repro lint src/repro --format json \
    --report "$dir/lint-report.json" || status=1
  $PY - "$dir/lint-report.json" <<'PY' || status=1
import json, sys
report = json.load(open(sys.argv[1]))
rules = report.get("checked_rules", [])
print(f"lint report: {len(report.get('findings', []))} finding(s), "
      f"{len(rules)} rule(s)")
sys.exit(0 if rules else 1)
PY
  echo "== no wall-clock suppression under src/ (DET001 has one exempt module, repro.live.clock, and no pragma) =="
  if grep -rnE "detlint: *ignore\[[^]]*DET001" src/; then status=1; fi
  if [ "$have_numpy" = 1 ]; then
    echo "== detsan smoke (crash_churn chaos under the runtime sanitizer: no node state holds a Pointer or Message, no wall-clock or global-RNG call) =="
    with_timeout 120 $PY -m repro chaos --scenario crash_churn --detsan \
      --seed 0 || status=1
  else
    echo "== numpy not installed; skipping detsan smoke =="
  fi
}

check_tests() {
  echo "== tier-1 tests =="
  $PY -m pytest -x -q || status=1
}

check_coldstart() {
  echo "== coldstart (entry points load numpy + repro only; no scipy needed off the transit-stub path) =="
  $PY -m pytest -q tests/test_import_budget.py tests/test_missing_libraries.py || status=1
  # Information for the eye, never judged: timings drift with the host.
  $PY - <<'PY' || status=1
import subprocess, sys, time

REPORT = ("import resource, sys; print(len(sys.modules), "
          "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, file=sys.stderr)")
HELP = ("import contextlib, runpy, sys; sys.argv = ['repro', '--help']\n"
        "with contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('repro', run_name='__main__')")
for title, body in (("python -m repro --help", HELP),
                    ('python -c "import repro.compare"', "import repro.compare")):
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", body + "\n" + REPORT],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    if proc.returncode:
        sys.exit(f"coldstart: {title} exited {proc.returncode}: {proc.stderr}")
    modules, rss_mb = proc.stderr.split()[-2:]
    print(f"coldstart: {title}: {wall:.2f} s, {modules} modules, {rss_mb} MB peak RSS")
PY
}

# seeding N [LIMIT_MB]: seed an N-node ScalableSim in a process of its own.
# Host-seconds and peak RSS are for the eye; what is judged is counted —
# at most 4 pending entries afterwards (one handle per seeded timer was
# 129,847 at N = 100,000) — plus peak RSS < LIMIT_MB when that is given.
# Then one §4.2 tree sample over the seeded population is timed and printed,
# unjudged (after the RSS reading, so the limit judges seeding alone).
seeding() {
  with_timeout 300 $PY - "$@" <<'PY'
import resource, sys, time
from repro.experiments.scalable import ScalableParams, ScalableSim

n, limit_mb = int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else None
sim = ScalableSim(ScalableParams(n_target=n, use_transit_stub=False))
started = time.perf_counter()
sim.seed_population()
host_s = time.perf_counter() - started
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(f"seeding: {n:,} nodes in {host_s:.2f} host-s ({host_s / n * 1e6:.2f} us/node), "
      f"{len(sim.sim)} pending entries, peak RSS {rss_mb:.0f} MB")
problems = []
if sim.population != n or len(sim.sim) > 4:
    problems.append(f"{sim.population:,} nodes, {len(sim.sim):,} pending entries "
                    f"(want {n:,} and <= 4)")
if limit_mb is not None and rss_mb >= limit_mb:
    problems.append(f"peak RSS {rss_mb:.0f} MB >= {limit_mb} MB")
started = time.perf_counter()
audience = sim._sample_tree()
print(f"seeding: one tree sample over {audience:,} audience members in "
      f"{(time.perf_counter() - started) * 1e3:.0f} host-ms")
for p in problems:
    print("seeding:", p)
sys.exit(1 if problems else 0)
PY
}

check_paper() {
  echo "== paper (BENCH_paper.json and EXPERIMENTS.md's tables are what this tree computes, every row in its band; seeding 10^5 nodes leaves <= 4 pending entries; scalable-engine tests) =="
  with_timeout 300 $PY scripts/bench_trajectory.py --paper --check || status=1
  seeding 100000 || status=1
  $PY -m pytest -q tests/workloads/test_block_draws.py tests/experiments/test_scalable.py \
    tests/experiments/test_churn_rows.py || status=1
}

check_chaos() {
  echo "== chaos smoke (deterministic fault injection, SLO-judged) =="
  with_timeout 60 $PY -m repro chaos --scenario smoke --seed 0 \
    --health default || status=1
}

check_byzantine() {
  echo "== byzantine smoke (adversarial scenarios, hardening on, SLO-judged) =="
  for scenario in eclipse forged-obituary; do
    with_timeout 120 $PY -m repro chaos --byzantine "$scenario" --seed 0 \
      --health default || status=1
  done
  echo "== byzantine breach (unhardened forgery: judged in-run and post hoc) =="
  local out rc
  out="$(with_timeout 120 $PY -m repro chaos --byzantine \
    forged-obituary-unhardened --seed 1 --health default)"
  rc=$?
  echo "$out"
  if [ "$rc" -ne 1 ]; then
    echo "expected exit 1 (SLO breach), got $rc"; status=1
  fi
  # The post-hoc pass judges each SLO once; a second error-rate breach
  # can only come from the in-run judge.
  for want in "byz.forged_evictions 1" "peerlist.error_rate 2"; do
    set -- $want
    if [ "$(printf '%s\n' "$out" | grep -c "^  BREACH $1=")" -lt "$2" ]; then
      echo "expected >= $2 $1 breach(es)"; status=1
    fi
  done
}

check_obs() {
  echo "== obs smoke (200-node instrumented run + span schema check) =="
  with_timeout 120 $PY -m repro obs run -n 200 --duration 120 \
    --spans "$dir/spans.jsonl" || status=1
  $PY - "$dir/spans.jsonl" <<'PY' || status=1
import sys
from repro.obs.export import validate_span_file
problems = validate_span_file(sys.argv[1])
for p in problems[:20]:
    print("span schema:", p)
print(f"span schema: {len(problems)} problem(s)")
sys.exit(1 if problems else 0)
PY
}

check_health() {
  echo "== health smoke (200-node run -> analytics -> SLO report) =="
  with_timeout 120 $PY -m repro obs run -n 200 --duration 120 --seed 1 \
    --spans "$dir/spans.jsonl" --metrics "$dir/metrics.json" || status=1
  $PY -m repro obs analyze "$dir/spans.jsonl" --metrics "$dir/metrics.json" || status=1
  $PY -m repro obs report "$dir/spans.jsonl" \
    --metrics "$dir/metrics.json" --out "$dir/report.md" || status=1
  grep -q 'Status: HEALTHY' "$dir/report.md" || {
    echo "health smoke: report is not HEALTHY"; status=1; }
  echo "== committed health trajectory (BENCH_health.json is what this tree computes) =="
  with_timeout 300 $PY scripts/bench_trajectory.py --check || status=1
}

check_live() {
  echo "== wire codec (golden bytes, hostile corpus, one check per pointer list) =="
  $PY -m pytest tests/kernel -q || status=1
  echo "== live smoke (localhost UDP swarm -> merged exports -> SLO judge) =="
  with_timeout 300 $PY -m repro live swarm -n 6 --duration 15 --out "$dir" || status=1
  $PY -m repro obs health "$dir/spans.jsonl" --metrics "$dir/metrics.json" || status=1
}

check_watch() {
  echo "== watch smoke (200-node run -> telemetry frames -> verdict agreement) =="
  with_timeout 120 $PY -m repro obs run -n 200 --duration 120 --seed 1 \
    --spans "$dir/spans.jsonl" --metrics "$dir/metrics.json" \
    --snapshot-jsonl "$dir/frames.jsonl" || status=1
  $PY -m repro obs health "$dir/spans.jsonl" --metrics "$dir/metrics.json"
  health_status=$?
  $PY - "$dir/frames.jsonl" "$health_status" <<'PY' || status=1
import sys
from repro.obs.stream import load_frames_file

frames, version, skipped = load_frames_file(sys.argv[1])
health_exit = int(sys.argv[2])
problems = []
if skipped:
    problems.append(f"{skipped} malformed frame line(s)")
if not frames:
    problems.append("no frames")
required = ("window", "t0", "t1", "final", "taps", "spans", "span_counts",
            "status_counts", "counters", "mcast", "join", "probe",
            "obituaries", "signals", "breaches", "verdicts", "healthy",
            "state")
for frame in frames:
    missing = [key for key in required if key not in frame]
    if missing:
        problems.append(f"frame {frame.get('window')}: missing {missing}")
finals = [frame for frame in frames if frame.get("final")]
if len(finals) != 1:
    problems.append(f"{len(finals)} final frames (want exactly 1)")
elif finals[0] is not frames[-1]:
    problems.append("final frame is not the last frame")
elif not finals[0]["verdicts"]:
    problems.append("final frame has no verdicts")
elif bool(finals[0]["healthy"]) != (health_exit == 0):
    problems.append(
        f"final frame healthy={finals[0]['healthy']} but "
        f"`repro obs health` exited {health_exit}"
    )
for p in problems[:20]:
    print("watch smoke:", p)
print(f"watch smoke: {len(frames)} frame(s), {len(problems)} problem(s)")
sys.exit(1 if problems else 0)
PY
}

check_compare() {
  echo "== compare smoke (all six contestants, n=40 x 120 sim-s, twice -> scorecard schema, six rows, same bytes) =="
  for run in 1 2; do
    with_timeout 300 $PY -m repro compare \
      -n 40 --duration 120 --window 30 --seed 0 \
      --json "$dir/scorecard$run.json" >/dev/null || status=1
  done
  cmp "$dir/scorecard1.json" "$dir/scorecard2.json" || {
    echo "compare smoke: two runs of one seed wrote different scorecards"; status=1; }
  $PY - "$dir/scorecard1.json" <<'PY' || status=1
import json, sys
from repro.compare import contestant_names

doc = json.load(open(sys.argv[1]))
problems = []
if doc.get("schema") != "repro.compare":
    problems.append(f"schema={doc.get('schema')!r} (want 'repro.compare')")
if doc.get("schema_version") != 1:
    problems.append(f"schema_version={doc.get('schema_version')!r} (want 1)")
rows = doc.get("rows", [])
if not rows:
    problems.append("no rows")
required = ("contestant", "seed", "live_final", "bits_total",
            "bandwidth_bps_per_node", "error_rate", "completeness",
            "windows", "window_breaches", "final_breaches", "healthy")
for row in rows:
    missing = [key for key in required if key not in row]
    if missing:
        problems.append(f"row {row.get('contestant')}: missing {missing}")
names = sorted(row.get("contestant") for row in rows)
if len(names) != 6 or names != sorted(contestant_names()):
    problems.append(f"rows for {names} (want one each of {sorted(contestant_names())})")
if not isinstance(doc.get("champion_healthy"), bool):
    problems.append("champion_healthy is not a bool")
if not doc.get("aggregates"):
    problems.append("no aggregates")
for p in problems[:20]:
    print("compare smoke:", p)
print(f"compare smoke: {len(rows)} row(s), {len(problems)} problem(s)")
sys.exit(1 if problems else 0)
PY
  echo "== committed tournament scorecard (BENCH_baselines.json, and BENCH_health.json, are what this tree computes) =="
  with_timeout 300 $PY scripts/bench_trajectory.py --baselines --check || status=1
}

check_ledger() {
  echo "== ledger smoke (traced --quick pass: trace points, output checks, fingerprint) =="
  for workload in detailed_churn detailed_ring scalable_paper; do
    with_timeout 120 python3 benchmarks/ledger/run.py --workload "$workload" \
      --seed 0 --seconds 1 --quick --trace 1 >/dev/null || status=1
  done
}

check_scale() {
  echo "== scale (10^4 nodes seeded at levels 3/4/4/5, 60 sim-s: no false detection, error 0, < 550 MB) =="
  with_timeout 600 $PY - <<'PY' || status=1
import gc, resource, sys, time
from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel

# ~1.5x the 364 MB this run peaked at while peer-list rows had an address
# column (456 MB while the top-node lists held Pointers, NodeContext had an
# instance dict and every node spawned its generator up front); it peaks at
# 269 MB with 21-byte rows.
n, levels, limit_mb = 10_000, (3, 4, 4, 5), 550
net = PeerWindowNetwork(config=ProtocolConfig(level_check_interval=1e6),
                        topology=PairwiseLatencyModel(), master_seed=0)
started = time.perf_counter()
net.seed_nodes([{"threshold_bps": 1e9, "level": levels[i % len(levels)]}
                for i in range(n)])
build_s = time.perf_counter() - started
passes = [0, 0, 0]  # young, middle, full collector passes of the timed run


def count_pass(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1


gc.callbacks.append(count_pass)
first = net.sim.events_executed
started = time.perf_counter()
net.run(until=60.0)
run_s = time.perf_counter() - started
gc.callbacks.remove(count_pass)
events = net.sim.events_executed - first
live = net.live_nodes()
rows = sum(len(node.peer_list) for node in live)
failures = sum(node.stats.failures_detected + node.stats.reports_failed for node in live)
probes = sum(node.stats.probes_sent for node in live)
error = net.mean_error_rate()
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
gc.collect()
started = time.perf_counter()
gc.collect()
pass_ms = (time.perf_counter() - started) * 1e3
tracked = len(gc.get_objects()) / n
print(f"scale: {len(live)} nodes, {rows} peer-list rows, build {build_s:.1f} s, "
      f"60 sim-s in {run_s:.1f} s ({probes} probes), {failures} failure detection(s), "
      f"mean error {error}, peak RSS {rss_mb:.0f} MB")
print(f"scale: {tracked:.1f} tracked objects per node, one full collector pass "
      f"{pass_ms:.0f} ms (unjudged)")
print(f"scale: collector passes in the {run_s:.1f} s run: {passes[0]} young, "
      f"{passes[1]} middle, {passes[2]} full; {events} events, "
      f"{run_s * 1e6 / events:.1f} host-us per event (unjudged)")
problems = []
if len(live) != n or probes < n:
    problems.append(f"{len(live)} live nodes sent {probes} probes (want {n} and >= {n})")
if failures:
    problems.append(f"{failures} failure detection(s) in a churn-free ring")
if error != 0:
    problems.append(f"mean_error_rate() = {error} (want 0)")
if rss_mb >= limit_mb:
    problems.append(f"peak RSS {rss_mb:.0f} MB >= {limit_mb} MB")
for p in problems:
    print("scale:", p)
sys.exit(1 if problems else 0)
PY
  echo "== scale (10^4 nodes at the paper's level mix, 30 sim-s: no false detection, error 0, < 2350 MB) =="
  with_timeout 900 $PY - <<'PY' || status=1
import gc, resource, sys, time
from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.experiments.predict import predict_level_distribution
from repro.net.latency import PairwiseLatencyModel

# The levels section 2's cost model predicts at 10^4 nodes: 88 % at level
# 0, each holding a row for nearly everyone, 9.1e7 rows in all.  ~1.2x
# the 1,952 MB this run peaks at with 21-byte rows (3,074 MB with 37-byte
# rows that kept an address column).
n, limit_mb = 10_000, 2350
shares = predict_level_distribution(n)
counts = {level: int(share * n) for level, share in shares.items()}
by_remainder = sorted(shares, key=lambda level: (counts[level] - shares[level] * n, level))
for level in by_remainder[: n - sum(counts.values())]:
    counts[level] += 1  # largest remainder: the counts sum to n
levels = [level for level in sorted(counts) for _ in range(counts[level])]
net = PeerWindowNetwork(config=ProtocolConfig(level_check_interval=1e6),
                        topology=PairwiseLatencyModel(), master_seed=0)
started = time.perf_counter()
net.seed_nodes([{"threshold_bps": 1e9, "level": level} for level in levels])
build_s = time.perf_counter() - started
passes = [0, 0, 0]  # young, middle, full collector passes of the timed run


def count_pass(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1


gc.callbacks.append(count_pass)
started = time.perf_counter()
net.run(until=30.0)
run_s = time.perf_counter() - started
gc.callbacks.remove(count_pass)
live = net.live_nodes()
rows = sum(len(node.peer_list) for node in live)
failures = sum(node.stats.failures_detected + node.stats.reports_failed for node in live)
error = net.mean_error_rate()
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(f"scale: levels {dict(sorted(counts.items()))}: {rows} peer-list rows "
      f"({rows / n:.0f} per node), build {build_s:.1f} s, 30 sim-s in {run_s:.1f} s, "
      f"{failures} failure detection(s), mean error {error}")
print(f"scale: peak RSS {rss_mb:.0f} MB, {rss_mb * 2**20 / rows:.1f} bytes per peer-list row "
      "for the whole process")
print(f"scale: collector passes in the {run_s:.1f} s run: {passes[0]} young, "
      f"{passes[1]} middle, {passes[2]} full (unjudged)")
problems = []
if len(live) != n:
    problems.append(f"{len(live)} live nodes (want {n})")
if failures:
    problems.append(f"{failures} failure detection(s) in a churn-free run")
if error != 0:
    problems.append(f"mean_error_rate() = {error} (want 0)")
if rss_mb >= limit_mb:
    problems.append(f"peak RSS {rss_mb:.0f} MB >= {limit_mb} MB")
for p in problems:
    print("scale:", p)
sys.exit(1 if problems else 0)
PY
  echo "== scale (scalable engine: 10^6 nodes seeded, <= 4 pending entries, < 700 MB; one tree sample timed) =="
  seeding 1000000 700 || status=1
  echo "== scale (scalable engine: 10^6 nodes x lifetime_rate 0.01, 60 + 180 sim-s; unjudged: events, host-s, host-us per event, peak RSS, collector passes and host-s, pending entries, tree-sample host-s) =="
  with_timeout 1800 $PY - <<'PY' || status=1
import gc, resource, time
from repro.experiments.scalable import ScalableParams, ScalableSim

# The short-session corner of the stability frontier, printed for the eye:
# nothing here is judged but that the run completes.
sim = ScalableSim(ScalableParams(n_target=1_000_000, lifetime_rate=0.01,
                                 warmup_s=60.0, duration_s=180.0))
started = time.perf_counter()
sim.seed_population()
seed_s = time.perf_counter() - started
passes, gc_s, began = [0, 0, 0], [0.0], [0.0]  # of the run, not the seeding


def count_pass(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1
        began[0] = time.perf_counter()
    else:
        gc_s[0] += time.perf_counter() - began[0]


sample_tree, tree_s = sim._sample_tree, [0.0, 0]


def timed_sample():
    began = time.perf_counter()
    audience = sample_tree()
    tree_s[0] += time.perf_counter() - began
    tree_s[1] += 1
    return audience


sim._sample_tree = timed_sample  # the tick looks it up on the instance
gc.callbacks.append(count_pass)
started = time.perf_counter()
res = sim.run()
host_s = time.perf_counter() - started
gc.callbacks.remove(count_pass)
events = sim.sim.events_executed
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(f"scale: 10^6 x rate 0.01: seeded in {seed_s:.1f} host-s, then {events:,} events "
      f"in {host_s:.1f} host-s ({host_s / events * 1e6:.1f} host-us per event), "
      f"peak RSS {rss_mb:.0f} MB, mean error rate {res.mean_error_rate:.4f}")
print(f"scale: 10^6 x rate 0.01: collector passes {passes[0]} young, {passes[1]} middle, "
      f"{passes[2]} full, {gc_s[0]:.1f} host-s ({gc_s[0] / host_s:.0%} of the run; unjudged)")
print(f"scale: 10^6 x rate 0.01: {len(sim.sim):,} pending entries at the end; {tree_s[1]} tree "
      f"samples in {tree_s[0]:.1f} host-s ({tree_s[0] / host_s:.0%} of the run; unjudged)")
PY
  echo "== scale (six-contestant tournament, n=1,000 x 130 sim-s, one contestant at a time: champion healthy, < 1000 MB) =="
  with_timeout 900 $PY - <<'PY' || status=1
import gc, resource, sys, time
from dataclasses import replace
from repro.compare import TournamentConfig, contestant_names, run_tournament
from repro.compare.contestants import CHAMPION

limit_mb = 1000  # ~1.6x the 613 MB explicit-probe's 4.4 M store rows peak at
cfg = TournamentConfig(contestants=tuple(contestant_names()), n_nodes=1000,
                       duration=130.0, window=30.0, seeds=(0,))
# Every contestant owns its network, so a tournament of one gives the
# row the full tournament would, and a host time that is its own.
# Timings and collector passes are printed for the eye, never judged.
# The process's running peak RSS is printed beside each span count:
# explicit-probe's spans are what a span store that kept one object per
# span would blow up.
passes, gc_s, began = [0, 0, 0], [0.0], [0.0]


def count_pass(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1
        began[0] = time.perf_counter()
    else:
        gc_s[0] += time.perf_counter() - began[0]


gc.callbacks.append(count_pass)
rows = []
for name in cfg.contestants:
    passes[:], gc_s[0] = [0, 0, 0], 0.0
    started = time.perf_counter()
    (row,) = run_tournament(replace(cfg, contestants=(name,)))["rows"]
    host_s = time.perf_counter() - started
    rows.append(row)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"scale: {name:<17} {host_s:6.1f} host-s  {row['spans_total']:>9,} spans  "
          f"peak RSS {rss_mb:5.0f} MB  error {row['error_rate']:.4f}  "
          f"{row['bandwidth_bps_per_node']:>9.1f} bps/node  healthy={row['healthy']}")
    print(f"scale: {name:<17} collector passes {passes[0]} young, {passes[1]} middle, "
          f"{passes[2]} full, {gc_s[0]:.1f} s (unjudged)")
gc.callbacks.remove(count_pass)
problems = []
if not all(row["healthy"] for row in rows if row["contestant"] == CHAMPION):
    problems.append(f"champion {CHAMPION} breached its health bands")
if rss_mb >= limit_mb:
    problems.append(f"peak RSS {rss_mb:.0f} MB >= {limit_mb} MB")
for p in problems:
    print("scale:", p)
sys.exit(1 if problems else 0)
PY
}

for section in $selected; do
  case " $NEEDS_NUMPY " in
    *" $section "*)
      [ "$have_numpy" = 1 ] || {
        echo "== numpy not installed; skipping $section smoke =="; continue; } ;;
  esac
  dir="$tmp/$section"
  mkdir -p "$dir"
  "check_$section"
done

exit $status
