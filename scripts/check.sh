#!/usr/bin/env bash
# Repo check: lint (if ruff is available) + mypy (if installed) + the
# detlint static analysis gate + the tier-1 test suite + a fast chaos
# smoke scenario (< 60 s, SLO-judged via --health default) + an
# observability smoke (200-node instrumented run whose span export must
# pass the schema validator) + a health smoke (200-node run -> span
# analytics -> `repro obs report` must come back HEALTHY) + a live smoke
# (small localhost UDP swarm -> merged span/metrics export -> `repro obs
# health` must exit 0 on the same default HealthSpec the sim is judged
# by) + a byzantine smoke (one eclipse + one forged-obituary adversarial
# scenario with the DESIGN §16 hardening enabled; both must come back
# HEALTHY under the byzantine SLO bands) + a watch smoke (200-node
# seeded run streaming telemetry frames to --snapshot-jsonl; every
# frame must satisfy the telemetry schema and the final frame's verdict
# must agree with `repro obs health` over the same run's exports) + a
# compare smoke (2-protocol 40-node seeded tournament via `repro
# compare`; must exit 0 and produce a schema-valid `repro.compare`
# scorecard JSON) + a ledger smoke (one --quick traced pass of the
# detailed_churn, detailed_ring and scalable_paper benchmark workloads:
# the tracer's trace points must still resolve under src/, the output
# checks must pass, and the traced run must end on the untraced run's
# fingerprint).
#
#   scripts/check.sh             # everything below
#   scripts/check.sh --lint      # ruff + mypy only
#   scripts/check.sh --analysis  # detlint gate (no NEW findings vs
#                                # detlint-baseline.json, JSON report
#                                # artifact) + DetSan chaos smoke
#   scripts/check.sh --tests     # tests only
#   scripts/check.sh --chaos     # chaos smoke only
#   scripts/check.sh --byzantine # byzantine smoke only
#   scripts/check.sh --obs       # obs smoke only
#   scripts/check.sh --health    # health smoke only
#   scripts/check.sh --live      # live swarm smoke only
#   scripts/check.sh --watch     # streaming telemetry smoke only
#   scripts/check.sh --compare   # tournament scorecard smoke only
#   scripts/check.sh --ledger    # benchmark ledger smoke only
set -u
cd "$(dirname "$0")/.."

run_lint=1
run_analysis=1
run_tests=1
run_chaos=1
run_byzantine=1
run_obs=1
run_health=1
run_live=1
run_watch=1
run_compare=1
run_ledger=1
case "${1:-}" in
  --lint) run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --analysis) run_lint=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --tests) run_lint=0; run_analysis=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --chaos) run_lint=0; run_analysis=0; run_tests=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --byzantine) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --obs) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_health=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --health) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_live=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --live) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_watch=0; run_compare=0; run_ledger=0 ;;
  --watch) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_compare=0; run_ledger=0 ;;
  --compare) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_ledger=0 ;;
  --ledger) run_lint=0; run_analysis=0; run_tests=0; run_chaos=0; run_byzantine=0; run_obs=0; run_health=0; run_live=0; run_watch=0; run_compare=0 ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--lint|--analysis|--tests|--chaos|--byzantine|--obs|--health|--live|--watch|--compare|--ledger]" >&2; exit 2 ;;
esac

status=0

if [ "$run_lint" = 1 ]; then
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
fi

if [ "$run_analysis" = 1 ]; then
  echo "== detlint (determinism & LP-isolation static analysis) =="
  analysis_dir="$(mktemp -d)"
  trap 'rm -rf "${analysis_dir:-}"' EXIT
  PYTHONPATH=src python -m repro lint src/repro \
    --baseline detlint-baseline.json \
    --format json --report "$analysis_dir/lint-report.json" || status=1
  PYTHONPATH=src python - "$analysis_dir/lint-report.json" <<'PY' || status=1
import json, sys
report = json.load(open(sys.argv[1]))
rules = report.get("checked_rules", [])
print(f"lint report: {len(report.get('findings', []))} finding(s), "
      f"{len(rules)} rule(s)")
sys.exit(0 if rules else 1)
PY
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== detsan smoke (crash_churn chaos under the runtime sanitizer) =="
    if command -v timeout >/dev/null 2>&1; then
      timeout 120 env PYTHONPATH=src python -m repro chaos \
        --scenario crash_churn --detsan --seed 0 || status=1
    else
      PYTHONPATH=src python -m repro chaos --scenario crash_churn \
        --detsan --seed 0 || status=1
    fi
  else
    echo "== numpy not installed; skipping detsan smoke =="
  fi
fi

if [ "$run_tests" = 1 ]; then
  echo "== tier-1 tests =="
  PYTHONPATH=src python -m pytest -x -q || status=1
fi

if [ "$run_chaos" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== chaos smoke (deterministic fault injection, SLO-judged) =="
    if command -v timeout >/dev/null 2>&1; then
      timeout 60 env PYTHONPATH=src python -m repro chaos --scenario smoke \
        --seed 0 --health default || status=1
    else
      PYTHONPATH=src python -m repro chaos --scenario smoke --seed 0 \
        --health default || status=1
    fi
  else
    echo "== numpy not installed; skipping chaos smoke =="
  fi
fi

if [ "$run_byzantine" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== byzantine smoke (adversarial scenarios, hardening on, SLO-judged) =="
    for scenario in eclipse forged-obituary; do
      if command -v timeout >/dev/null 2>&1; then
        timeout 120 env PYTHONPATH=src python -m repro chaos \
          --byzantine "$scenario" --seed 0 --health default || status=1
      else
        PYTHONPATH=src python -m repro chaos --byzantine "$scenario" \
          --seed 0 --health default || status=1
      fi
    done
  else
    echo "== numpy not installed; skipping byzantine smoke =="
  fi
fi

if [ "$run_obs" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== obs smoke (200-node instrumented run + span schema check) =="
    obs_dir="$(mktemp -d)"
    trap 'rm -rf "${analysis_dir:-}" "${obs_dir:-}" "${health_dir:-}"' EXIT
    if command -v timeout >/dev/null 2>&1; then
      timeout 120 env PYTHONPATH=src python -m repro obs run -n 200 --duration 120 \
        --spans "$obs_dir/spans.jsonl" || status=1
    else
      PYTHONPATH=src python -m repro obs run -n 200 --duration 120 \
        --spans "$obs_dir/spans.jsonl" || status=1
    fi
    PYTHONPATH=src python - "$obs_dir/spans.jsonl" <<'PY' || status=1
import sys
from repro.obs.export import validate_span_file
problems = validate_span_file(sys.argv[1])
for p in problems[:20]:
    print("span schema:", p)
print(f"span schema: {len(problems)} problem(s)")
sys.exit(1 if problems else 0)
PY
  else
    echo "== numpy not installed; skipping obs smoke =="
  fi
fi

if [ "$run_health" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== health smoke (200-node run -> analytics -> SLO report) =="
    health_dir="$(mktemp -d)"
    trap 'rm -rf "${analysis_dir:-}" "${obs_dir:-}" "${health_dir:-}"' EXIT
    if command -v timeout >/dev/null 2>&1; then
      timeout 120 env PYTHONPATH=src python -m repro obs run -n 200 --duration 120 \
        --seed 1 --spans "$health_dir/spans.jsonl" \
        --metrics "$health_dir/metrics.json" || status=1
    else
      PYTHONPATH=src python -m repro obs run -n 200 --duration 120 \
        --seed 1 --spans "$health_dir/spans.jsonl" \
        --metrics "$health_dir/metrics.json" || status=1
    fi
    PYTHONPATH=src python -m repro obs analyze "$health_dir/spans.jsonl" \
      --metrics "$health_dir/metrics.json" || status=1
    PYTHONPATH=src python -m repro obs report "$health_dir/spans.jsonl" \
      --metrics "$health_dir/metrics.json" \
      --out "$health_dir/report.md" || status=1
    grep -q 'Status: HEALTHY' "$health_dir/report.md" || {
      echo "health smoke: report is not HEALTHY"; status=1; }
  else
    echo "== numpy not installed; skipping health smoke =="
  fi
fi

if [ "$run_live" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== live smoke (localhost UDP swarm -> merged exports -> SLO judge) =="
    live_dir="$(mktemp -d)"
    trap 'rm -rf "${analysis_dir:-}" "${obs_dir:-}" "${health_dir:-}" "${live_dir:-}"' EXIT
    if command -v timeout >/dev/null 2>&1; then
      timeout 300 env PYTHONPATH=src python -m repro live swarm -n 6 \
        --duration 15 --out "$live_dir" || status=1
    else
      PYTHONPATH=src python -m repro live swarm -n 6 --duration 15 \
        --out "$live_dir" || status=1
    fi
    PYTHONPATH=src python -m repro obs health "$live_dir/spans.jsonl" \
      --metrics "$live_dir/metrics.json" || status=1
  else
    echo "== numpy not installed; skipping live smoke =="
  fi
fi

if [ "$run_watch" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== watch smoke (200-node run -> telemetry frames -> verdict agreement) =="
    watch_dir="$(mktemp -d)"
    trap 'rm -rf "${analysis_dir:-}" "${obs_dir:-}" "${health_dir:-}" "${live_dir:-}" "${watch_dir:-}"' EXIT
    if command -v timeout >/dev/null 2>&1; then
      timeout 120 env PYTHONPATH=src python -m repro obs run -n 200 --duration 120 \
        --seed 1 --spans "$watch_dir/spans.jsonl" \
        --metrics "$watch_dir/metrics.json" \
        --snapshot-jsonl "$watch_dir/frames.jsonl" || status=1
    else
      PYTHONPATH=src python -m repro obs run -n 200 --duration 120 \
        --seed 1 --spans "$watch_dir/spans.jsonl" \
        --metrics "$watch_dir/metrics.json" \
        --snapshot-jsonl "$watch_dir/frames.jsonl" || status=1
    fi
    PYTHONPATH=src python -m repro obs health "$watch_dir/spans.jsonl" \
      --metrics "$watch_dir/metrics.json"
    health_status=$?
    PYTHONPATH=src python - "$watch_dir/frames.jsonl" "$health_status" <<'PY' || status=1
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
  else
    echo "== numpy not installed; skipping watch smoke =="
  fi
fi

if [ "$run_compare" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== compare smoke (2-protocol seeded tournament -> scorecard) =="
    compare_dir="$(mktemp -d)"
    trap 'rm -rf "${analysis_dir:-}" "${obs_dir:-}" "${health_dir:-}" "${live_dir:-}" "${watch_dir:-}" "${compare_dir:-}"' EXIT
    if command -v timeout >/dev/null 2>&1; then
      timeout 300 env PYTHONPATH=src python -m repro compare \
        --contestants peerwindow gossip -n 40 --duration 120 \
        --window 30 --seed 0 --json "$compare_dir/scorecard.json" \
        >/dev/null || status=1
    else
      PYTHONPATH=src python -m repro compare \
        --contestants peerwindow gossip -n 40 --duration 120 \
        --window 30 --seed 0 --json "$compare_dir/scorecard.json" \
        >/dev/null || status=1
    fi
    PYTHONPATH=src python - "$compare_dir/scorecard.json" <<'PY' || status=1
import json, sys

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
names = sorted({row.get("contestant") for row in rows})
if names != ["gossip", "peerwindow"]:
    problems.append(f"contestants {names} (want gossip+peerwindow)")
if not isinstance(doc.get("champion_healthy"), bool):
    problems.append("champion_healthy is not a bool")
if not doc.get("aggregates"):
    problems.append("no aggregates")
for p in problems[:20]:
    print("compare smoke:", p)
print(f"compare smoke: {len(rows)} row(s), {len(problems)} problem(s)")
sys.exit(1 if problems else 0)
PY
  else
    echo "== numpy not installed; skipping compare smoke =="
  fi
fi

if [ "$run_ledger" = 1 ]; then
  if PYTHONPATH=src python -c "import numpy" >/dev/null 2>&1; then
    echo "== ledger smoke (traced --quick pass: trace points, output checks, fingerprint) =="
    for workload in detailed_churn detailed_ring scalable_paper; do
      if command -v timeout >/dev/null 2>&1; then
        timeout 120 python3 benchmarks/ledger/run.py --workload "$workload" \
          --seed 0 --seconds 1 --quick --trace 1 >/dev/null || status=1
      else
        python3 benchmarks/ledger/run.py --workload "$workload" \
          --seed 0 --seconds 1 --quick --trace 1 >/dev/null || status=1
      fi
    done
  else
    echo "== numpy not installed; skipping ledger smoke =="
  fi
fi

exit $status
