#!/usr/bin/env python3
"""The guard × bug matrix (DESIGN.md §13): plant each bug class in a scratch
copy of the tree, run every guard against it, and print which guards catch
it and how fast, as a markdown table.

    python scripts/guard_matrix.py [--live] [PLANT ...]

A plant is one anchored replacement (``old`` occurs once in ``path``, which
tier-1 checks).  A guard catches a plant when it fails under each of
``PYTHONHASHSEED`` 0, 1 and 2; the time shown is its seed-0 wall time to stop
(pytest runs ``-x``); plants are judged one per core.  ``--live`` proves each site live instead: a ``raise``
at the plant's line, inside the same guards, must fail tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
LIVE_MARK = "guard-matrix live site"


class Plant(NamedTuple):
    id: str
    cls: str  # the bug class: a rule or DetSan component, a ROADMAP 3(a) class, or a cost
    path: str
    old: str
    new: str
    failure_path: bool  # on a timeout, crash or refusal path
    site: str = ""  # the line of ``old`` the --live raise precedes (default: the first)


CORE, BASE = "src/repro/core/", "src/repro/baselines/"
FAIL, DISS, JOIN = CORE + "failure.py", CORE + "dissemination.py", CORE + "join.py"
PEER = "        peer = peers[int(ctx.rng.integers(0, len(peers)))]\n"
RECOVERY = "            unconfirmed = [\n                ctx.peer_list.get({})\n"
PROBE_MSG = '        msg = Message(\n            ctx.address,\n            address,\n            "probe",\n'
ACK = '            self.runtime.send(\n                msg.make_reply(\n                    "report-ack",\n'
SELF_ROW = ("        return Pointer(\n            node_id=self.node_id,\n            address=self"
            ".address,\n            level=self.level,\n            attached_info=self.attached_"
            "info,\n            last_refresh=self.runtime.now,\n            last_event_seq=")
P = Plant
PLANTS = [
    P("det001-crash-lifetime", "DET001 / wall-clock", FAIL,
      "        if departed is not None:\n            ctx.estimator.observe_departure(departed, self.runtime.now)\n",
      "        if departed is not None:\n            import time\n"
      "            ctx.estimator.observe_departure(departed, time.monotonic())\n", True,
      site="observe_departure"),
    P("det001-download-grace-clock", "DET001 / wall-clock", JOIN,
      "            ctx.recent_downloads.append((msg.src, self.runtime.now))\n", "            import "
      "time\n            ctx.recent_downloads.append((msg.src, time.monotonic()))\n", False),
    P("det002-fallback-global-rng", "DET002 / global-rng", DISS, PEER, "        import numpy "
      "as np\n        peer = peers[int(np.random.randint(0, len(peers)))]\n", True),
    P("det002-gossip-unseeded-draw", "DET002 / global-rng", BASE + "gossip.py",
      "        idx = member.rng.choice(len(pool), size=count, replace=False)\n",
      "        import numpy as np\n        idx = np.random.default_rng()"
      ".choice(len(pool), size=count, replace=False)\n", False),
    P("det003-bridge-propagation-set", "DET003 / set iterated unsorted", DISS,
      "            for peer in ctx.peer_list.group_members():\n"
      "                if peer.node_id.value == ctx.node_id.value:\n",
      "            members = {p.node_id.value: p for p in ctx.peer_list.group_members()}\n"
      "            for value in set(members):\n                peer = members[value]\n"
      "                if peer.node_id.value == ctx.node_id.value:\n", False),
    P("det003-recovery-verify-set", "DET003 / set iterated unsorted", JOIN,
      RECOVERY.format("p.node_id") + "                for value, p in cached.items()\n"
      "                if value not in downloaded and value != ctx.node_id.value\n",
      RECOVERY.format("cached[value].node_id") + "                for value in "
      "set(cached) - downloaded\n                if value != ctx.node_id.value\n", True),
    P("det004-error-rate-set-sum", "DET004", CORE + "protocol.py",
      "        return float(np.mean([self.node_error_rate(n, live_ids) for n in live]))\n",
      "        return sum(self.node_error_rate(n, live_ids) for n in set(live)) / len(live)\n",
      False),
    P("det004-baseline-error-set-sum", "DET004", BASE + "runtime.py",
      "        vals = [measure(self.nodes[k], correct) for k in live]\n"
      "        return float(np.mean(vals)) if vals else empty\n",
      "        vals = [measure(self.nodes[k], correct) for k in live]\n        return sum("
      "measure(self.nodes[k], correct) for k in set(live)) / len(live) if vals else empty\n",
      False),
    P("iso002-timeout-oracle-read", "ISO002", FAIL,
      "        self._probe_timed_out(span)\n        self._probe_miss(target, attempts_left - 1, span)\n",
      "        self._probe_timed_out(span)\n        peer = self.runtime.transport._endpoints"
      ".get(target.address)\n        if peer is not None and peer.handler.__self__.ctx.alive:\n"
      "            attempts_left += 1\n        self._probe_miss(target, attempts_left - 1, span)\n",
      True),
    P("iso002-fallback-reads-peer-tops", "ISO002", DISS, PEER,
      PEER + "        ep = self.runtime.transport._endpoints.get(peer.address)\n        if ep is not None:\n"
      "            ctx.top_list.merge(ep.handler.__self__.ctx.top_list.pointers())\n", True),
    P("iso003-shared-obituary-seq", "ISO003", CORE + "events.py",
      "    return min(last_event_seq + 1, MAX_SEQ)\n\n\ndef apply_event(\n",
      "    _ISSUED.append(min(max([last_event_seq, *_ISSUED[-1:]]) + 1, MAX_SEQ))\n"
      "    return _ISSUED[-1]\n\n\n_ISSUED = []\n\n\ndef apply_event(\n", True),
    P("iso003-shared-audience-memo", "ISO003", CORE + "audience.py",
      "    return covers(owner_id, owner_level, other_id)\n",
      "    key = (owner_id.value, other_id.value)\n    if key not in _MEMO:\n        _MEMO[key] = "
      "covers(owner_id, owner_level, other_id)\n    return _MEMO[key]\n\n\n_MEMO = {}\n", False),
    P("obs001-probe-timeout-end", "OBS001 / dropped end()", FAIL,
      '            obs.end(span, self.runtime.now, "timeout")\n', "            pass\n", True),
    P("obs001-gossip-duplicate-end", "OBS001 / dropped end()", BASE + "gossip.py",
      '                member.obs.end(span, now, status="duplicate")\n', "                pass\n",
      True),
    P("obs002-probe-timeout-literal", "OBS002", FAIL, "        obs.registry.inc(m.PROBE_TIMEOUTS)\n",
      '        obs.registry.inc("probe.timeout")\n', True),
    P("obs002-redirect-literal", "OBS002", DISS, "        obs.registry.inc(m.MCAST_REDIRECTS)\n",
      '        obs.registry.inc("mcast.redirect")\n', True),
    P("wire001-probe-payload", "WIRE001", FAIL, PROBE_MSG, PROBE_MSG + "            payload=address,\n", True),
    P("wire001-stale-top-ack-shape", "WIRE001", DISS,
      ACK + "                    payload=piggyback,\n                    size_bits=max(",
      ACK + "                    payload=(piggyback,),\n                    size_bits=max(", True),
    P("wire001-bridge-ack-payload", "WIRE001", DISS, '        self.runtime.send(msg.make_reply('
      '"bridge-ack", size_bits=ctx.config.ack_bits))\n', '        self.runtime.send(msg.make_reply('
      '"bridge-ack", payload=ptr, size_bits=ctx.config.ack_bits))\n', False),
    P("held-bridge-subscriber", "held-object / on_bridge_subscribe keeps a pointer", DISS,
      "        subscribers.merge([ptr])\n", "        subscribers.merge([ptr])\n        self.subscriber = ptr\n",
      False),
    P("held-verify-ack-message", "held-object / shared Pointer or Message", FAIL,
      "        self._probe_acked(span, start)\n\n    def _on_verify_timeout(\n",
      "        self._probe_acked(span, start)\n        self.last_reply = _reply\n\n    def _on_verify_timeout(\n",
      True),
    P("stale-top-relay-marks-seen", "stale-top relay black-holes a subtree", DISS,
      "                ctx.relayed_reports[subject_value] = event.seq\n",
      "                ctx.seen_events[subject_value] = event.seq\n", True),
    P("download-without-grace", "stale download without download_grace", JOIN,
      "        if ctx.config.download_grace > 0:\n", "        if ctx.config.download_grace < 0:\n",
      False),
    P("retry-removal-no-obituary", "retry removal without an obituary", DISS,
      '                via="mcast-retry",\n            )\n        ctx.report_event(\n',
      '                via="mcast-retry",\n            )\n        return\n'
      "        ctx.report_event(\n", True, site="ctx.report_event("),
    P("item1-self-row-seq", "item 1's seq", CORE + "context.py",
      SELF_ROW + "self.seq,\n", SELF_ROW + "0,\n", True),
    P("heap-tie-rearm-keeps-seq", "reordered heap tie", "src/repro/sim/engine.py",
      "        self.seq = seq = sim._seq\n        sim._seq = seq + 1\n        live[seq] = self\n",
      "        seq = self.seq\n        live[seq] = self\n", False),
    P("cost-hop-helper", "calls / a helper back on the hop", "src/repro/net/transport.py",
      "        ep = self._endpoints.get(dst)\n",
      "        ep = self.endpoint(dst) if dst in self._endpoints else None\n", False),
    P("cost-join-row-objects", "passes / an object per downloaded row", JOIN,
      "        downloaded = set()\n        for p in pointers:\n",
      "        downloaded = set()\n        rows = [[p] for p in pointers]\n        for (p,) in rows:\n",
      False),
    P("cost-broadcast-second-sort", "calls / a second sort per broadcast",
      "src/repro/experiments/scalable.py", "    order = ids.argsort()\n    sorted_ids = ids[order]\n",
      "    order = ids.argsort()\n    order = order[ids[order].argsort(kind=\"stable\")]\n"
      "    sorted_ids = ids[order]\n", False),
    P("policy-level-floor", "the §2 stationary level rounds down", CORE + "analytic.py",
      "    return min(math.ceil(math.log2(cost0 / threshold)), max_level)\n",
      "    return min(math.floor(math.log2(cost0 / threshold)), max_level)\n", False),
]

T = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
#: name -> the commands it runs, in order (the guard fails if one does).
GUARDS: Dict[str, List[List[str]]] = {
    "detlint": [["-m", "repro", "lint", "src/repro"]],
    "DetSan": [["-m", "repro", "chaos", "--scenario", "crash_churn", "--detsan", "--seed", "0"],
               T + ["tests/analysis/test_detsan.py"]],
    "seq≡par": [T + ["tests/integration/test_parallel_equivalence.py", "tests/sim/test_parallel.py"]],
    "InvMon": [T + ["tests/chaos"]],
    "fuzz": [T + ["tests/integration/test_stateful_fuzz.py"]],
    "model": [T + [f"tests/{m}_model.py" for m in ("sim/test_engine", "core/test_peerlist",
                                                   "core/test_topnodes")]],
    "golden": [T + ["tests/baselines/test_tick_batching.py", "tests/obs/test_dashboard.py",
                    "tests/experiments/test_scalable.py", "tests/kernel/test_codec.py",
                    "tests/test_cli_surface.py", "tests/integration/test_obs_determinism.py",
                    "tests/integration/test_stream_determinism.py"]],
    "bench": [T + ["tests/integration/test_committed_bench.py"]],
    "live": [T + ["tests/live"]],
    "costs": [T + ["tests", "-m", "costs"]],  # every row of tests/test_costs.py, once
}
_NAMED = [a for runs in GUARDS.values() for argv in runs for a in argv if a[:6] == "tests/"]
GUARDS["tier-1 rest"] = [T + ["tests", "-m", "not costs"] + [f"--ignore={p}" for p in _NAMED + [
    "tests/analysis", "tests/test_guard_matrix.py"]]]  # the last one fails on any plant
#: What the two split guards name in their output: detlint's rules, DetSan's components.
_NAMES = {"detlint": re.compile(r": ([A-Z]+[0-9]{3}): "),
          "DetSan": re.compile(r"\[(held-object|wall-clock|global-rng)\]"
                               r"|check='(held-object|wall-clock|global-rng)'")}


def plant(tree: str, p: Plant, live: bool) -> None:
    path = os.path.join(tree, p.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(p.old) != 1:
        raise SystemExit(f"{p.id}: anchor occurs {text.count(p.old)} times in {p.path}")
    new = p.new
    if live:
        lines = p.old.splitlines(keepends=True)
        at = next((i for i, line in enumerate(lines) if p.site and p.site in line), 0)
        indent = lines[at][: len(lines[at]) - len(lines[at].lstrip())]
        new = "".join(lines[:at] + [f"{indent}raise RuntimeError({LIVE_MARK!r})\n"] + lines[at:])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(p.old, new))


def run(tree: str, argvs: List[List[str]], seed: int) -> tuple:
    """``(failed, seconds, output)`` of ``argvs`` run in ``tree`` under one hash seed."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONHASHSEED": str(seed)}
    started, out = time.monotonic(), ""
    for argv in argvs:
        proc = subprocess.run([sys.executable] + argv, cwd=tree, env=env,
                              capture_output=True, text=True)
        out += proc.stdout + proc.stderr
        if proc.returncode not in (0, 5):  # 5: pytest collected nothing
            return True, round(time.monotonic() - started, 1), out
    return False, round(time.monotonic() - started, 1), out


def judge(p: Plant, live: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="guard-matrix-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        plant(tree, p, live)
        if live:  # tier-1 less the three tests that read the source instead of running it
            failed, secs, out = run(tree, [T + ["tests", "--ignore=tests/test_guard_matrix.py"] + [
                f"--ignore=tests/analysis/test_{n}.py" for n in ("meta", "rules_wire")]], 0)
            return {"id": p.id, "live": failed and LIVE_MARK in out, "seconds": secs}
        cells = {}
        for guard, argvs in GUARDS.items():
            failed, secs, out = run(tree, argvs, 0)
            if failed and all(run(tree, argvs, seed)[0] for seed in (1, 2)):
                pattern = _NAMES.get(guard)
                named = {m.group(m.lastindex) for m in pattern.finditer(out)} if pattern else ()
                cells[guard] = f"{','.join(sorted(named))} {secs:g}s".strip()
        return {"plant": p, "cells": cells}


def table(rows: List[dict]) -> str:
    out = [" | ".join(["| plant", "class", "fail path", *GUARDS, "unique |"]),
           "|---" * (len(GUARDS) + 4) + "|"]
    for row in rows:
        p, cells = row["plant"], row["cells"]
        unique = "**none**" if not cells else next(iter(cells)) if len(cells) == 1 else ""
        out.append(" | ".join([f"| `{p.id}`", p.cls, "yes" if p.failure_path else "",
                               *(cells.get(g, "·") for g in GUARDS), f"{unique} |"]))
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("plants", nargs="*", help="plant ids (default: all)")
    ap.add_argument("--live", action="store_true", help="prove each site live instead")
    args = ap.parse_args(argv)
    chosen = [p for p in PLANTS if not args.plants or p.id in args.plants]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        rows = list(pool.map(lambda p: judge(p, args.live), chosen))
    if not args.live:
        print(table(rows))
        return 0
    for row in rows:
        print(f"{row['id']}: {'live' if row['live'] else 'NOT LIVE'} ({row['seconds']}s)")
    return 0 if all(row["live"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
