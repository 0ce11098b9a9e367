#!/usr/bin/env python3
"""The reach map (DESIGN.md §6): the ``src/repro`` functions that no committed
artifact, ``scripts/check.sh`` cell or CLI command reaches.

    python scripts/reach_map.py

Every source runs with the ``sitecustomize.py`` hook below first on
``PYTHONPATH``, so the processes it starts are hooked too.  The union of the
(file, first line) keys of the code objects they called is diffed against an
``ast`` walk of ``src/repro``.  Exits 1 if a source failed.
"""

import ast
import functools
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
HOOK = '''import atexit, os, sys, threading
_out, _seen = os.environ.get("REACH_MAP_OUT"), set()
def _call(frame, event, arg):  # returns None: no line events
    _seen.add(frame.f_code)
def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, "%d.keys" % os.getpid()), "a") as fh:
        fh.writelines({"%s\\t%d\\n" % (c.co_filename, c.co_firstlineno) for c in list(_seen)})
if _out:
    sys.settrace(_call)
    threading.settrace(_call)
    atexit.register(_dump)
'''
#: Every leaf subcommand, small, and every option that selects a code path.
CLI = """\
obs run -n 30 --duration 60 --spans {d}/s.jsonl --metrics {d}/m.json --snapshot-jsonl {d}/f.jsonl \
    --chrome {d}/chrome.json --metrics-csv {d}/m.csv --csv {d}/t.csv; obs trees {d}/s.jsonl
obs run -n 30 --duration 60 --parallel 2 --watch; obs health {d}/s.jsonl --spec {d}/spec.json
obs analyze {d}/s.jsonl --metrics {d}/m.json --json {d}/a.json; watch {d}/f.jsonl --plain
obs report {d}/s.jsonl --metrics {d}/m.json --spec {d}/spec.json --out {d}/r.md --json {d}/r.json
obs render {d}/f.jsonl --spans {d}/s.jsonl --out {d}/t.html; watch {d}/f.jsonl --follow --interval 0.1
common {s}; fig5 {s} --chart; fig6 {s}; fig7 {s}; fig8 {s}; fig9 {s} --scales 1000 2000 --chart
fig11 {s} --rates 1 10 --chart; predict -n 10000; baselines -n 10000; chaos --list; compare --list
chaos --scenario smoke --watch --spans {d}/c.jsonl --chrome {d}/cc.json --metrics {d}/c.json \
    --trace {d}/c.trace --snapshot-jsonl {d}/cf.jsonl --health {d}/spec.json; lint --rules --explain
chaos --byzantine eclipse --health default; lint src/repro/core --format json --report {d}/lint.json
compare -n 40 --duration 120 --window 30 --seeds 2 --parallel 2 --contestants peerwindow gossip \
    --watch --plain --frames-dir {d}/frames --out {d}/compare.md --json {d}/compare.json
live seed --port 47950 --duration 2 --settle 0.5 --out {d}/seed
live swarm -n 3 --duration 6 --base-port 47960 --out {d}/swarm --watch --health --compare-sim \
    --spec {d}/spec.json --csv {d}/fidelity.csv
"""


def functions(root: Path) -> dict:
    """(resolved path, first line counting decorators) -> (qualname, last line)
    of every def under ``root`` but a stub (a body of docstring, ``...``, ``pass``)."""
    found = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                if not all(isinstance(s, ast.Pass) or isinstance(s, ast.Expr)
                           and isinstance(s.value, ast.Constant) for s in child.body):
                    found[(path, first)] = (prefix + child.name, child.end_lineno)
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), "")
    return found


def reached(keys_dir: Path) -> set:
    """The union of every hooked process's (resolved path, first line) keys."""
    real = functools.lru_cache(maxsize=None)(os.path.realpath)
    rows = (line.rpartition("\t") for part in keys_dir.glob("*.keys") for line in part.open())
    return {(real(name), int(first)) for name, _, first in rows}


def run_hooked(cmd: list, keys_dir: Path, hook_dir: Path):
    """Run ``cmd`` with the hook first on ``PYTHONPATH``, keys into ``keys_dir``."""
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    path = [str(hook_dir), str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), REACH_MAP_OUT=str(keys_dir))
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def sources(d: str) -> list:
    """BENCH checks, check.sh cells (not paper: its pytest counts test-only reach), CLI."""
    bench = [[sys.executable, "scripts/bench_trajectory.py", *flags, "--check"]
             for flags in ([], ["--baselines"], ["--paper"])]
    names = re.search(r'^SECTIONS="([^"]*)"', (ROOT / "scripts/check.sh").read_text(), re.M).group(1)
    cells = [["bash", "scripts/check.sh", f"--{s}"] for s in names.split() if s not in ("lint", "tests", "paper")]
    Path(d, "spec.json").write_text('{"name": "reach", "slos": [{"name": "peerlist.error_rate", "hi": 1}]}')
    cli = CLI.format(d=d, s="-n 2000 --warmup 30 --duration 60").replace("\n", ";").split(";")
    return bench + cells + [[sys.executable, "-m", "repro"] + cmd.split() for cmd in cli if cmd.strip()]


def report(keys: set, min_lines: int = 10) -> int:
    """Print the totals and the table: each module holding an unreached function
    of >= ``min_lines`` lines, with the owner DESIGN.md names ("?" if none)."""
    defs = functions(SRC)
    dead = {key for key in defs if key not in keys}
    lines = lambda ks: len({(p, i) for p, first in ks for i in range(first, defs[(p, first)][1] + 1)})
    table = (ROOT / "DESIGN.md").read_text().partition("### Reach map")[2].partition("\n#")[0]
    owners = dict(re.findall(r"^\| `([\w/]+\.py)` \|.*\| ([^|]+) \|$", table, re.M))
    print(f"{len(defs):,} functions in src/repro, {len(defs) - len(dead):,} reached, "
          f"{len(dead):,} unreached ({lines(dead):,} lines)\n")
    print(f"| module | unreached functions of >= {min_lines} lines | lines | owner |\n|---|---|---|---|")
    unowned = 0
    for path in sorted({path for path, _ in defs}):
        mine = sorted(key for key in defs if key[0] == path)
        gone = [key for key in mine if key in dead]
        big = [f"`{defs[k][0]}` ({lines([k])})" for k in gone if lines([k]) >= min_lines]
        if big:
            module = os.path.relpath(path, SRC)
            unowned += (owner := owners.get(module, "?")) == "?"
            names = "whole module" if len(gone) == len(mine) else ", ".join(big)
            print(f"| `{module}` | {names} | {lines(gone)} | {owner} |")
    return unowned


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        keys_dir, hook_dir = Path(tmp, "keys"), Path(tmp, "hook")
        keys_dir.mkdir()
        hook_dir.mkdir()
        for cmd in sources(tmp):
            started = time.perf_counter()
            proc = run_hooked(cmd, keys_dir, hook_dir)
            failed += proc.returncode != 0
            elapsed = time.perf_counter() - started
            print(f"{'FAIL' if proc.returncode else 'ok'} {elapsed:5.1f} s {' '.join(cmd[1:])}", flush=True)
            if proc.returncode:
                print("\n".join(proc.stdout.splitlines()[-15:]))
        unowned = report(reached(keys_dir))
    print(f"\n{failed} source(s) failed; {unowned} row(s) with no owner")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
