"""Terminal rendering of telemetry frames (``repro watch``).

The renderer is deliberately dumb: :func:`render_frame` is a pure
function from one frame dict to a text block, so tests diff strings and
the dashboard works identically whether frames arrive live from a
:class:`~repro.obs.stream.StreamWindower`, are tailed out of a
``--snapshot-jsonl`` file mid-run, or are replayed after the fact.
On a TTY the :class:`TerminalDashboard` repaints in place with plain
ANSI control sequences (no curses dependency); redirected output gets
one block per frame, newline-separated.

Nothing here reads a wall clock: :func:`watch_file` paces its tail loop
with ``time.sleep`` only, and rendering is driven entirely by the
frames' sim-clock timestamps, so the watcher cannot perturb or
misorder what it shows.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, TextIO

#: Width of the level-histogram bars.
_BAR_WIDTH = 30
_RULE = "-" * 72


def _bar(count: int, peak: int) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1, round(_BAR_WIDTH * count / peak)) if count else ""


def _fmt_rate(value: float) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def render_frame(frame: Dict[str, Any]) -> str:
    """One frame as a text block (pure; deterministic for a given frame)."""
    lines: List[str] = []
    kind = "final" if frame.get("final") else f"window {frame.get('window')}"
    lines.append(
        f"== PeerWindow telemetry · {kind} · "
        f"t {frame.get('t0', 0):.1f}..{frame.get('t1', 0):.1f} s =="
    )
    state = frame.get("state")
    if state:
        lines.append(
            f"nodes: {state.get('live_nodes', '?')} live · "
            f"peer-list error rate {state.get('mean_error_rate', 0):.4f}"
        )
        levels = state.get("levels") or {}
        if levels:
            counts = {int(k): int(v) for k, v in levels.items()}
            peak = max(counts.values())
            for level in sorted(counts):
                count = counts[level]
                lines.append(
                    f"  level {level:>2} |{_bar(count, peak):<{_BAR_WIDTH}}| {count}"
                )
    mcast = frame.get("mcast", {})
    join = frame.get("join", {})
    probe = frame.get("probe", {})
    lines.append(
        f"spans: {frame.get('spans', 0)} · mcast {mcast.get('spans', 0)} "
        f"(redirects {mcast.get('redirects', 0)}, depth<={mcast.get('max_depth', 0)}, "
        f"died {mcast.get('died', 0)}) · join {join.get('ok', 0)}/"
        f"{join.get('ok', 0) + join.get('failed', 0)} ok · "
        f"probe {probe.get('count', 0)} ({probe.get('timeouts', 0)} timeouts) · "
        f"obituaries {frame.get('obituaries', 0)}"
    )
    signals = frame.get("signals", {})
    if signals:
        parts = [f"{name}={_fmt_rate(signals[name])}" for name in sorted(signals)]
        lines.append("signals: " + " ".join(parts))
    breaches = frame.get("breaches", [])
    if breaches:
        for breach in breaches:
            lo = breach.get("lo")
            hi = breach.get("hi")
            band = (
                f"[{'-inf' if lo is None else format(lo, 'g')}, "
                f"{'inf' if hi is None else format(hi, 'g')}]"
            )
            lines.append(
                f"BREACH {breach.get('slo')}={breach.get('value', 0):.6g} band={band}"
            )
    else:
        lines.append("breaches: none")
    if frame.get("final"):
        lines.append(
            "verdict: HEALTHY" if frame.get("healthy") else "verdict: UNHEALTHY"
        )
    lines.append(_RULE)
    return "\n".join(lines)


def _span_label(span, root: bool = False) -> str:
    """Compact one-line label for a span in a tree view."""
    depth = span.attrs.get("depth") if span.attrs else None
    status = span.status if span.status is not None else "open"
    if root:
        kind = span.attrs.get("kind", "?") if span.attrs else "?"
        subject = span.attrs.get("subject", "?") if span.attrs else "?"
        return (
            f"{span.name} {kind} subject={subject} "
            f"root=n{span.node} t={span.start:.2f}s"
        )
    tag = f"n{span.node}"
    if depth is not None:
        tag += f" d{depth}"
    return f"{tag} {status}"


def render_span_tree(root, children_of, max_nodes: int = 48) -> str:
    """ASCII shape of one span tree (pure; deterministic).

    ``children_of`` maps span_id -> ordered child spans (the
    :class:`~repro.obs.analyze.TraceForest` ordering: by start time,
    ties by span id).  Rendering truncates at ``max_nodes`` spans with
    an explicit marker, so giant trees stay watchable.
    """
    lines = [_span_label(root, root=True)]
    budget = [max_nodes]

    def walk(span, prefix: str) -> None:
        kids = children_of(span.span_id)
        for i, kid in enumerate(kids):
            last = i == len(kids) - 1
            if budget[0] <= 0:
                lines.append(prefix + "└─ …")
                return
            budget[0] -= 1
            connector = "└─ " if last else "├─ "
            lines.append(prefix + connector + _span_label(kid))
            walk(kid, prefix + ("   " if last else "│  "))

    walk(root, "")
    return "\n".join(lines)


def render_mcast_trees(
    spans, limit: int = 3, max_nodes: int = 48
) -> str:
    """Reconstruct multicast trees from a span list and render the
    ``limit`` largest as ASCII shapes (ties broken by root span id, so
    the pick is deterministic)."""
    from repro.obs.analyze import TraceForest, forest_trees

    forest = TraceForest(spans)
    trees = forest_trees(forest)
    if not trees:
        return "no multicast trees in span stream"
    ranked = sorted(
        trees,
        key=lambda t: (-len(t.members), t.root.span_id),
    )[:limit]
    children_of = lambda span_id: forest.children.get(span_id, [])  # noqa: E731
    blocks = []
    for tree in ranked:
        header = (
            f"tree {tree.kind} · members={len(tree.members)} "
            f"delivered={tree.delivered} undelivered={tree.undelivered} "
            f"depth={tree.depth}"
        )
        blocks.append(
            header + "\n" + render_span_tree(
                tree.root, children_of, max_nodes=max_nodes
            )
        )
    return "\n\n".join(blocks)


#: Columns of the side-by-side comparison table: (header, getter).
_COMPARE_COLS = (
    ("nodes", lambda f: (f.get("state") or {}).get("live_nodes", "?")),
    ("error", lambda f: _fmt_rate(
        (f.get("state") or {}).get("mean_error_rate", 0.0))),
    ("spans", lambda f: f.get("spans", 0)),
    ("mcast", lambda f: f.get("mcast", {}).get("spans", 0)),
    ("join", lambda f: f.get("join", {}).get("ok", 0)),
    ("probe_to", lambda f: f.get("probe", {}).get("timeouts", 0)),
    ("breach", lambda f: len(f.get("breaches", ()))),
    (
        "verdict",
        lambda f: (
            ("HEALTHY" if f.get("healthy") else "UNHEALTHY")
            if f.get("final")
            else ("ok" if f.get("healthy", True) else "BREACH")
        ),
    ),
)


def render_comparison(
    frames_by_name: Dict[str, Dict[str, Any]],
    t: Optional[float] = None,
    seed: Optional[int] = None,
) -> str:
    """One aligned row per contestant from that contestant's freshest
    frame — the side-by-side view ``repro compare --watch`` repaints."""
    names = sorted(frames_by_name)
    when = (
        t
        if t is not None
        else max((frames_by_name[n].get("t1", 0.0) for n in names), default=0.0)
    )
    title = f"== protocol tournament · t {when:.1f} s"
    if seed is not None:
        title += f" · seed {seed}"
    lines = [title + " =="]
    headers = ["contestant"] + [h for h, _ in _COMPARE_COLS]
    rows = []
    for name in names:
        frame = frames_by_name[name]
        rows.append([name] + [str(get(frame)) for _, get in _COMPARE_COLS])
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    for name in names:
        for breach in frames_by_name[name].get("breaches", ()):
            lines.append(
                f"BREACH [{name}] {breach.get('slo')}="
                f"{breach.get('value', 0):.6g}"
            )
    lines.append(_RULE)
    return "\n".join(lines)


class ComparisonDashboard:
    """Repaints the tournament comparison table after every lockstep
    window (the ``on_window`` callback of
    :func:`repro.compare.tournament.run_tournament`)."""

    def __init__(self, stream: Optional[TextIO] = None, ansi: Optional[bool] = None):
        self.stream = stream if stream is not None else sys.stdout
        if ansi is None:
            isatty = getattr(self.stream, "isatty", None)
            ansi = bool(isatty()) if callable(isatty) else False
        self.ansi = ansi
        self.windows_rendered = 0

    def __call__(
        self, seed: int, t: float, frames_by_name: Dict[str, Dict[str, Any]]
    ) -> None:
        if not frames_by_name:
            return
        text = render_comparison(frames_by_name, t=t, seed=seed)
        if self.ansi:
            self.stream.write("\x1b[H\x1b[J" + text + "\n")
        else:
            self.stream.write(text + "\n")
        self.stream.flush()
        self.windows_rendered += 1


class TerminalDashboard:
    """Frame sink that repaints a terminal.

    ``ansi=None`` auto-detects: a TTY gets home-cursor + clear-to-end
    repaints, anything else (pipes, CI logs) gets appended blocks.
    """

    def __init__(self, stream: Optional[TextIO] = None, ansi: Optional[bool] = None):
        self.stream = stream if stream is not None else sys.stdout
        if ansi is None:
            isatty = getattr(self.stream, "isatty", None)
            ansi = bool(isatty()) if callable(isatty) else False
        self.ansi = ansi
        self.frames_rendered = 0

    def render(self, frame: Dict[str, Any]) -> None:
        text = render_frame(frame)
        if self.ansi:
            # Home the cursor and clear below rather than wiping the
            # scrollback: breach history stays reachable by scrolling.
            self.stream.write("\x1b[H\x1b[J" + text + "\n")
        else:
            self.stream.write(text + "\n")
        self.stream.flush()
        self.frames_rendered += 1

    # Sink-protocol compatibility with SnapshotWriter.
    def write(self, frame: Dict[str, Any]) -> None:
        self.render(frame)

    def close(self) -> None:
        pass


def watch_file(
    path: str,
    follow: bool = False,
    interval: float = 0.5,
    max_idle: float = 60.0,
    stream: Optional[TextIO] = None,
    ansi: Optional[bool] = None,
    verdict_exit: bool = True,
) -> int:
    """Render the frames of a snapshot JSONL file.

    Without ``follow`` every complete frame currently in the file is
    rendered once.  With ``follow`` the file is tailed — partial lines
    (a writer mid-flush) are left in place until complete — until a
    final frame is seen or no new frame has arrived for ``max_idle``
    seconds.

    Lines the tolerant loader skips (truncated writes, foreign garbage)
    are surfaced as an explicit warning rather than silently dropped —
    a dashboard that renders partial data must say so.

    Returns a shell exit status: 0 when the last rendered frame carries
    no breached SLO verdicts, 1 when it does (``verdict_exit=False``
    suppresses this, always returning 0 once frames rendered), 2 if the
    file never produced a frame.
    """
    from repro.obs.stream import load_frames

    dashboard = TerminalDashboard(stream=stream, ansi=ansi)
    rendered = 0
    healthy = True
    skipped_total = 0
    offset = 0
    pending = ""
    idle = 0.0
    while True:
        try:
            with open(path) as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
        except OSError:
            chunk = ""
        pending += chunk
        complete, _, pending = pending.rpartition("\n")
        frames, _, skipped = (
            load_frames(complete.splitlines()) if complete else ([], 0, 0)
        )
        skipped_total += skipped
        saw_final = False
        for frame in frames:
            dashboard.render(frame)
            rendered += 1
            healthy = not frame.get("breaches") and bool(
                frame.get("healthy", True)
            )
            saw_final = saw_final or bool(frame.get("final"))
        if skipped:
            dashboard.stream.write(
                f"WARNING: skipped {skipped} unreadable line(s) in {path} "
                "(render may be partial)\n"
            )
            dashboard.stream.flush()
        if saw_final or not follow:
            break
        if frames:
            idle = 0.0
        else:
            idle += interval
            if idle >= max_idle:
                break
        time.sleep(interval)
    if rendered == 0:
        return 2
    if not verdict_exit:
        return 0
    return 0 if healthy else 1
