"""Terminal plots: the figures, drawn where the benches run.

Pure-text rendering (no plotting dependency, per the offline constraint):

* :func:`bar_chart` — horizontal bars for categorical rows (level
  distributions, bandwidth by level);
* :func:`line_chart` — a braille-free ASCII scatter/line for sweeps
  (error vs scale, error vs lifetime rate), with optional log-y.

All return strings (callers print), so tests can assert on geometry.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

_BAR_GLYPH = "█"


def bar_chart(
    rows: Sequence[Tuple[object, float]],
    width: int = 50,
    title: str = "",
) -> str:
    """Horizontal bar chart; one row per (label, value), bars scaled to
    the maximum value."""
    if width < 1:
        raise ValueError("width must be >= 1")
    rows = list(rows)
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    label_w = max(len(str(label)) for label, _ in rows)
    peak = max(value for _, value in rows)
    lines = [title] if title else []
    for label, value in rows:
        if value < 0:
            raise ValueError("bar_chart values must be non-negative")
        n = int(round(value / peak * width)) if peak > 0 else 0
        lines.append(f"{str(label).rjust(label_w)} | {_BAR_GLYPH * n} {value:g}")
    return "\n".join(lines)


def line_chart(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 12,
    title: str = "",
    log_y: bool = False,
) -> str:
    """ASCII scatter of (x, y) points on a width x height grid, with axis
    extents annotated.  ``log_y`` plots log10(y) (figure 12's scale)."""
    if width < 2 or height < 2:
        raise ValueError("width and height must be >= 2")
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        return f"{title}\n(no data)" if title else "(no data)"
    if log_y:
        if any(y <= 0 for _, y in pts):
            raise ValueError("log_y requires positive y values")
        pts = [(x, math.log10(y)) for x, y in pts]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in pts:
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"
    y_top = f"{(10 ** y_hi if log_y else y_hi):g}"
    y_bot = f"{(10 ** y_lo if log_y else y_lo):g}"
    lines = [title] if title else []
    for i, row_cells in enumerate(grid):
        prefix = y_top if i == 0 else (y_bot if i == height - 1 else "")
        lines.append(f"{prefix.rjust(10)} |{''.join(row_cells)}")
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(f"{'':11}{x_lo:<15g}{'':^{max(width - 30, 0)}}{x_hi:>15g}")
    return "\n".join(lines)


def level_distribution_chart(
    fractions: Sequence[Tuple[int, float]], title: str = "node distribution by level"
) -> str:
    """Figure-5-style chart from (level, fraction) rows."""
    return bar_chart(
        [(f"L{lvl}", frac) for lvl, frac in fractions], title=title
    )
