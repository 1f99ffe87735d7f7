"""Plain-text tables and paper-vs-measured comparisons."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.perf.calibration import PAPER_TARGETS, paper_target

__all__ = ["format_table", "comparison_row", "comparison_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


def comparison_row(key: str, measured: float) -> list:
    """[key, paper value, measured, ratio, source] row for report tables."""
    target = paper_target(key)
    flag = "~" if target.approx else ""
    return [
        key,
        f"{flag}{_fmt(target.value)} {target.unit}",
        f"{_fmt(measured)} {target.unit}",
        f"{measured / target.value:.2f}x",
    ]


def comparison_table(figure: str,
                     measured: Mapping[tuple, Optional[float]]) -> str:
    """A figure's paper-vs-measured table, one row per paper target of
    ``figure`` whose sweep point(s) ``measured`` holds a value for
    (``None`` marks a point that ran out of memory)."""
    rows = []
    for target in PAPER_TARGETS.values():
        if target.figure != figure or target.point is None:
            continue
        value = measured.get(target.point)
        if value is not None and target.over is not None:
            base = measured.get(target.over)
            value = None if base is None else value / base
        if value is not None:
            rows.append(comparison_row(target.key, value))
    return format_table(["target", "paper", "measured", "ratio"], rows,
                        title=f"{figure} — paper vs measured")
