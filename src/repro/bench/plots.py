"""Terminal rendering of experiment series (the paper's figures are
line charts; we render the same series as aligned text and ASCII
charts so benches work headlessly)."""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_chart", "format_sweep"]


def format_sweep(
    series: Mapping[str, Sequence[tuple[int, float]]],
    title: str,
    unit: str = "s",
) -> str:
    """Tabular rendering of per-machine (x, y) series."""
    xs = sorted({x for pts in series.values() for x, _y in pts})
    lines = [title, "workers  " + "".join(f"{x:>9}" for x in xs)]
    for name, pts in series.items():
        by_x = dict(pts)
        row = "".join(
            f"{by_x[x]:>9.2f}" if x in by_x else f"{'-':>9}" for x in xs
        )
        lines.append(f"{name[:9]:<9}{row} {unit}")
    return "\n".join(lines)


def ascii_chart(
    series: Mapping[str, Sequence[tuple[int, float]]],
    title: str,
    height: int = 12,
    width: int = 60,
) -> str:
    """Minimal multi-series scatter chart in ASCII."""
    pts = [(x, y) for s in series.values() for x, y in s]
    if not pts:
        return title + "\n(no data)"
    xmin = min(x for x, _ in pts)
    xmax = max(x for x, _ in pts)
    ymax = max(y for _, y in pts)
    ymin = 0.0
    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@"
    legend = []
    for i, (name, s) in enumerate(series.items()):
        m = markers[i % len(markers)]
        legend.append(f"{m} = {name}")
        for x, y in s:
            cx = 0 if xmax == xmin else round(
                (x - xmin) / (xmax - xmin) * (width - 1)
            )
            cy = 0 if ymax == ymin else round(
                (y - ymin) / (ymax - ymin) * (height - 1)
            )
            grid[height - 1 - cy][cx] = m
    lines = [title]
    lines.append(f"{ymax:8.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 8 + " │" + "".join(row))
    lines.append(f"{ymin:8.2f} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + "└" + "─" * width)
    lines.append(
        " " * 10 + f"{xmin}" + " " * (width - len(str(xmin)) -
                                      len(str(xmax))) + f"{xmax}"
    )
    lines.append("  " + "   ".join(legend))
    return "\n".join(lines)
