"""Plain-text line charts for figure-style benchmark output.

The paper's evaluation is mostly line plots (spread vs k, coefficient vs
k); :func:`ascii_chart` renders such series as a monospace chart so the
benchmark output is visually comparable with the published figures
without any plotting dependency.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

_MARKERS = "*o+x#@%&"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Render named ``(x, y)`` series as an ASCII chart.

    Each series gets a marker from ``* o + x …``; overlapping points keep
    the first series' marker.  Axes are annotated with the min/max of each
    dimension.

    >>> chart = ascii_chart({"a": [(0, 0), (1, 1)]}, width=10, height=4)
    >>> "a" in chart and "*" in chart
    True
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return (title + "\n(no data)") if title else "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(_MARKERS, series.items()):
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            if grid[row][col] == " ":
                grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:>10.1f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_lo:>10.1f} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + "└" + "─" * width)
    lines.append(
        " " * 12 + f"{x_lo:<.0f}" + " " * max(1, width - 12) + f"{x_hi:>.0f}"
    )
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(_MARKERS, series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
