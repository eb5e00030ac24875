"""Plain-text table rendering for benchmark and experiment output.

The benchmark harness prints the same rows/series the paper reports; this
module renders them as aligned monospace tables so the output is directly
comparable with the published tables and figure series.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render *rows* (a list of dicts) as an aligned text table.

    *columns* fixes the column order; by default the keys of the first row
    are used. Missing cells render as an empty string.

    >>> print(format_table([{"k": 10, "spread": 42.5}], title="demo"))
    demo
    k   spread
    --  -------
    10  42.5000
    """
    if not rows:
        return (title + "\n(no rows)") if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [_fmt(row.get(col, ""), precision) for col in columns] for row in rows
    ]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        )
    return "\n".join(lines)
