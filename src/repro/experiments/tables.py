"""Plain-text table formatting for the benchmark harness output.

The benches print rows in the same arrangement as the paper's tables so the
shapes (who wins, by how much) can be compared side by side with the paper.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_float"]


def format_float(value, digits: int = 2) -> str:
    """Render a float (or None) compactly."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def format_table(
    rows: Sequence[dict],
    columns: Sequence[str],
    headers: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Align a list of row-dicts into a monospace table string."""
    headers = list(headers) if headers is not None else list(columns)
    if len(headers) != len(columns):
        raise ValueError("headers and columns must have the same length")
    cells = [[str(row.get(col, "-")) for col in columns] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
