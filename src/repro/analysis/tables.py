"""Plain-text table rendering for experiment output.

Benchmarks print the same rows the paper's evaluation would show; this
keeps that output aligned and readable without any plotting dependency.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from ..exceptions import ConfigurationError

__all__ = ["format_table", "format_value"]


def format_value(value: Any, float_digits: int = 3) -> str:
    """Human formatting: floats trimmed, ``None`` as ``-``, rest via str."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        if abs(value) >= 1e5 or (abs(value) < 1e-3 and value != 0):
            return f"{value:.{float_digits}e}"
        return f"{value:.{float_digits}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_digits: int = 3,
) -> str:
    """Render dict-rows as an aligned ASCII table.

    Args:
        rows: One mapping per row; missing keys render as ``-``.
        columns: Column order; defaults to first-seen key order.
        title: Optional heading line.
        float_digits: Significant digits for float cells.
    """
    if not rows:
        raise ConfigurationError("cannot render an empty table")
    if columns is None:
        seen: List[str] = []
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        columns = seen

    cells: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        cells.append(
            [format_value(row.get(c), float_digits) for c in columns]
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]

    def render_row(row: List[str]) -> str:
        return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(cells[0]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(r) for r in cells[1:])
    return "\n".join(lines)
