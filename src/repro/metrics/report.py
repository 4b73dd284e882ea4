"""Result-table formatting for the benchmark harness.

Every benchmark prints the rows/series the paper's figures plot; these
helpers keep the output consistent and machine-greppable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Cell = str | int | float


def format_si(value: float, unit: str = "") -> str:
    """Human SI formatting: ``75.9M events/s`` style."""
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= factor:
            return f"{value / factor:.2f}{suffix}{unit}"
    return f"{value:.2f}{unit}"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]]) -> str:
    """Render an aligned text table."""
    str_rows: list[list[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)

