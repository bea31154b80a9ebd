"""The one text-table renderer (experiment tables, gate, report, audit)."""

from __future__ import annotations

import numbers
from typing import Iterable, List, Mapping, Sequence


def key_union(rows: Iterable[Mapping[str, object]]) -> List[str]:
    """The union of the mappings' keys, in first-appearance order (a table's
    columns; the stages or metrics a set of runs recorded)."""
    return list(dict.fromkeys(key for row in rows for key in row))


def format_cell(value: object) -> str:
    """``NA`` for ``None``; four significant digits for real non-integer
    numbers (Python or numpy floats of any width); ``str`` otherwise — bool
    is an Integral, so it prints as ``True`` / ``False`` with the ints."""
    if value is None:
        return "NA"
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render list-of-dict rows as an aligned text table.

    A key only later rows carry still gets its column (:func:`key_union`);
    rows lacking it print ``NA``, as ``None`` does (:func:`format_cell`).
    """
    if not rows:
        return "(no rows)"
    columns = key_union(rows)
    cells = [[format_cell(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(line[i]) for line in cells))
        for i, c in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths))
        for line in cells
    )
    return f"{header}\n{'-' * len(header)}\n{body}"
