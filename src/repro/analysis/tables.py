"""ASCII rendering for experiment tables and tiny inline plots.

The benchmark harness prints the same rows/series the paper's theorems
describe; this module renders them readably in a terminal (no plotting
dependencies are available offline).
"""

from __future__ import annotations

from repro.utils.errors import InvalidParameterError

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-4:
            return f"{value:.3e}"
        return f"{value:.5g}"
    if value is None:
        return "-"
    return str(value)


def format_table(headers, rows, title: str | None = None) -> str:
    """Render a list of rows as an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of row sequences (same length as ``headers``).
    title:
        Optional title line printed above the table.
    """
    headers = [str(h) for h in headers]
    formatted_rows = []
    for row in rows:
        cells = [_format_cell(v) for v in row]
        if len(cells) != len(headers):
            raise InvalidParameterError(
                f"row has {len(cells)} cells for {len(headers)} headers")
        formatted_rows.append(cells)
    widths = [len(h) for h in headers]
    for cells in formatted_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for cells in formatted_rows:
        lines.append(" | ".join(cell.ljust(widths[i])
                                for i, cell in enumerate(cells)))
    return "\n".join(lines)


def sparkline(values) -> str:
    """Compress a numeric series into a unicode sparkline string."""
    data = [float(v) for v in values]
    if not data:
        return ""
    low = min(data)
    high = max(data)
    if high == low:
        return _SPARK_LEVELS[0] * len(data)
    span = high - low
    chars = []
    for v in data:
        level = int((v - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)
