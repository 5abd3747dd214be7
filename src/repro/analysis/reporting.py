"""ASCII reporting helpers: render experiment results as paper-style tables."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_value(value, precision: int = 4) -> str:
    """Human-readable cell formatting (floats rounded, small floats in scientific form)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 10 ** (-precision) or abs(value) >= 10 ** 6:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None, precision: int = 4) -> str:
    """Render a list of dict rows as a fixed-width ASCII table."""
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(col) for col in columns]
    body = [[format_value(row.get(col, ""), precision) for col in columns] for row in rows]
    widths = [max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(header))]

    def render_line(cells: List[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line(header))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_line(line) for line in body)
    return "\n".join(lines)


def render_bar_chart(values: Mapping[str, float], width: int = 40, unit: str = "") -> str:
    """Simple horizontal ASCII bar chart (used for the Fig. 5 throughput figure)."""
    if not values:
        return "(empty)"
    maximum = max(values.values())
    maximum = maximum if maximum > 0 else 1.0
    label_width = max(len(name) for name in values)
    lines = []
    for name, value in values.items():
        bar = "#" * max(1, int(round(width * value / maximum))) if value > 0 else ""
        lines.append(f"{name.ljust(label_width)} | {bar} {format_value(float(value))}{unit}")
    return "\n".join(lines)


def render_series(series: Mapping[str, Sequence[Number]], x_label: str = "x",
                  precision: int = 4) -> str:
    """Render aligned numeric series (used for the Fig. 6 sweep outputs)."""
    if not series:
        return "(empty)"
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError("all series must have the same length")
    names = list(series)
    rows = []
    for index in range(lengths.pop()):
        row = {x_label: index}
        for name in names:
            row[name] = series[name][index]
        rows.append(row)
    return format_table(rows, columns=[x_label] + names, precision=precision)
