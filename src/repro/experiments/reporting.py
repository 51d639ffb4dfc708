"""Plain-text rendering of experiment results.

The paper's figures are bar charts and timelines; the runners print the
same data as aligned ASCII tables and (time, value) series so a
benchmark run's stdout is directly comparable against the paper.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(
    times: Sequence[float],
    channels: Mapping[str, Sequence[float]],
    title: str | None = None,
    max_points: int = 40,
) -> str:
    """Render a multi-channel time series, downsampled for stdout."""
    count = len(times)
    for name, values in channels.items():
        if len(values) != count:
            raise ValueError(f"channel {name!r} length mismatch")
    if count > max_points:
        step = count / max_points
        indices = [int(i * step) for i in range(max_points)]
    else:
        indices = list(range(count))
    headers = ["t"] + list(channels)
    rows = [
        [times[i]] + [channels[name][i] for name in channels]
        for i in indices
    ]
    return format_table(headers, rows, title=title)
