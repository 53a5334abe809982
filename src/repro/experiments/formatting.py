"""Plain-text table rendering for experiment output."""

from __future__ import annotations


def render_table(headers, rows, title=None):
    """Render an aligned ASCII table; values are str()'d."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def fmt_pct(x, digits=1):
    return f"{100 * x:.{digits}f}%"
