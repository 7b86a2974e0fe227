"""Plain-text rendering of experiment rows, shaped like the paper's
tables and figures (printed by the benchmarks and EXPERIMENTS.md)."""

from __future__ import annotations

from typing import Iterable


def table(headers: list[str], rows: Iterable[Iterable], title: str = "") -> str:
    """Render rows as an aligned plain-text table."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, tuple):  # one cell, several readings
        return " / ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01:
            return f"{value:.4f}"
        if abs(value) < 10:
            return f"{value:.3f}"
        return f"{value:.1f}"
    return str(value)
