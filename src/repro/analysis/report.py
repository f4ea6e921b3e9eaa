"""ASCII rendering helpers: bar charts and series tables.

The paper's figures are bar charts and line plots; in a terminal-only
environment we render them as labelled ASCII bars so a reader can eyeball
the same shapes.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def bar(value: float, scale: float = 1.0, width: int = 40,
        char: str = "#") -> str:
    """One horizontal bar; *value* in [0, scale]."""
    if scale <= 0:
        return ""
    n = int(round(max(0.0, min(1.0, value / scale)) * width))
    return char * n


def bar_chart(data: Mapping[str, float], *, scale: float | None = None,
              width: int = 40, fmt: str = "{:6.1f}") -> str:
    """Labelled horizontal bar chart."""
    if not data:
        return "(no data)"
    scale = scale if scale is not None else max(data.values()) or 1.0
    label_w = max(len(str(k)) for k in data)
    lines = []
    for key, value in data.items():
        lines.append(f"{str(key):<{label_w}} | "
                     f"{bar(value, scale, width)} {fmt.format(value)}")
    return "\n".join(lines)


def percent_chart(data: Mapping[str, float], **kwargs) -> str:
    """Bar chart of fractions rendered as percentages."""
    return bar_chart({k: v * 100 for k, v in data.items()},
                     scale=100.0, fmt="{:5.1f}%", **kwargs)


def series_table(x_label: str, xs: Sequence[int],
                 series: Mapping[str, Mapping[int, float]],
                 fmt: str = "{:8.2f}") -> str:
    """Multi-series table keyed by an integer x-axis (Figs. 8-9 style)."""
    names = list(series)
    header = f"{x_label:>5} " + " ".join(f"{n:>18}" for n in names)
    lines = [header]
    for x in xs:
        cells = []
        for n in names:
            v = series[n].get(x)
            cells.append(f"{fmt.format(v):>18}" if v is not None
                         else " " * 18)
        lines.append(f"{x:>5} " + " ".join(cells))
    return "\n".join(lines)
