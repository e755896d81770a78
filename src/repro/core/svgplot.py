"""Minimal SVG chart writer (no plotting dependencies).

The reproduction runs in offline environments without matplotlib, yet
"regenerate the paper's figures" should mean figures: this module emits
clean standalone SVG scatter/line charts with axes, ticks and labels —
enough for the correlation figure and the sweep charts, nothing more.
Deterministic output (stable formatting) so generated figures can be
committed and diffed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

_COLORS = ("#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed")


@dataclass
class Series:
    """One named point set, drawn as markers and (optionally) a line."""

    name: str
    points: List[Tuple[float, float]]
    draw_line: bool = False
    labels: Optional[List[str]] = None  # per-point annotations

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError(f"series {self.name!r}: labels/points mismatch")


@dataclass
class Chart:
    """A single-panel chart: series plus axis metadata."""

    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    width: int = 640
    height: int = 420

    def add(self, series: Series) -> "Chart":
        self.series.append(series)
        return self


def _nice_ticks(low: float, high: float, count: int = 5) -> List[float]:
    """Round tick positions covering [low, high]."""
    if high <= low:
        high = low + 1.0
    span = high - low
    step = 10 ** math.floor(math.log10(span / max(1, count)))
    for multiplier in (1, 2, 5, 10):
        if span / (step * multiplier) <= count:
            step *= multiplier
            break
    start = math.floor(low / step) * step
    ticks = []
    tick = start
    while tick <= high + step / 2:
        ticks.append(round(tick, 10))
        tick += step
    return ticks


def render_svg(chart: Chart) -> str:
    """Serialize a chart to a standalone SVG document."""
    if not chart.series or not any(s.points for s in chart.series):
        raise ValueError(f"chart {chart.title!r} has no points")
    margin_left, margin_right = 64, 24
    margin_top, margin_bottom = 40, 52
    plot_w = chart.width - margin_left - margin_right
    plot_h = chart.height - margin_top - margin_bottom

    xs = [x for s in chart.series for x, _ in s.points]
    ys = [y for s in chart.series for _, y in s.points]
    x_ticks = _nice_ticks(min(xs), max(xs))
    y_ticks = _nice_ticks(min(ys), max(ys))
    x_lo, x_hi = x_ticks[0], x_ticks[-1]
    y_lo, y_hi = y_ticks[0], y_ticks[-1]

    def sx(x: float) -> float:
        return margin_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{chart.width}" '
        f'height="{chart.height}" viewBox="0 0 {chart.width} {chart.height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{chart.width}" height="{chart.height}" fill="white"/>',
        f'<text x="{chart.width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15" font-weight="bold">{_esc(chart.title)}</text>',
    ]
    # Axes frame and grid.
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444"/>'
    )
    for tick in x_ticks:
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_top}" x2="{x:.1f}" '
            f'y2="{margin_top + plot_h}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{margin_top + plot_h + 16}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in y_ticks:
        y = sy(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" '
            f'x2="{margin_left + plot_w}" y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.1f}" y="{chart.height - 12}" '
        f'text-anchor="middle">{_esc(chart.x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_top + plot_h / 2:.1f})">'
        f'{_esc(chart.y_label)}</text>'
    )
    # Series.
    for index, series in enumerate(chart.series):
        color = _COLORS[index % len(_COLORS)]
        scaled = [(sx(x), sy(y)) for x, y in series.points]
        if series.draw_line and len(scaled) > 1:
            path = " ".join(
                f"{'M' if k == 0 else 'L'}{x:.1f},{y:.1f}"
                for k, (x, y) in enumerate(scaled)
            )
            parts.append(
                f'<path d="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for k, (x, y) in enumerate(scaled):
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" fill="{color}"/>')
            if series.labels:
                parts.append(
                    f'<text x="{x + 5:.1f}" y="{y - 5:.1f}" font-size="10" '
                    f'fill="#333">{_esc(series.labels[k])}</text>'
                )
        # Legend entry.
        legend_y = margin_top + 14 + 16 * index
        parts.append(
            f'<circle cx="{margin_left + 12}" cy="{legend_y - 4}" r="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{margin_left + 22}" y="{legend_y}">'
            f'{_esc(series.name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fmt(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:g}"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def save_svg(path: Union[str, Path], chart: Chart) -> Path:
    path = Path(path)
    path.write_text(render_svg(chart))
    return path
