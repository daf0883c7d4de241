"""Self-contained SVG line charts with fully deterministic output.

No plotting library: byte-identical SVG for identical data is part of the
reproducibility contract, so the markup is assembled by hand with fixed
formatting and a fixed palette indexed by series order.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 24, 42, 52

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str,
    x_label: str = "round",
    y_label: str = "mse",
) -> str:
    """Render (label, [(x, y), ...]) series; empty series are skipped."""
    series = [(label, list(pts)) for label, pts in series if pts]
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        # by 0.5, or by a share of a value too large to move by 0.5
        half = max(0.5, abs(y_lo) * 2.0 ** -40)
        y_lo, y_hi = y_lo - half, y_hi + half
    # a range that overflows the floats once padded is laid out in quarters:
    # dividing by a power of two is exact, so no point moves
    scale = 1.0 if all(map(math.isfinite, _padded(y_lo, y_hi))) else 4.0
    y_lo, y_hi = _padded(y_lo / scale, y_hi / scale)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:  # y in units of `scale`
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = (
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    out.append(axis)
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        # the padded ends of a scaled range may lie beyond the floats
        ty = max(-sys.float_info.max, min(ty * scale, sys.float_info.max))
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
            f'stroke="black"/>'
            f'<text x="{MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.2f})">{y_label}</text>'
    )
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y / scale):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y / scale):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = MARGIN_T + 10 + 16 * i
        lx = MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" '
            f'stroke-width="2"/>'
            f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
