"""Self-contained semilog SVG rendering for residual histories.

No plotting library: the artifact's figures must be reproducible from the
package alone, byte-identical across runs. Nonpositive residuals cannot sit
on a log axis, so every value below a fixed tiny floor, a positive one
included, is plotted at the floor, and the plot says so explicitly.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._records import real

__all__ = ["render_residual_plot", "FLOOR"]

FLOOR = 1e-18

_WIDTH = 640
_HEIGHT = 440
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_residual_plot(
    residuals: Sequence[float],
    title: str = "residual per iteration",
) -> str:
    """Render residuals on a semilog-y axis as a standalone SVG document.

    One marker per residual (a single point gets no polyline); every point
    drawn here corresponds to one row of the companion CSV. ``title`` is
    plain text: ``&``, ``<`` and ``>`` are escaped. A residual that is not
    a finite real (NaN, inf, a bool, a string, None, a complex number)
    raises :class:`ValueError` naming its index.
    """
    if len(residuals) == 0:
        raise ValueError("nothing to plot")
    message = "residual {0} is not finite: {value!r}"
    values = [float(real(r, message, i)) for i, r in enumerate(residuals)]
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    floored = [max(v, FLOOR) for v in values]
    clamped = any(v < FLOOR for v in values)
    logs = [math.log10(v) for v in floored]

    lo = math.floor(min(logs))
    hi = math.ceil(max(logs))
    if lo == hi:
        hi = lo + 1

    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    n = len(residuals)
    xmax = max(n - 1, 1)

    def px(i: int) -> float:
        return _MARGIN_L + inner_w * (i / xmax)

    def py(lv: float) -> float:
        return _MARGIN_T + inner_h * (hi - lv) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    # y grid: one line per decade, thinned to at most 12 labels
    decades = list(range(lo, hi + 1))
    stride = max(1, math.ceil(len(decades) / 12))
    for d in decades[::stride]:
        y = py(d)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{d}</text>'
        )

    # x ticks at ~8 round positions
    tick_step = max(1, (n - 1) // 8 or 1)
    for i in range(0, n, tick_step):
        x = px(i)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_HEIGHT - _MARGIN_B}" x2="{_fmt(x)}" '
            f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN_B + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{i}</text>'
        )

    # axes
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">residual</text>'
    )

    points = [(px(i), py(lv)) for i, lv in enumerate(logs)]
    if len(points) > 1:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        )
    for x, y in points:
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#1f6fb2"/>'
        )

    if clamped:
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R}" y="{_MARGIN_T - 8}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#b22222">'
            f"values below {FLOOR:.0e} plotted at {FLOOR:.0e}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
