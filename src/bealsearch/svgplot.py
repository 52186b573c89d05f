"""Minimal hand-written SVG scatter output for hit files.

Plots are diagnostic, so the emitter stays dependency-free: a fixed-size
canvas, one circle per hit, optional log10 axes.  The marker count always
equals the record count.
"""

from __future__ import annotations

import math
from html import escape

from .records import HitRecord

WIDTH, HEIGHT = 640, 480
MARGIN = 56

AXIS_CHOICES = {
    "axbycz": ("A_pow_X", "B_pow_Y", "A^X", "B^Y"),
    "abc": ("A", "B", "A", "B"),
}


def _positions(records: list[HitRecord], x_field: str, y_field: str,
               log_scale: bool) -> list[tuple[float, float]] | list[tuple[int, int]]:
    points = []
    for record in records:
        x = int(getattr(record, x_field))
        y = int(getattr(record, y_field))
        if log_scale:
            points.append((math.log10(x), math.log10(y)))
        else:
            points.append((x, y))  # exact: a power may pass the range of a float
    return points


def _scale(points: list[tuple[float, float]] | list[tuple[int, int]]) -> list[tuple[float, float]]:
    # for int points, offset / span is one correctly rounded int division
    xs = [p[0] for p in points] or [0]
    ys = [p[1] for p in points] or [0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN
    return [
        (MARGIN + (x - x_lo) / x_span * plot_w,
         HEIGHT - MARGIN - (y - y_lo) / y_span * plot_h)
        for x, y in points
    ]


def emit_scatter(records: list[HitRecord], axes: str = "axbycz",
                 log_scale: bool = False, title: str | None = None) -> str:
    """Render records as an SVG scatter; one <circle> marker per record."""
    if axes not in AXIS_CHOICES:
        raise ValueError(f"axes must be one of {sorted(AXIS_CHOICES)}, got {axes!r}")
    x_field, y_field, x_label, y_label = AXIS_CHOICES[axes]
    if log_scale:
        x_label, y_label = f"log10({x_label})", f"log10({y_label})"
    scaled = _scale(_positions(records, x_field, y_field, log_scale))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - MARGIN // 4}" text-anchor="middle" '
        f'font-size="13">{escape(x_label, quote=False)}</text>',
        f'<text x="{MARGIN // 3}" y="{HEIGHT // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 {MARGIN // 3} {HEIGHT // 2})">'
        f'{escape(y_label, quote=False)}</text>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{MARGIN // 2}" text-anchor="middle" '
            f'font-size="15">{escape(title, quote=False)}</text>')
    for x, y in scaled:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue" '
                     f'fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
