"""Deterministic SVG rendering of point and line configurations.

The affine chart z != 0 is drawn; points at infinity are marked on a
boundary band in their direction.  Output bytes depend only on the input,
so identical configurations render to identical files.
"""

from __future__ import annotations

import math

from .geometry import detect_line_arrangement, is_star_configuration, is_type9, spanned_lines

CANVAS = 640
MARGIN = 60
POINT_RADIUS = 5


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _affine(P):
    # scalars are Fractions or, mod p, residue ints: float() takes both
    x, y, z = P.coords
    if z == P.field.zero:
        return None
    return float(x), float(y)


def render_svg(points=()) -> str:
    """An SVG document for the configuration and the lines it is made of: a
    star's lines, else a line arrangement's, else a type9 configuration's
    three 3-point lines, clipped to the plot box by the SVG.  Lines are
    drawn over Q only, since residues mod p are no real coordinates; empty
    input gives an empty canvas."""
    points = tuple(points)
    lines = ()
    if len(points) >= 2 and points[0].field.p is None:
        star = is_star_configuration(points) if len(points) >= 3 else None
        witness = None if star else detect_line_arrangement(points)
        lines = star[1] if star else witness.lines if witness else ()
        if not lines and is_type9(points):
            lines = tuple(L for L, inc in spanned_lines(points) if len(inc) == 3)
    affine = [_affine(P) for P in points]
    finite = [aff for aff in affine if aff is not None]
    infinite = [i for i, aff in enumerate(affine) if aff is None]
    if finite:
        xs = [p[0] for p in finite]
        ys = [p[1] for p in finite]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
    else:
        lo_x = lo_y = -1.0
        hi_x = hi_y = 1.0
    pad_x = max((hi_x - lo_x) * 0.15, 1.0)
    pad_y = max((hi_y - lo_y) * 0.15, 1.0)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    span = CANVAS - 2 * MARGIN
    scale = span / max(hi_x - lo_x, hi_y - lo_y)

    def to_px(x, y):
        # y axis points up in the chart, down in SVG
        return (
            MARGIN + (x - lo_x) * scale,
            CANVAS - MARGIN - (y - lo_y) * scale,
        )

    left, top = to_px(lo_x, hi_y)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="white"/>',
        f'<clipPath id="box"><rect x="{_fmt(left)}" y="{_fmt(top)}" width='
        f'"{_fmt((hi_x - lo_x) * scale)}" height="{_fmt((hi_y - lo_y) * scale)}"/></clipPath>',
    ]
    # each line runs a box diagonal both ways from the foot of the
    # perpendicular from the box centre, so it crosses the whole clip box
    cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
    diag = math.hypot(hi_x - lo_x, hi_y - lo_y)
    for L in lines:
        a, b, c = map(float, L.coeffs)
        if a == b == 0:  # the line at infinity
            continue
        t = (a * cx + b * cy + c) / (a * a + b * b)
        u = diag / math.hypot(a, b)
        px1, py1 = to_px(cx - a * t - b * u, cy - b * t + a * u)
        px2, py2 = to_px(cx - a * t + b * u, cy - b * t - a * u)
        parts.append(
            f'<line x1="{_fmt(px1)}" y1="{_fmt(py1)}" x2="{_fmt(px2)}" '
            f'y2="{_fmt(py2)}" stroke="steelblue" stroke-width="1.5" clip-path="url(#box)"/>'
        )
    # finite points first, in index order; points at infinity then sit on a
    # dashed band along the top edge
    marks = [(idx, to_px(*aff), 'fill="black"', "")
             for idx, aff in enumerate(affine) if aff is not None]
    marks += [(idx, (MARGIN + (j + 1) * span / (len(infinite) + 1), MARGIN / 2),
               'fill="none" stroke="black" stroke-dasharray="2,2"', " (inf)")
              for j, idx in enumerate(infinite)]
    for idx, (px, py), style, suffix in marks:
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{POINT_RADIUS}" {style}/>')
        parts.append(
            f'<text x="{_fmt(px + 8)}" y="{_fmt(py - 8)}" '
            f'font-family="monospace" font-size="14">P{idx + 1}{suffix}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
