"""Deterministic SVG rendering of shape space.

``svg_from_report`` draws an analysis straight from ``run_analysis``'s
report and its confidence regions: the unit disk (with the dashed
radius-1/2 circle), each level's region members, markers for the
observed / median / extreme-tau shapes, small triangle glyphs for those
four shapes, and a legend. Output is plain SVG 1.1 text with fixed
number formatting, so a given report always renders to identical bytes.
"""

from __future__ import annotations

import html

import numpy as np

from .shape import SideLengths, configuration_from_sides

_W, _H = 720, 520
_CX, _CY, _R = 260.0, 260.0, 220.0

_LEVEL_COLORS = ["#9ecae1", "#3182bd", "#08519c", "#041f4a"]
_MARKER_COLORS = {
    "observed": "#d62728",
    "median": "#2ca02c",
    "max_tau": "#9467bd",
    "min_tau": "#ff7f0e",
}


# characters XML 1.0 allows in no form: C0 controls other than tab,
# newline and carriage return, and the non-characters U+FFFE and U+FFFF
_XML_FORBIDDEN = dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd"
)


def _xml_text(s: str) -> str:
    """``s`` as XML character data, with forbidden characters as U+FFFD."""
    return html.escape(s.translate(_XML_FORBIDDEN), quote=False)


def _fmt(x: float) -> str:
    return format(x, ".3f")


def _to_canvas(u: float, v: float) -> tuple:
    return _CX + _R * u, _CY - _R * v


def _triangle_glyph(sides: SideLengths, cx: float, cy: float, half: float) -> str:
    """Triangle with the given side lengths fitted into a square glyph box."""
    lm = configuration_from_sides(sides).landmarks
    lm = lm - lm.mean(axis=0)
    span = max(abs(lm).max(), 1e-9)
    pts = [(_fmt(cx + half * x / span), _fmt(cy - half * y / span)) for x, y in lm]
    polygon = " ".join(f"{x},{y}" for x, y in pts)
    vertex_dots = "".join(
        f'<circle cx="{x}" cy="{y}" r="2.2" fill="{col}"/>'
        for (x, y), col in zip(pts, ("#d62728", "#2ca02c", "#1f77b4"))
    )
    return (
        f'<polygon points="{polygon}" fill="none" stroke="#333333" '
        f'stroke-width="1.2"/>{vertex_dots}'
    )


def svg_from_report(report: dict, regions: dict) -> str:
    """Render a report and its confidence regions to an SVG document string.

    ``report`` and ``regions`` are what ``run_analysis`` returns: each
    level block of ``report["regions"]`` gives the level and the marker
    summaries, and ``regions[key].member_points`` the (u, v) points drawn
    for that level. A report without levels draws the disk and the
    observed marker only.
    """
    blocks = report["regions"]
    title = "shape space: " + ", ".join(report["config"]["feature_columns"])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_fmt(_CX)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_xml_text(title)}</text>',
        # the disk and the dashed half-radius circle
        f'<circle cx="{_fmt(_CX)}" cy="{_fmt(_CY)}" r="{_fmt(_R)}" '
        f'fill="#fbfbfb" stroke="black" stroke-width="1.5"/>',
        f'<circle cx="{_fmt(_CX)}" cy="{_fmt(_CY)}" r="{_fmt(_R / 2)}" '
        f'fill="none" stroke="#888888" stroke-width="1" stroke-dasharray="6,5"/>',
        f'<line x1="{_fmt(_CX - _R)}" y1="{_fmt(_CY)}" x2="{_fmt(_CX + _R)}" '
        f'y2="{_fmt(_CY)}" stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{_fmt(_CX)}" y1="{_fmt(_CY - _R)}" x2="{_fmt(_CX)}" '
        f'y2="{_fmt(_CY + _R)}" stroke="#dddddd" stroke-width="1"/>',
    ]

    # widest region first so narrower levels draw on top
    level_keys = sorted(blocks, key=lambda k: -blocks[k]["level"])
    for i, key in enumerate(level_keys):
        color = _LEVEL_COLORS[min(i, len(_LEVEL_COLORS) - 1)]
        pts = regions[key].member_points
        xy = np.column_stack(_to_canvas(pts[:, 0], pts[:, 1]))
        # "%.3f" formats as _fmt does
        dot = f'<circle cx="%.3f" cy="%.3f" r="1.4" fill="{color}" fill-opacity="0.55"/>'
        dots = dot * len(xy) % tuple(xy.ravel().tolist())
        parts.append(f'<g id="region-{key}">{dots}</g>')

    # markers: observed plus the summaries of the narrowest region
    marks = [("observed", report["observed"])]
    if level_keys:
        inner = blocks[level_keys[-1]]
        marks += [(name, inner[name]) for name in ("median", "max_tau", "min_tau")]

    glyph_x, glyph_y, glyph_step = _W - 150.0, 92.0, 108.0
    for i, (name, blk) in enumerate(marks):
        color = _MARKER_COLORS[name]
        x, y = _to_canvas(blk["u"], blk["v"])
        parts.append(
            f'<g id="marker-{name}">'
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.5" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<line x1="{_fmt(x - 6)}" y1="{_fmt(y)}" x2="{_fmt(x + 6)}" y2="{_fmt(y)}" '
            f'stroke="{color}" stroke-width="1"/>'
            f'<line x1="{_fmt(x)}" y1="{_fmt(y - 6)}" x2="{_fmt(x)}" y2="{_fmt(y + 6)}" '
            f'stroke="{color}" stroke-width="1"/></g>'
        )
        gy = glyph_y + i * glyph_step
        sides = SideLengths(blk["a2"], blk["b2"], blk["c2"])
        parts.append(
            f'<g id="glyph-{name}">'
            f'<rect x="{_fmt(glyph_x - 46)}" y="{_fmt(gy - 46)}" width="92" height="92" '
            f'fill="none" stroke="#cccccc" stroke-width="1"/>'
            + _triangle_glyph(sides, glyph_x, gy, 36.0)
            + f'<text x="{_fmt(glyph_x)}" y="{_fmt(gy + 60)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text></g>'
        )

    # legend for the region levels
    ly = _H - 40.0
    for i, key in enumerate(level_keys):
        color = _LEVEL_COLORS[min(i, len(_LEVEL_COLORS) - 1)]
        lx = 40.0 + 140.0 * i
        parts.append(
            f'<g id="legend-{key}">'
            f'<circle cx="{_fmt(lx)}" cy="{_fmt(ly)}" r="4" fill="{color}"/>'
            f'<text x="{_fmt(lx + 10)}" y="{_fmt(ly + 4)}" font-family="sans-serif" '
            f'font-size="12">level {key}</text></g>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
