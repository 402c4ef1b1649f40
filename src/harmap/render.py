"""Static SVG rendering of circle images f(|z| = r).

Output is plain SVG 1.1 with absolute M/L/Z path commands, one closed
polyline per radius, axes through the origin, and fixed 9-significant-
digit numeric formatting so identical inputs produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import _circle
from .harmonic import HarmonicMap, eval_map

#: fixed stroke cycle, reused modulo 8 across radii
COLOR_CYCLE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    out = f"{float(x):.9g}"
    return "0" if out == "-0" else out


def _path_data(points: np.ndarray) -> str:
    # closed polyline: M + (M-1) L commands + explicit return to the start + Z
    coords = [(p.real, -p.imag) for p in points]
    coords.append(coords[0])
    head = f"M {_fmt(coords[0][0])} {_fmt(coords[0][1])}"
    body = " ".join(f"L {_fmt(x)} {_fmt(y)}" for x, y in coords[1:])
    return f"{head} {body} Z"


def render_image(f: HarmonicMap, radii, samples: int, out_path) -> Path:
    """Write circle images for the given radii as an SVG file.

    Each curve carries ``samples`` + 1 points (closed).  The viewport is
    scaled to the outermost curve with 5% padding.
    """
    radii = [float(r) for r in radii]
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("radii must lie strictly inside (0, 1)")
    if samples < 256:
        raise ValueError("at least 256 samples per curve are required")

    curves = [np.asarray(eval_map(f, _circle(r, samples)[1])) for r in radii]

    all_pts = np.concatenate(curves)
    xs = all_pts.real
    ys = -all_pts.imag
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="640" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f'<line x1="{_fmt(x0)}" y1="0" x2="{_fmt(x1)}" y2="0" stroke="#bbbbbb" '
        f'stroke-width="{_fmt(0.004 * (x1 - x0))}"/>',
        f'<line x1="0" y1="{_fmt(y0)}" x2="0" y2="{_fmt(y1)}" stroke="#bbbbbb" '
        f'stroke-width="{_fmt(0.004 * (x1 - x0))}"/>',
    ]
    stroke_w = 0.0025 * (x1 - x0)
    font_size = 0.025 * (x1 - x0)
    for k, (r, curve) in enumerate(zip(radii, curves)):
        color = COLOR_CYCLE[k % len(COLOR_CYCLE)]
        lines.append(
            f'<path d="{_path_data(curve)}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(stroke_w)}"/>'
        )
        label_at = curve[0]
        lines.append(
            f'<text x="{_fmt(label_at.real)}" y="{_fmt(-label_at.imag)}" '
            f'font-size="{_fmt(font_size)}" fill="{color}">r={_fmt(r)}</text>'
        )
    lines.append("</svg>")

    out = Path(out_path)
    out.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return out
