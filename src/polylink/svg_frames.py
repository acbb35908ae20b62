"""SVG frame sets for polygon flows.

A frame set directory holds ``frame_NNNNN.svg`` files (indices contiguous
from 0), a ``summary.svg`` with every frame ghost-overlaid, and an
``energy.csv`` table.  All frames share one viewBox: the union bounding
box of every frame, padded by 5 percent.  Each frame draws the polygon as
a single closed path plus a circle at every vertex.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SVG_HEADER = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'


def _fmt(x: float) -> str:
    return format(float(x), ".8g")


def union_viewbox(frames: list[np.ndarray]):
    """Union bounding box of all frames as (x, y, w, h), padded on every
    side by 5 percent of its longer side."""
    allpts = np.vstack(frames)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = hi - lo
    pad = 0.05 * float(span.max())
    return (
        float(lo[0] - pad),
        float(lo[1] - pad),
        float(span[0] + 2 * pad),
        float(span[1] + 2 * pad),
    )


def _polygon_path(verts: np.ndarray) -> str:
    coords = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in verts)
    return f"M {coords} Z"


def _frame_svg(verts: np.ndarray, viewbox, stroke: str, opacity: float = 1.0):
    x, y, w, h = viewbox
    diag = math.hypot(w, h)
    sw = _fmt(0.006 * diag)
    r = _fmt(0.011 * diag)
    parts = [SVG_HEADER.format(vb=f"{_fmt(x)} {_fmt(y)} {_fmt(w)} {_fmt(h)}")]
    parts.append(
        f'  <path d="{_polygon_path(verts)}" fill="none" stroke="{stroke}" '
        f'stroke-width="{sw}" stroke-linejoin="round" opacity="{_fmt(opacity)}"/>\n'
    )
    for vx, vy in verts:
        parts.append(
            f'  <circle cx="{_fmt(vx)}" cy="{_fmt(vy)}" r="{r}" '
            f'fill="{stroke}" opacity="{_fmt(opacity)}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def write_frame_set(
    directory: str | Path,
    frames: list[np.ndarray],
    energy_rows: list[tuple] | None = None,
) -> None:
    """Write frames, ghost-overlay summary, and the optional energy table.

    ``energy_rows`` are (iteration, energy, log_energy, min_turn_angle)
    tuples; floats are printed with 17 significant digits so reruns are
    byte-identical.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    viewbox = union_viewbox(frames)

    for i, verts in enumerate(frames):
        path = directory / f"frame_{i:05d}.svg"
        path.write_text(_frame_svg(verts, viewbox, stroke="#1f6fb2"))

    x, y, w, h = viewbox
    parts = [SVG_HEADER.format(vb=f"{_fmt(x)} {_fmt(y)} {_fmt(w)} {_fmt(h)}")]
    count = len(frames)
    for i, verts in enumerate(frames):
        t = i / max(count - 1, 1)
        opacity = 0.15 + 0.85 * t  # early frames ghosted, final solid
        parts.append(
            f'  <path d="{_polygon_path(verts)}" fill="none" stroke="#1f6fb2" '
            f'stroke-width="{_fmt(0.004 * math.hypot(w, h))}" '
            f'opacity="{_fmt(opacity)}"/>\n'
        )
    parts.append("</svg>\n")
    (directory / "summary.svg").write_text("".join(parts))

    if energy_rows is not None:
        lines = ["iteration,E,log_E,min_turn_angle"]
        for it, e, log_e, min_t in energy_rows:
            lines.append(
                f"{it},{format(e, '.17g')},{format(log_e, '.17g')},"
                f"{format(min_t, '.17g')}"
            )
        (directory / "energy.csv").write_text("\n".join(lines) + "\n")
