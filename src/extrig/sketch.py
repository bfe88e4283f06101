"""Minimal SVG rendering of frameworks and velocity fields.

Plane frameworks are drawn natively, line frameworks along the x axis;
higher-dimensional ones are projected orthographically onto the first two
coordinates (hyperplane traces are then omitted).
"""
from __future__ import annotations

import numpy as np

from .frameworks import Framework
from .rigidity import CoordinateIndex


SIZE = 480   # width and height of the drawing, in pixels


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _plane(rows: np.ndarray) -> np.ndarray:
    """The first two columns of ``rows``; a line's (d = 1) one column padded with zeros."""
    out = np.zeros((len(rows), 2))
    out[:, :rows.shape[1]] = rows[:, :2]
    return out


def render_svg(fw: Framework, flex=None) -> str:
    """SVG drawing of the framework; ``flex`` is an optional full-coordinate
    velocity vector drawn as arrows at the point vertices."""
    pts2 = _plane(fw.config.points)
    lo = pts2.min(axis=0) if len(pts2) else np.zeros(2)
    hi = pts2.max(axis=0) if len(pts2) else np.ones(2)
    span = float(max(hi - lo)) or 1.0
    margin = 0.2 * span
    lo, hi = lo - margin, hi + margin
    scale = SIZE / float(max(hi - lo))

    def to_px(p):
        return (p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
             f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
             '<defs><marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
             'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#b22"/></marker></defs>']

    if fw.dim == 2:
        for w in fw.graph.hyperplanes:
            a, r = fw.hyperplane(w)
            # clip the line <a,x> = r to the viewbox by sampling along its direction
            direction = np.array([-a[1], a[0]]) / np.linalg.norm(a)
            base = a * (r / float(np.dot(a, a)))
            reach = 2.0 * float(max(hi - lo))
            p0, p1 = base - reach * direction, base + reach * direction
            (x0, y0), (x1, y1) = to_px(p0), to_px(p1)
            lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                         'stroke="#888" stroke-width="1.5"/>')

    pos = dict(zip(fw.graph.points, pts2))
    for u, v in fw.graph.edges_pp:
        (x0, y0), (x1, y1) = to_px(pos[u]), to_px(pos[v])
        lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                     'stroke="#222" stroke-width="2"/>')
    if fw.dim == 2:
        for p, w in fw.graph.edges_ph:
            a, r = fw.hyperplane(w)
            foot = pos[p] - (float(np.dot(a, pos[p])) - r) / float(np.dot(a, a)) * a
            (x0, y0), (x1, y1) = to_px(pos[p]), to_px(foot)
            lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                         'stroke="#777" stroke-width="1" stroke-dasharray="4,3"/>')

    if flex is not None:
        flex = np.asarray(flex, dtype=float)
        index = CoordinateIndex(fw)
        rows = np.array([flex[index.vertex_slice(v)] for v in fw.graph.points])
        vel = dict(zip(fw.graph.points, _plane(rows.reshape(-1, fw.dim))))
        vmax = max((float(np.linalg.norm(u)) for u in vel.values()), default=0.0)
        if vmax > 0.0:
            arrow = 0.15 * float(max(hi - lo)) / vmax
            for v, u in vel.items():
                if np.linalg.norm(u) < 1e-12 * vmax:
                    continue
                (x0, y0), (x1, y1) = to_px(pos[v]), to_px(pos[v] + arrow * u)
                lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
                             f'y2="{_fmt(y1)}" stroke="#b22" stroke-width="2" '
                             'marker-end="url(#tip)"/>')

    for v in fw.graph.points:
        x, y = to_px(pos[v])
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#fff" '
                     'stroke="#222" stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
