"""SVG and ASCII rendering of front diagrams.

SVG uses the numeric realization: x rightward, z upward, semicubical cusp
geometry, and a casing gap at each crossing so the strand of lesser slope
reads as the over-strand; each path is formatted from one array with one
``%`` operation.  The ASCII renderer draws the combinatorial stack on a
character grid.
"""

from __future__ import annotations

import numpy as np

from .fronts import CROSS, LEFT, RIGHT, FrontDiagram, trace_components
from .lifting import GeomParams, realize_front

_SVG_SAMPLES = 400


def render_svg(d: FrontDiagram, scale: float = 60.0) -> str:
    """A standalone SVG 1.1 document of the realized front."""
    params = GeomParams(samples_per_arc=_SVG_SAMPLES)
    rf = realize_front(d, params)
    tr = rf.trace
    xz = {curve.arc: curve.positions(_SVG_SAMPLES) for curve in rf.curves}
    all_x = np.concatenate([x for x, _ in xz.values()])
    all_z = np.concatenate([z for _, z in xz.values()])
    x0, x1 = float(all_x.min()) - 0.5, float(all_x.max()) + 0.5
    z0, z1 = float(all_z.min()) - 0.5, float(all_z.max()) + 0.5
    width = (x1 - x0) * scale
    height = (z1 - z0) * scale
    # page coordinates, one (n, 2) array per arc
    pts = {arc: np.stack(((x - x0) * scale, (z1 - z) * scale), axis=1)
           for arc, (x, z) in xz.items()}

    def path_of(arc, lo=0.0, hi=1.0):
        seg = pts[arc]
        n = len(seg)
        seg = seg[int(lo * (n - 1)):int(hi * (n - 1)) + 1]
        coords = ("%.2f,%.2f L" * len(seg))[:-2] % tuple(seg.ravel().tolist())
        return f'<path d="M{coords}" fill="none" stroke="black" stroke-width="2"/>'

    paths = [path_of(curve.arc) for curve in rf.curves]
    # crossing casings: over-strand (lesser slope) redrawn over a white disk
    for xr in tr.crossings:
        cx, cz = (xr.event + 1 - x0) * scale, pts[xr.in_lower][-1, 1]
        paths.append(f'<circle cx="{cx:.2f}" cy="{cz:.2f}" r="{0.18 * scale:.2f}" fill="white"/>')
        # lesser slope = the in_upper -> out_lower chain
        paths.append(path_of(xr.in_upper, lo=0.75))
        paths.append(path_of(xr.out_lower, hi=0.25))
    body = "\n".join(paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">\n{body}\n</svg>'
    )


def render_ascii(d: FrontDiagram) -> str:
    """Character-grid sketch: '<' '>' cusps, 'X' crossings, '-' strands."""
    tr = trace_components(d)
    m = len(d.events)
    cell = 4
    # level of strand position p among n strands: 2p - (n + 1)
    levels = []
    for stack in tr.stacks:
        n = len(stack)
        levels.append({p: 2 * p - (n + 1) for p in range(1, n + 1)})
    all_levels = [v for lv in levels for v in lv.values()]
    top = max(all_levels + [1])
    bot = min(all_levels + [-1])
    rows = top - bot + 1

    def row_of(level):
        return top - level

    cols = cell * (m + 1) + 4
    grid = [[" "] * cols for _ in range(rows)]
    for j in range(1, m + 1):
        c0, c1 = cell * j + 2, cell * j + 4
        for p, lv in levels[j].items():
            rr = row_of(lv)
            for c in range(c0, c1 + 1):
                grid[rr][c] = "-"
    for k, ev in enumerate(d.events):
        col = cell * (k + 1) + 1
        if ev.kind == LEFT:
            n_after = len(tr.stacks[k + 1])
            apex = 2 * ev.position - n_after  # between the two created levels
            grid[row_of(apex)][col] = "<"
        elif ev.kind == RIGHT:
            n_before = len(tr.stacks[k])
            apex = 2 * ev.position - n_before
            grid[row_of(apex)][col] = ">"
        else:
            n = len(tr.stacks[k])
            mid = 2 * ev.position - n
            grid[row_of(mid)][col] = "X"
            lo, hi = row_of(mid - 1), row_of(mid + 1)
            grid[hi][col - 1] = "\\"
            grid[lo][col - 1] = "/"
            grid[hi][col + 1] = "/"
            grid[lo][col + 1] = "\\"
    return "\n".join("".join(r).rstrip() for r in grid if "".join(r).strip())
