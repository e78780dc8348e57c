"""SVG and ASCII rendering of front diagrams.

The SVG draws the numeric realization exactly, x rightward and z upward:
each arc is one path, one cubic Bézier segment per realized piece, SCALE =
60 SVG units per front unit, on the box of the control points plus a margin
(by the convex-hull property it holds every curve).  At each crossing the
strand of lesser slope is redrawn over a white disk, from the exact last
and first quarters of its two arcs.
The ASCII sketch draws each slot's strand count and each event on a
character grid.
"""

from __future__ import annotations

from .fronts import CROSS, LEFT, RIGHT, FrontDiagram
from .lifting import ArcCurve, realize_front

SCALE = 60.0  # SVG units per front unit


def _bezier(c: tuple[float, float, float, float], a: float, b: float) -> tuple[float, ...]:
    """Bézier control values of the cubic with power-basis coefficients c on
    t in [a, b]: the end values, each moved by (b - a) / 3 of its derivative."""
    c0, c1, c2, c3 = c
    pa, pb = c0 + a * (c1 + a * (c2 + a * c3)), c0 + b * (c1 + b * (c2 + b * c3))
    va, vb = c1 + a * (2 * c2 + 3 * a * c3), c1 + b * (2 * c2 + 3 * b * c3)
    return pa, pa + (b - a) / 3 * va, pb - (b - a) / 3 * vb, pb


def _controls(curve: ArcCurve, lo: float = 0.0, hi: float = 1.0) -> list[tuple[float, float]]:
    """The arc's (x, z) control points on parameter [lo, hi]: the start, then
    P1 P2 P3 of each piece's share, piece k of n covering [k / n, (k + 1) / n]."""
    n = len(curve.pieces)
    pts = []
    for k, p in enumerate(curve.pieces):
        a, b = max(lo * n - k, 0.0), min(hi * n - k, 1.0)
        if a < b:
            pts += list(zip(_bezier(p.cx, a, b), _bezier(p.cz, a, b)))[1 if pts else 0:]
    return pts


def render_svg(d: FrontDiagram) -> str:
    """A standalone SVG 1.1 document of the realized front, SCALE per unit."""
    rf = realize_front(d)
    ctrl = [_controls(curve) for curve in rf.curves]  # indexed by arc
    xs, zs = zip(*(q for pts in ctrl for q in pts))
    x0, x1 = min(xs) - 0.5, max(xs) + 0.5
    z0, z1 = min(zs) - 0.5, max(zs) + 0.5
    width, height = (x1 - x0) * SCALE, (z1 - z0) * SCALE

    def path_of(pts):
        coords = tuple(v for x, z in pts for v in ((x - x0) * SCALE, (z1 - z) * SCALE))
        cmds = ("M%.2f,%.2f" + " C%.2f,%.2f %.2f,%.2f %.2f,%.2f" * (len(pts) // 3)) % coords
        return f'<path d="{cmds}" fill="none" stroke="black" stroke-width="2"/>'

    paths = [path_of(pts) for pts in ctrl]
    # crossing casings: over-strand (lesser slope) redrawn over a white disk
    for xr in rf.trace.crossings:
        cx, cz = (xr.event + 1 - x0) * SCALE, (z1 - ctrl[xr.in_lower][-1][1]) * SCALE
        paths.append(f'<circle cx="{cx:.2f}" cy="{cz:.2f}" r="{0.18 * SCALE:.2f}" fill="white"/>')
        # lesser slope = the in_upper -> out_lower chain
        paths.append(path_of(_controls(rf.curves[xr.in_upper], lo=0.75)))
        paths.append(path_of(_controls(rf.curves[xr.out_lower], hi=0.25)))
    body = "\n".join(paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">\n{body}\n</svg>'
    )


def render_ascii(d: FrontDiagram) -> str:
    """Character-grid sketch: '<' '>' cusps, 'X' crossings, '-' strands."""
    counts = d.strand_profile
    cell = 4
    # strand position p among n sits at level 2p - (n + 1), on row top - level
    top = max(max(counts) - 1, 1)
    grid = [[" "] * (cell * (len(d.events) + 1) + 4) for _ in range(2 * top + 1)]
    for j, n in enumerate(counts):
        for p in range(1, n + 1):
            grid[top - 2 * p + n + 1][cell * j + 2 : cell * j + 5] = "---"
    for k, ev in enumerate(d.events):
        col = cell * (k + 1) + 1
        # a cusp's apex or a crossing lies between the event's two strands
        row = top - 2 * ev.position + counts[k + 1 if ev.kind == LEFT else k]
        grid[row][col] = {LEFT: "<", RIGHT: ">", CROSS: "X"}[ev.kind]
        if ev.kind == CROSS:
            grid[row - 1][col - 1], grid[row - 1][col + 1] = "\\", "/"
            grid[row + 1][col - 1], grid[row + 1][col + 1] = "/", "\\"
    return "\n".join("".join(r).rstrip() for r in grid if "".join(r).strip())
