"""Numeric realization of fronts, and SVG and ASCII rendering.

A front diagram is realized as a family of parametric arcs (x(t), z(t))
built from cubic Hermite pieces: event k sits at x = k + 1, a strand at
position p of n occupies the level (p - (n+1)/2) * SPACING at the middle
of its slot.  One replay of the strand stack, event by event, gives every
arc its knots at the middles of the slots it spans; the arc's ends come
from the event positions and the strand profile.  Cusp ends use the
semicubical local model (x ~ t^2, z ~ t^3, so branches meet with a common
horizontal tangent); crossing ends meet at one point with slopes
+-CROSSING_SLOPE, the lower incoming strand rising, giving a transversality
gap of twice that.  The realization takes no setting and needs no numpy;
``lifting`` samples it.  A realization is the ``NamedTuple``
``(diagram, curves)``, and each piece of an arc's curve the ``NamedTuple``
``(cx, cz)`` of its two coefficient 4-tuples, so ``numpy.array`` of an arc's
pieces is their coefficient array.

The SVG draws the realization exactly, x rightward and z upward:
each arc is one path, one cubic Bézier segment per realized piece, SCALE =
60 SVG units per front unit, on the box of the control points plus a margin
(by the convex-hull property it holds every curve).  At each crossing the
strand of lesser slope is redrawn over a white disk, from the exact last
and first quarters of its two arcs.
The ASCII sketch draws each slot's strand count and each event on a
character grid.
"""

from __future__ import annotations

from typing import NamedTuple

from .fronts import CROSS, LEFT, RIGHT, ComponentDecomposition, FrontDiagram, trace_components

SCALE = 60.0  # SVG units per front unit
SPACING = 1.0  # vertical distance between adjacent strand levels
CROSSING_SLOPE = 0.5  # each branch leaves a crossing at +-this slope
CUSP_REACH = 0.3  # fraction of the first piece taken by the cusp model


class CubicPiece(NamedTuple):
    """x(t), z(t) cubics on t in [0, 1], stored as coefficient tuples (c0..c3)."""

    cx: tuple[float, float, float, float]
    cz: tuple[float, float, float, float]


def _hermite(p0: float, v0: float, p1: float, v1: float) -> tuple[float, float, float, float]:
    # cubic with value/derivative prescribed at t = 0, 1
    return (p0, v0, 3 * (p1 - p0) - 2 * v0 - v1, 2 * (p0 - p1) + v0 + v1)


class RealizedFront(NamedTuple):
    diagram: FrontDiagram
    curves: tuple[tuple[CubicPiece, ...], ...]  # arc a's pieces, indexed by arc

    @property
    def trace(self) -> ComponentDecomposition:
        return trace_components(self.diagram)


def realize_front(d: FrontDiagram) -> RealizedFront:
    """Build a generic planar realization with semicubical cusps."""
    tr = trace_components(d)
    events, counts = d.events, d.strand_profile

    def level(p: int, n: int) -> float:
        # position p of n strands, centered per slot
        return (p - (n + 1) / 2.0) * SPACING

    # one replay of the stack: mids[a] holds arc a's front point at the
    # middle of every slot it spans; arcs are made in pairs, in event order
    mids: list[list[tuple[float, float]]] = [[] for _ in tr.born]
    stack: list[int] = []
    made = 0
    for k, ev in enumerate(events):
        p = ev.position
        if ev.kind == RIGHT:
            del stack[p - 1 : p + 1]
        else:
            stack[p - 1 : p - 1 if ev.kind == LEFT else p + 1] = (made, made + 1)
            made += 2
        for q, a in enumerate(stack, 1):
            mids[a].append((k + 1.5, level(q, len(stack))))
    in_lower = dict(zip(tr.crossing_event, tr.in_lower))

    def endpoint(a: int, k: int, born: bool):
        """(x, z, slope, is_cusp) where arc a is born or dies, at event k."""
        ev, n = events[k], counts[k + 1 if born else k]
        z = (level(ev.position, n) + level(ev.position + 1, n)) / 2
        if ev.kind != CROSS:
            return float(k + 1), z, 0.0, True
        # out_upper (the odd arc of a pair) and in_lower run at +m, out_lower
        # and in_upper at -m
        up = a % 2 == 1 if born else in_lower[k] == a
        return float(k + 1), z, CROSSING_SLOPE if up else -CROSSING_SLOPE, False

    curves = []
    for a, (born, died) in enumerate(zip(tr.born, tr.died)):
        x0, z0, s0, cusp0 = endpoint(a, born, True)
        x1, z1, s1, cusp1 = endpoint(a, died, False)
        pts = [(x0, z0), *mids[a], (x1, z1)]
        # a chain of Hermite pieces through (x, z, slope) knots; a cusp end
        # takes a semicubical piece up to the chain's end knot
        head, tail = (x0, z0, s0), (x1, z1, s1)
        pieces: list[CubicPiece] = []
        if cusp0:
            head = _cusp_end(x0, z0, *pts[1])
            pieces.append(_cusp_piece(x0, z0, *head[:2]))
        if cusp1:
            tail = _cusp_end(x1, z1, *pts[-2])
        chain = [head, *((ax, az, (zn - zp) / (xn - xp))
                         for (xp, zp), (ax, az), (xn, zn) in zip(pts, pts[1:], pts[2:])), tail]
        for (xa, za, sa), (xb, zb, sb) in zip(chain, chain[1:]):
            dx = xb - xa
            pieces.append(CubicPiece(_hermite(xa, dx, xb, dx),
                                     _hermite(za, sa * dx, zb, sb * dx)))
        if cusp1:
            pieces.append(_cusp_piece(x1, z1, *tail[:2], reverse=True))
        curves.append(tuple(pieces))

    return RealizedFront(diagram=d, curves=tuple(curves))


def _cusp_end(xc: float, zc: float, xn: float, zn: float) -> tuple[float, float, float]:
    """(x, z, slope) where a cusp at (xc, zc) hands over to the chain that
    runs on to the knot (xn, zn), CUSP_REACH of the way."""
    h = CUSP_REACH * (xn - xc)
    kk = (zn - zc) / (xn - xc) * h / 3.0
    return xc + h, zc + kk, 3 * kk / h if h else 0.0


def _cusp_piece(xc: float, zc: float, xe: float, ze: float, reverse: bool = False) -> CubicPiece:
    """x(t) = xc +- h t^2 (2 - t), z(t) = zc + (ze - zc) t^3 from the cusp
    (xc, zc) to (xe, ze), h = |xe - xc|; reparameterized t -> 1 - t if reverse."""
    h = abs(xe - xc)
    cx = (xc, 0.0, 2 * h, -h) if xe > xc else (xc, 0.0, -2 * h, h)
    cz = (zc, 0.0, 0.0, ze - zc)
    if reverse:
        cx, cz = _reverse_cubic(cx), _reverse_cubic(cz)
    return CubicPiece(cx, cz)


def _reverse_cubic(c: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Coefficients of p(1 - t) given those of p(t)."""
    c0, c1, c2, c3 = c
    return (
        c0 + c1 + c2 + c3,
        -(c1 + 2 * c2 + 3 * c3),
        c2 + 3 * c3,
        -c3,
    )


# ---------------------------------------------------------------------------
# Drawing


def _bezier(c: tuple[float, float, float, float], a: float, b: float) -> tuple[float, ...]:
    """Bézier control values of the cubic with power-basis coefficients c on
    t in [a, b]: the end values, each moved by (b - a) / 3 of its derivative."""
    c0, c1, c2, c3 = c
    pa, pb = c0 + a * (c1 + a * (c2 + a * c3)), c0 + b * (c1 + b * (c2 + b * c3))
    va, vb = c1 + a * (2 * c2 + 3 * a * c3), c1 + b * (2 * c2 + 3 * b * c3)
    return pa, pa + (b - a) / 3 * va, pb - (b - a) / 3 * vb, pb


def _controls(pieces: tuple[CubicPiece, ...], lo: float = 0.0,
              hi: float = 1.0) -> list[tuple[float, float]]:
    """The arc's (x, z) control points on parameter [lo, hi]: the start, then
    P1 P2 P3 of each piece's share, piece k of n covering [k / n, (k + 1) / n]."""
    n = len(pieces)
    pts = []
    for k, p in enumerate(pieces):
        a, b = max(lo * n - k, 0.0), min(hi * n - k, 1.0)
        if a < b:
            pts += list(zip(_bezier(p.cx, a, b), _bezier(p.cz, a, b)))[1 if pts else 0:]
    return pts


def render_svg(d: FrontDiagram) -> str:
    """A standalone SVG 1.1 document of the realized front, SCALE per unit."""
    rf = realize_front(d)
    ctrl = [_controls(pieces) for pieces in rf.curves]  # indexed by arc
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
    tr = rf.trace
    for k, in_lower, in_upper, out_lower in zip(tr.crossing_event, tr.in_lower, tr.in_upper,
                                                tr.out_lower):
        cx, cz = (k + 1 - x0) * SCALE, (z1 - ctrl[in_lower][-1][1]) * SCALE
        paths.append(f'<circle cx="{cx:.2f}" cy="{cz:.2f}" r="{0.18 * SCALE:.2f}" fill="white"/>')
        # lesser slope = the in_upper -> out_lower chain
        paths.append(path_of(_controls(rf.curves[in_upper], lo=0.75)))
        paths.append(path_of(_controls(rf.curves[out_lower], hi=0.25)))
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
