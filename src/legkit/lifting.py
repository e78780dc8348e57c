"""Numeric realization of fronts and Legendrian lifting.

A front diagram is realized as a family of parametric arcs (x(t), z(t))
built from cubic Hermite pieces: event k sits at x = k + 1, a strand at
position p of n occupies the level (p - (n+1)/2) * spacing at the middle
of its slot.  Cusp ends use the semicubical local model (x ~ t^2,
z ~ t^3, so branches meet with a common horizontal tangent); crossing
ends meet at one point with slopes +-crossing_slope, giving a
transversality gap of twice that.

The Legendrian lift adds y = dz/dx and follows a component's cycle from the
trace: its arcs in default order from the lowest one or, for a reversed
component, that arc and then the others backwards, each sampled in its
oriented direction.  For a closed component the lift must satisfy
dz = y dx, so the closure integral of y dx vanishes up to quadrature error,
and the winding number of the Lagrangian-projection tangent recovers the
combinatorial rotation number.  Each cubic piece is
sampled at an even number of uniform parameter steps, so every two-step
panel of the lifted curve lies inside one piece; the integral of y dx over a
panel is that of the quadratic interpolants of x and y through its three
samples, a fourth-order rule, exact where x and y are quadratic in the
parameter.  The double points of the Lagrangian projection come from a
sorted sweep over its segments, a crossing through sample vertices counted
once; each must split the curve into two lobes of nonzero area.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DegenerateTangent,
    GeometryDegenerate,
    NotClosed,
)
from .fronts import (
    LEFT,
    RIGHT,
    ComponentDecomposition,
    FrontDiagram,
    OrientedFront,
    trace_components,
)


@dataclass(frozen=True)
class GeomParams:
    spacing: float = 1.0  # vertical distance between adjacent strand levels
    crossing_slope: float = 0.5  # each branch leaves a crossing at +-this slope
    cusp_reach: float = 0.3  # fraction of the first piece taken by the cusp model
    # Sample density per arc, rounded down to an even number of steps per
    # piece.  The three-point panel rule's closure error scales as
    # (pieces / samples)^4; at this density the closure integral and the
    # residual stay at or below 3.1e-11 of the curve diameter on the
    # acceptance grid and 3.7e-11 on catalog (-31, 0), at least 27x inside
    # the 1e-9 bound.
    samples_per_arc: int = 4000
    slope_margin: float = 0.1  # minimal slope gap at a crossing


@dataclass(frozen=True)
class CubicPiece:
    """x(t), z(t) cubics on t in [0, 1], stored as coefficient tuples (c0..c3)."""

    cx: tuple[float, float, float, float]
    cz: tuple[float, float, float, float]


def _hermite(p0: float, v0: float, p1: float, v1: float) -> tuple[float, float, float, float]:
    # cubic with value/derivative prescribed at t = 0, 1
    c0 = p0
    c1 = v0
    c2 = 3 * (p1 - p0) - 2 * v0 - v1
    c3 = 2 * (p0 - p1) + v0 + v1
    return (c0, c1, c2, c3)


@dataclass(frozen=True)
class ArcCurve:
    arc: int
    pieces: tuple[CubicPiece, ...]

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (x, z, y) at uniform parameter steps, endpoints included.

        Every piece gets the same even number of steps, about n / pieces, so
        the arc has an even number of steps and each piece starts at an even
        sample index.
        """
        per = max(2, (n // len(self.pieces)) & ~1)
        t = np.linspace(0.0, 1.0, per + 1)
        # coefficient k of every piece as a column, one row per piece
        c = np.array([p.cx for p in self.pieces]).T[:, :, None]
        d = np.array([p.cz for p in self.pieces]).T[:, :, None]
        x = c[0] + t * (c[1] + t * (c[2] + t * c[3]))
        z = d[0] + t * (d[1] + t * (d[2] + t * d[3]))
        dx = c[1] + t * (2 * c[2] + 3 * t * c[3])
        dz = d[1] + t * (2 * d[2] + 3 * t * d[3])
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(np.abs(dx) > 1e-14, dz / np.where(dx == 0, 1, dx), 0.0)
        # a piece's endpoint is the next piece's start; keep only the arc's last
        return tuple(np.append(a[:, :-1], a[-1, -1]) for a in (x, z, y))


@dataclass(frozen=True)
class RealizedFront:
    diagram: FrontDiagram
    params: GeomParams
    curves: tuple[ArcCurve, ...]  # indexed by arc

    @property
    def trace(self) -> ComponentDecomposition:
        return trace_components(self.diagram)


def _levels(tr: ComponentDecomposition, spacing: float) -> dict[tuple[int, int], float]:
    """(slot, position) -> z level, centered per slot."""
    out = {}
    for j, stack in enumerate(tr.stacks):
        n = len(stack)
        for p in range(1, n + 1):
            out[(j, p)] = (p - (n + 1) / 2.0) * spacing
    return out


def realize_front(d: FrontDiagram, params: GeomParams = GeomParams()) -> RealizedFront:
    """Build a generic planar realization with semicubical cusps."""
    if params.samples_per_arc < 2:
        raise GeometryDegenerate(f"samples_per_arc {params.samples_per_arc} below 2")
    if params.crossing_slope * 2 < params.slope_margin:
        raise GeometryDegenerate(
            f"crossing slope gap {2 * params.crossing_slope} below margin {params.slope_margin}"
        )
    tr = trace_components(d)
    lv = _levels(tr, params.spacing)
    events = d.events

    def event_x(k: int) -> float:
        return float(k + 1)

    # endpoint geometry per arc: (x, z, kind, slope)
    def endpoint(arc_idx: int, end: str):
        a = tr.arcs[arc_idx]
        if end == "born":
            k = a.born
            ev = events[k]
            if ev.kind == LEFT:
                zl = lv[(k + 1, ev.position)]
                zu = lv[(k + 1, ev.position + 1)]
                return event_x(k), (zl + zu) / 2, "cusp", 0.0
            # crossing: out_lower continues in_upper (slope -m), out_upper in_lower (+m)
            z = (lv[(k + 1, ev.position)] + lv[(k + 1, ev.position + 1)]) / 2
            slope = params.crossing_slope if a.role == 1 else -params.crossing_slope
            return event_x(k), z, "cross", slope
        k = a.died
        ev = events[k]
        if ev.kind == RIGHT:
            zl = lv[(k, ev.position)]
            zu = lv[(k, ev.position + 1)]
            return event_x(k), (zl + zu) / 2, "cusp", 0.0
        z = (lv[(k, ev.position)] + lv[(k, ev.position + 1)]) / 2
        # in_lower leaves upward (+m), in_upper downward (-m)
        in_lower = tr.stacks[k][ev.position - 1] == arc_idx
        slope = params.crossing_slope if in_lower else -params.crossing_slope
        return event_x(k), z, "cross", slope

    curves = []
    for a in tr.arcs:
        x0, z0, kind0, s0 = endpoint(a.index, "born")
        x1, z1, kind1, s1 = endpoint(a.index, "died")
        anchors = []
        for j in range(a.born + 1, a.died + 1):
            p = tr.stacks[j].index(a.index) + 1
            anchors.append((j + 0.5, lv[(j, p)]))
        knots: list[tuple[float, float, Optional[float]]] = [(x0, z0, None)]
        knots += [(ax, az, None) for ax, az in anchors]
        knots.append((x1, z1, None))

        # expand cusp ends into a dedicated semicubical piece
        pieces: list[CubicPiece] = []
        pts = [(x, z) for x, z, _ in knots]
        # head cusp
        head_extra = None
        if kind0 == "cusp":
            nx, nz = pts[1]
            h = params.cusp_reach * (nx - x0)
            target = (nz - z0) / (nx - x0)
            kk = target * h / 3.0
            head_extra = (x0 + h, z0 + kk, 3 * kk / h if h else 0.0)
        tail_extra = None
        if kind1 == "cusp":
            px, pz = pts[-2]
            h = params.cusp_reach * (x1 - px)
            target = (z1 - pz) / (x1 - px)
            kk = target * h / 3.0
            tail_extra = (x1 - h, z1 - kk, 3 * kk / h if h else 0.0)

        # assemble pieces: head, inner chain, tail
        def cusp_piece(xc, zc, xe, ze, reverse):
            h = abs(xe - xc)
            # x(t) = xc +- h t^2 (2 - t); z(t) = zc + (ze - zc) t^3 (forward)
            if not reverse:
                cx = (xc, 0.0, 2 * h, -h) if xe > xc else (xc, 0.0, -2 * h, h)
                cz = (zc, 0.0, 0.0, ze - zc)
            else:
                # built backwards then reparameterized t -> 1 - t
                cx_f = (xe, 0.0, 2 * h, -h) if xc > xe else (xe, 0.0, -2 * h, h)
                cz_f = (ze, 0.0, 0.0, zc - ze)
                cx = _reverse_cubic(cx_f)
                cz = _reverse_cubic(cz_f)
            return CubicPiece(cx, cz)

        chain: list[tuple[float, float, float]] = []
        if kind0 == "cusp":
            xe, ze, _ = head_extra
            pieces.append(cusp_piece(x0, z0, xe, ze, reverse=False))
            chain.append(head_extra)
        else:
            chain.append((x0, z0, s0))
        for (x_prev, z_prev), (ax, az), (x_next, z_next) in zip(pts, pts[1:], pts[2:]):
            chain.append((ax, az, (z_next - z_prev) / (x_next - x_prev)))
        if kind1 == "cusp":
            chain.append(tail_extra)
        else:
            chain.append((x1, z1, s1))
        for (xa, za, sa), (xb, zb, sb) in zip(chain, chain[1:]):
            dx = xb - xa
            pieces.append(
                CubicPiece(_hermite(xa, dx, xb, dx), _hermite(za, sa * dx, zb, sb * dx))
            )
        if kind1 == "cusp":
            xe, ze, _ = tail_extra
            pieces.append(cusp_piece(xe, ze, x1, z1, reverse=True))

        curves.append(ArcCurve(arc=a.index, pieces=tuple(pieces)))

    return RealizedFront(diagram=d, params=params, curves=tuple(curves))


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
# Lifting


@dataclass(frozen=True)
class LiftedCurve:
    """Closed polyline (x, y, z) with y the front slope; one component.

    The arrays are read-only copies, so the panel terms and the winding
    number are computed once per curve and cannot go stale.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    closed: bool = True

    def __post_init__(self):
        for name in ("x", "y", "z"):
            a = np.array(getattr(self, name), float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @staticmethod
    def from_samples(x, y, z, closed=True) -> "LiftedCurve":
        return LiftedCurve(x, y, z, closed)

    def diameter(self) -> float:
        return float(
            max(np.ptp(self.x), np.ptp(self.z), np.ptp(self.y), 1e-30)
        )

    @cached_property
    def panel_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(dz, ydx) per panel of two steps: the rise of z and the integral
        of y dx over the quadratic interpolants of x and y through the
        panel's three samples.  An odd last step is one trapezoid panel."""
        x, y, z = self.x, self.y, self.z
        if self.closed:
            x, y, z = (np.append(a, a[0]) for a in (x, y, z))
        n = (len(x) - 1) & ~1  # steps covered by two-step panels
        x0, x1, x2 = x[0:n:2], x[1:n:2], x[2 : n + 1 : 2]
        y0, y1, y2 = y[0:n:2], y[1:n:2], y[2 : n + 1 : 2]
        ydx = (y1 * (x2 - x0) + (x0 - 2 * x1 + x2) * (y2 - y0) / 3
               + (y0 - 2 * y1 + y2) * (x2 - x0) / 6)
        dz = z[2 : n + 1 : 2] - z[0:n:2]
        if len(x) - 1 > n:
            ydx = np.append(ydx, (y[-1] + y[-2]) / 2 * (x[-1] - x[-2]))
            dz = np.append(dz, z[-1] - z[-2])
        return dz, ydx

    def closure_integral(self) -> float:
        """Circulation of y dx around the curve, by the three-point panel rule."""
        return float(np.sum(self.panel_terms[1]))

    def legendrian_residual(self) -> float:
        """Max per-panel violation of dz = y dx under the three-point rule."""
        dz, ydx = self.panel_terms
        return float(np.max(np.abs(dz - ydx), initial=0.0))

    @cached_property
    def winding(self) -> float:
        """Raw winding number of the Lagrangian-projection tangent."""
        # The page is oriented so that the combinatorial cusp-count convention
        # (kappa positive on rising cusps) and the tangent winding agree: the
        # Lagrangian plane is traversed with y measured downward.
        stride = max(1, len(self.x) // 200_000)
        x, y = self.x[::stride], -self.y[::stride]
        if self.closed:
            x = np.append(x, x[0])
            y = np.append(y, y[0])
        dx = np.diff(x)
        dy = np.diff(y)
        norms = np.hypot(dx, dy)
        keep = norms > 1e-13 * max(1.0, float(np.max(norms)))
        dx, dy = dx[keep], dy[keep]
        if len(dx) < 3:
            raise DegenerateTangent("not enough distinct samples for a winding number")
        ang = np.arctan2(dy, dx)
        turns = np.diff(np.concatenate([ang, ang[:1]]))
        turns = (turns + np.pi) % (2 * np.pi) - np.pi
        return float(np.sum(turns)) / (2 * np.pi)


def legendrian_lift(
    rf: RealizedFront, comp: int = 0, of: Optional[OrientedFront] = None
) -> LiftedCurve:
    """Lift one component to a closed (x, y, z) polyline following its orientation."""
    tr = rf.trace
    if not 0 <= comp < tr.n_components:
        raise NotClosed(f"no component {comp}")
    if of is None:
        of = OrientedFront.default(rf.diagram)
    dirs = of.directions
    cycle = tr.cycles[comp]
    if not dirs[cycle[0]]:
        # reversed: the same first arc, then the others backwards
        cycle = cycle[:1] + cycle[:0:-1]
    xs, ys, zs = [], [], []
    for arc in cycle:
        x, z, y = rf.curves[arc].sample(rf.params.samples_per_arc)
        if not dirs[arc]:
            x, z, y = x[::-1], z[::-1], y[::-1]
        # the last sample is the next arc's first; every arc has an even
        # number of steps, so every piece starts at an even index
        xs.append(x[:-1])
        ys.append(y[:-1])
        zs.append(z[:-1])
    return LiftedCurve(np.concatenate(xs), np.concatenate(ys), np.concatenate(zs))


def lagrangian_closure_integral(lc: LiftedCurve) -> float:
    """Algebraic area integral of the Lagrangian projection; 0 for genuine lifts."""
    return lc.closure_integral()


def numeric_rotation(lc: LiftedCurve) -> int:
    """Winding number of the Lagrangian-projection tangent, rounded to int."""
    return int(round(lc.winding))


def rotation_residual(lc: LiftedCurve) -> float:
    """Distance of the raw winding number from the nearest integer."""
    return abs(lc.winding - round(lc.winding))


# Candidate segment pairs are expanded at most this many at a time (or one
# sorted segment's worth, if more), so a curve whose segments all overlap in
# x never materialises all n^2/2 pairs at once.
_SWEEP_CHUNK = 1 << 16


@dataclass(frozen=True)
class DoublePointReport:
    point: tuple[float, float]
    area_one: float
    area_two: float
    flagged: bool


@dataclass(frozen=True)
class EmbeddednessReport:
    double_points: tuple[DoublePointReport, ...]
    tolerance: float

    @property
    def embedded(self) -> bool:
        return not any(p.flagged for p in self.double_points)


def lagrangian_embeddedness_check(
    lc: LiftedCurve, tolerance: float = 1e-6, max_segments: int = 2000
) -> EmbeddednessReport:
    """Split-area test: each Lagrangian double point must bound two loops of
    nonzero algebraic area.

    The double points come from a sorted sweep over the polyline's segments:
    sorted by their smallest x, each segment is paired with the later ones
    that start before it ends, pairs with disjoint y-ranges are dropped, and
    one vectorized intersection test runs over the rest.  Two segments cross
    when each has its endpoints on opposite sides of the other's line, with a
    point on a line counted on its left, so a crossing through sample
    vertices is counted once.  Reports are ordered by the indices (i, j),
    i < j, of the two crossing segments.
    """
    step = max(1, len(lc.x) // max_segments)
    x = np.append(lc.x[::step], lc.x[0])
    y = np.append(lc.y[::step], lc.y[0])
    n = len(x) - 1
    p = np.stack([x[:-1], y[:-1]], axis=1)
    q = np.stack([x[1:], y[1:]], axis=1)
    d = q - p
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    # sorted segment a overlaps in x exactly the sorted segments a+1 .. end[a]-1
    end = np.searchsorted(lo[:, 0], hi[:, 0], side="right")
    counts = end - np.arange(1, n + 1)
    cum = np.cumsum(counts)
    first = cum - counts  # offset of row a among all candidate pairs
    found_i, found_j, found_t = [], [], []
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(cum, first[start] + _SWEEP_CHUNK, side="right")))
        rows = counts[start:stop]
        a = np.repeat(np.arange(start, stop), rows)
        b = a + 1 + np.arange(len(a)) - np.repeat(first[start:stop] - first[start], rows)
        start = stop
        keep = (lo[b, 1] <= hi[a, 1]) & (lo[a, 1] <= hi[b, 1])
        i = np.minimum(order[a[keep]], order[b[keep]])
        j = np.maximum(order[a[keep]], order[b[keep]])
        # adjacent segments share an endpoint; so do segment 0 and the closing one
        keep = (j >= i + 2) & ~((i == 0) & (j == n - 1))
        i, j = i[keep], j[keep]
        d1, d2 = d[i], d[j]
        denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        # a rounded side test may still split nearly collinear parallel
        # segments; those have no crossing parameter
        hit = ((_left_of(p[i], d1, p[j]) != _left_of(p[i], d1, q[j]))
               & (_left_of(p[j], d2, p[i]) != _left_of(p[j], d2, q[i])) & (denom != 0))
        i, j, d2, denom = i[hit], j[hit], d2[hit], denom[hit]
        rel = p[j] - p[i]
        found_i.append(i)
        found_j.append(j)
        found_t.append((rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / denom)
    i, j, t = (np.concatenate(v) for v in (found_i, found_j, found_t))
    scale = max(np.ptp(lc.x) * np.ptp(lc.y), 1e-30)
    reports = []
    for k in np.lexsort((j, i)):
        ik, jk = int(i[k]), int(j[k])
        pt = p[ik] + t[k] * d[ik]
        a1 = _shoelace(np.vstack([[pt], p[ik + 1 : jk + 1], [pt]]))
        a2 = _shoelace(np.vstack([[pt], p[jk + 1 :], p[: ik + 1], [pt]]))
        reports.append(
            DoublePointReport(point=(float(pt[0]), float(pt[1])), area_one=a1, area_two=a2,
                              flagged=bool(min(abs(a1), abs(a2)) < tolerance * scale))
        )
    return EmbeddednessReport(double_points=tuple(reports), tolerance=tolerance)


def _left_of(a: np.ndarray, da: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether each point c lies on or left of the line through a along da.

    A point on the line counts as left, so a crossing through a vertex that
    two segments of one polyline share hits exactly one of them.
    """
    return da[:, 0] * (c[:, 1] - a[:, 1]) - da[:, 1] * (c[:, 0] - a[:, 0]) >= 0


def _shoelace(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def lift_csv(lc: LiftedCurve) -> str:
    """CSV dump of the sampled space curve, 17 significant digits."""
    rows = zip(lc.x.tolist(), lc.y.tolist(), lc.z.tolist())
    return "\n".join(["x,y,z", *("%.17g,%.17g,%.17g" % row for row in rows)])
