"""Legendrian lifting of realized fronts.

The realization, ``realize_front`` and its cubic pieces, lives in
``render``, which needs no numpy; ``realize_front`` is re-exported here.
The lift takes one setting, its sample density.  It adds y = dz/dx to the
realized arcs and follows a component's cycle from the trace: its arcs in
default order from the lowest one or, for a reversed component, that arc
and then the others backwards, each written in its oriented direction into
the curve's arrays.  Arcs of one step count share one parameter grid; an
arc's values and slopes of x and z are evaluated by Horner's rule in
place, one fresh array for the values and one for the slopes, and a slope
dz/dx is 0 where |dx| is not above 1e-14, NaN included.

For a closed component the lift must satisfy dz = y dx, so the closure
integral of y dx vanishes up to quadrature error, and the winding number of
the Lagrangian-projection tangent, its turns atan2(cross, dot) summed over
every edge, recovers the combinatorial rotation number.  Each cubic piece
is sampled at an even number of uniform parameter steps, so every two-step
panel of the lifted curve lies inside one piece; the integral of y dx over
a panel is that of the quadratic interpolants of x and y through its three
samples, a fourth-order rule, exact where x and y are quadratic in the
parameter.  The quadrature and the winding read blocks of _BLOCK panels or
edges, so no temporary array spans the curve.  The quadrature adds a
panel's second and third terms into its first in place.  The winding sums
each block's turns on their own; the turn from one block's last kept edge
to the next block's first is one scalar atan2.  The extents (np.ptp) of x
and y are computed once per curve and read by the winding's edge floor,
the embeddedness scale and the diameter.  A curve made from a caller's
arrays refuses anything but three non-empty 1-D real arrays of one length;
the lift's own arrays are not checked.

The double points of the Lagrangian projection come from a sorted sweep
over its segments, a crossing through sample vertices counted once; each
must split the curve into two lobes of nonzero area.  Both lobe areas of
every double point come from one prefix sum of the shoelace terms of the
subsampled polygon, so past the sweep's candidate pairs the check costs
O(n log n + hits).  The reports are ``NamedTuple``s, made in one pass over
the sweep's rows: a ``DoublePointReport`` is the tuple
``(point, area_one, area_two, flagged)``, so ``json.dumps`` writes a report
as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from numbers import Real
from typing import NamedTuple, Optional

import numpy as np

from .errors import BadDirection, DegenerateTangent, GeometryDegenerate
from .fronts import OrientedFront, _check_component
from .render import RealizedFront, realize_front


@dataclass(frozen=True)
class LiftedCurve:
    """Closed polyline (x, y, z) with y the front slope; one component.

    The arrays are read-only: copies of the arrays a caller passes in, or
    the lift's own fresh arrays, marked read-only without a copy.  So the
    closure integral, the residual and the winding number are computed once
    per curve and cannot go stale.  GeometryDegenerate unless a caller's x,
    y and z are three non-empty 1-D arrays of one length, of ints or floats
    (not bools, strings or complex numbers).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    closed: bool = True

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name)) for name in "xyz"]
        if (any(a.dtype.kind not in "iuf" or a.ndim != 1 for a in arrays)
                or not len(arrays[0]) or len({len(a) for a in arrays}) > 1):
            raise GeometryDegenerate("x, y and z must be non-empty 1-D real arrays of one length")
        for name, a in zip("xyz", arrays):
            a = np.array(a, float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def _owning(cls, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> "LiftedCurve":
        """A closed curve over fresh arrays no one else holds, not copied."""
        lc = cls.__new__(cls)
        lc.__dict__.update(x=x, y=y, z=z, closed=True)
        for a in (x, y, z):
            a.flags.writeable = False
        return lc

    @cached_property
    def _extents(self) -> tuple[float, float]:
        """np.ptp of x and of y, computed once for the winding, the
        embeddedness check and the diameter."""
        return float(np.ptp(self.x)), float(np.ptp(self.y))

    def diameter(self) -> float:
        return max(*self._extents, float(np.ptp(self.z)), 1e-30)

    @cached_property
    def _quadrature(self) -> tuple[float, float]:
        """(closure integral, residual), _BLOCK panels at a time; an odd last
        step is one trapezoid panel."""
        steps = len(self.x) - (not self.closed)
        closure = residual = 0.0
        for x, y, z in _windows((self.x, self.y, self.z), steps & ~1, 2 * _BLOCK):
            x0, x1, x2 = x[:-1:2], x[1::2], x[2::2]
            y0, y1, y2 = y[:-1:2], y[1::2], y[2::2]
            dx = x2 - x0
            ydx = y1 * dx
            ydx += (x0 - 2 * x1 + x2) * (y2 - y0) / 3
            ydx += (y0 - 2 * y1 + y2) * dx / 6
            closure += float(np.sum(ydx))
            dz = z[2::2] - z[:-1:2]
            dz -= ydx
            residual = max(residual, float(np.max(np.abs(dz, out=dz))))
        if steps % 2:
            (x0, x1), (y0, y1), (z0, z1) = (a[[steps - 1, steps % len(a)]].tolist()
                                            for a in (self.x, self.y, self.z))
            ydx = (y1 + y0) / 2 * (x1 - x0)
            closure, residual = closure + ydx, max(residual, abs(z1 - z0 - ydx))
        return closure, residual

    def closure_integral(self) -> float:
        """Circulation of y dx around the curve, by the three-point panel rule."""
        return self._quadrature[0]

    def legendrian_residual(self) -> float:
        """Max per-panel violation of dz = y dx under the three-point rule."""
        return self._quadrature[1]

    @cached_property
    def winding(self) -> float:
        """Raw winding number of the Lagrangian projection's tangent: its turns
        atan2(cross, dot) from edge to edge and from the last to the first,
        over edges longer than 1e-13 of the bounding-box diagonal, or of 1."""
        # y is measured downward, so that the winding and the combinatorial
        # cusp count (kappa positive on rising cusps) agree
        floor = 1e-26 * max(1.0, self._extents[0] ** 2 + self._extents[1] ** 2)
        kept, turns, first, last = 0, 0.0, None, None
        for x, y in _windows((self.x, self.y), len(self.x) - (not self.closed), _BLOCK):
            u, v = x[1:] - x[:-1], y[:-1] - y[1:]
            keep = u * u + v * v > floor
            if not keep.all():
                u, v = u[keep], v[keep]
            if len(u):
                kept += len(u)
                first = first or (u[0], v[0])
                # the turn into the block from the last one's last edge, then its own
                turns += float(_turns(*last, u[0], v[0])) if last else 0.0
                turns += float(np.sum(_turns(u[:-1], v[:-1], u[1:], v[1:])))
                last = u[-1], v[-1]
        if kept < 3:
            raise DegenerateTangent("not enough distinct samples for a winding number")
        return (turns + float(_turns(*last, *first))) / (2 * np.pi)


def _windows(arrays, stop: int, width: int):
    """Samples s .. min(s + width, stop) of each array, for s = 0, width, ...
    below stop; sample len(a) is sample 0."""
    for s in range(0, stop, width):
        e = min(s + width, stop) + 1
        yield tuple(a[s:e] if e <= len(a) else np.append(a[s:], a[0]) for a in arrays)


def _turns(u0, v0, u1, v1):
    """The turns atan2(cross, dot) from edges (u0, v0) to edges (u1, v1)."""
    return np.arctan2(u0 * v1 - v0 * u1, u0 * u1 + v0 * v1)


def _horner(acc: np.ndarray, t: np.ndarray, *coefs) -> np.ndarray:
    """acc + coefs[0], then times t plus each next coefficient: Horner's
    rule in its own order of operations, in place in acc."""
    acc += coefs[0]
    for c in coefs[1:]:
        acc *= t
        acc += c
    return acc


def legendrian_lift(rf: RealizedFront, comp: int = 0, of: Optional[OrientedFront] = None, *,
                    samples_per_arc: int = 4000) -> LiftedCurve:
    """Lift one component to a closed (x, y, z) polyline following its orientation.

    An arc of P pieces gets ``max(2, (samples_per_arc // min(P, 62)) & ~1)``
    uniform parameter steps per piece: about ``samples_per_arc`` samples
    over the arc, even per piece, and never fewer per piece than a 62-piece
    arc gets.  GeometryDegenerate if ``samples_per_arc`` is not an int of at
    least 2 (a bool is none), NotClosed if ``comp`` is not a component index,
    as in ``fronts``, and BadDirection if ``of`` orients a front with other
    events than ``rf``'s.  The panel rule's error scales as (steps per
    piece)^-4, so with the floor the error of the default lift does not grow
    with depth: closure and residual stay at or below 3.1e-11 of the
    diameter on the acceptance grid, 3.2e-11 on catalog (-31, 0), 1.9e-11
    on (-51, 0), 9.7e-12 on (-101, 0) and 4.9e-12 on (-201, 0), inside the
    1e-9 bound.
    """
    n = samples_per_arc
    if type(n) is not int:  # a bool is no count
        raise GeometryDegenerate(f"samples_per_arc {n!r} is not an integer")
    if n < 2:
        raise GeometryDegenerate(f"samples_per_arc {n} below 2")
    if of is None:
        of = OrientedFront.default(rf.diagram)
    elif of.diagram is not rf.diagram and of.diagram.events != rf.diagram.events:
        raise BadDirection("the orientation is of another front than the realized one")
    _check_component(of, comp)
    dirs = of.directions
    cycle = of.trace.cycles[comp]
    if not dirs[cycle[0]]:
        # reversed: the same first arc, then the others backwards
        cycle = cycle[:1] + cycle[:0:-1]
    steps = [max(2, (n // min(len(rf.curves[a]), 62)) & ~1) for a in cycle]
    # an arc's last sample is the next arc's first, which that arc writes; every
    # arc has an even number of steps, so every piece starts at an even index
    ends = np.cumsum([0] + [len(rf.curves[a]) * per for a, per in zip(cycle, steps)])
    x, y, z = (np.empty(int(ends[-1])) for _ in range(3))
    grids = {per: np.linspace(0.0, 1.0, per + 1) for per in set(steps)}
    for arc, per, s, e in zip(cycle, steps, ends.tolist(), ends[1:].tolist()):
        t = grids[per]
        # c[k] holds coefficient k of x and of z, one row per piece: the values
        # c0 + t (c1 + t (c2 + t c3)) and the slopes c1 + t (2 c2 + 3 t c3)
        c = np.array(rf.curves[arc]).T[..., None]
        xz = _horner(t * c[3], t, c[2], c[1], c[0])
        dx, dz = _horner(3 * t * c[3], t, 2 * c[2], c[1])
        slope = np.divide(dz, dx, out=np.zeros_like(dz), where=np.abs(dx) > 1e-14)  # 0 at NaN too
        for out, grid in zip((x, z, y), (*xz, slope)):
            if dirs[arc]:  # all but the arc's last sample
                out[s:e].reshape(-1, per)[...] = grid[:, :-1]
            else:  # backwards, all but the first: each piece ends at the next's start
                grid[:-1, -1] = grid[1:, 0]
                out[s:e][::-1].reshape(-1, per)[...] = grid[:, 1:]
    return LiftedCurve._owning(x, y, z)


def lagrangian_closure_integral(lc: LiftedCurve) -> float:
    """Algebraic area integral of the Lagrangian projection; 0 for genuine lifts."""
    return lc.closure_integral()


def numeric_rotation(lc: LiftedCurve) -> int:
    """Winding number of the Lagrangian-projection tangent, rounded to int."""
    return int(round(lc.winding))


def rotation_residual(lc: LiftedCurve) -> float:
    """Distance of the raw winding number from the nearest integer."""
    return abs(lc.winding - round(lc.winding))


_BLOCK = 8192  # edges or panels that the winding and the quadrature read at a time

# Candidate segment pairs are expanded at most this many at a time (or one
# sorted segment's worth, if more), so a curve whose segments all overlap in
# x never materialises all n^2/2 pairs at once.
_SWEEP_CHUNK = 1 << 16


class DoublePointReport(NamedTuple):
    point: tuple[float, float]
    area_one: float
    area_two: float
    flagged: bool


class EmbeddednessReport(NamedTuple):
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

    The lobe areas come from the prefix sums s of the shoelace terms
    p[m] x p[m+1] of the closed polyline: with pt the crossing point on
    segment i, lobe one is (pt x p[i+1] + s[j] - s[i+1] + p[j] x pt) / 2 and
    lobe two the rest of the curve, so beyond the sweep's candidate pairs
    the check costs O(n log n + hits) for n subsampled segments.  The areas
    differ from a per-lobe shoelace sum in the last digits only.
    GeometryDegenerate if ``tolerance`` is not a finite real of at least 0
    or ``max_segments`` is not an int of at least 1 (a bool is neither).
    """
    if isinstance(tolerance, bool) or not (isinstance(tolerance, Real) and 0 <= tolerance < np.inf):
        raise GeometryDegenerate(f"tolerance {tolerance!r} is not a finite real >= 0")
    if type(max_segments) is not int or max_segments < 1:  # a bool is no count
        raise GeometryDegenerate(f"max_segments {max_segments!r} is not an integer of at least 1")
    step = max(1, len(lc.x) // max_segments)
    p = np.stack([lc.x[::step], lc.y[::step]], axis=1)
    q = np.roll(p, -1, axis=0)
    n = len(p)
    d = q - p
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    # sorted segment a overlaps in x exactly the sorted segments a+1 .. end[a]-1
    end = np.searchsorted(lo[:, 0], hi[:, 0], side="right")
    counts = end - np.arange(1, n + 1)
    cum = np.cumsum(counts)
    first = cum - counts  # offset of row a among all candidate pairs
    found = []
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
        denom = _cross(d1, d2)
        # a rounded side test may still split nearly collinear parallel
        # segments; those have no crossing parameter
        hit = ((_left_of(p[i], d1, p[j]) != _left_of(p[i], d1, q[j]))
               & (_left_of(p[j], d2, p[i]) != _left_of(p[j], d2, q[i])) & (denom != 0))
        i, j, d2, denom = i[hit], j[hit], d2[hit], denom[hit]
        found.append((i, j, _cross(p[j] - p[i], d2) / denom))
    i, j, t = (np.concatenate(v) for v in zip(*found))
    k = np.lexsort((j, i))
    i, j, t = i[k], j[k], t[k]
    # s[m]: the shoelace terms of segments 0 .. m-1, summed
    s = np.concatenate(([0.0], np.cumsum(_cross(p, q))))
    pt = p[i] + t[:, None] * d[i]
    a1 = 0.5 * (_cross(pt, q[i]) + s[j] - s[i + 1] + _cross(p[j], pt))
    a2 = 0.5 * (_cross(pt, q[j]) + s[n] - s[j + 1] + s[i] + _cross(p[i], pt))
    scale = max(lc._extents[0] * lc._extents[1], 1e-30)
    flagged = np.minimum(np.abs(a1), np.abs(a2)) < tolerance * scale
    rows = zip(map(tuple, pt.tolist()), a1.tolist(), a2.tolist(), flagged.tolist())
    return EmbeddednessReport(tuple(map(tuple.__new__, repeat(DoublePointReport), rows)), tolerance)


def _left_of(a: np.ndarray, da: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether each point c lies on or left of the line through a along da.

    A point on the line counts as left, so a crossing through a vertex that
    two segments of one polyline share hits exactly one of them.
    """
    return _cross(da, c - a) >= 0


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The cross product u x v of each row pair of two (m, 2) arrays."""
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def lift_csv(lc: LiftedCurve) -> str:
    """CSV dump of the sampled space curve, 17 significant digits."""
    rows = zip(lc.x.tolist(), lc.y.tolist(), lc.z.tolist())
    return "\n".join(["x,y,z", *("%.17g,%.17g,%.17g" % row for row in rows)])
