import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legkit import fronts as fr
from legkit import lifting as lf
from legkit import render
from legkit import trees as tr
from legkit.errors import BadDirection, DegenerateTangent, GeometryDegenerate, NotClosed

def lift(text, samples=4000, of=None):
    d = fr.parse_front(text)
    return lf.legendrian_lift(lf.realize_front(d), of=of, samples_per_arc=samples)


def polyline(points):
    x, y = np.array(points, float).T
    return lf.LiftedCurve(x, y, np.zeros_like(x))


# The former whole-array lift, quadrature and winding, kept as references:
# each arc sampled on its own and the arcs concatenated, the panel terms as
# whole arrays, and the winding from the hypot-filtered edges' angles
# (without the former subsampling of curves past 200 000 samples).


def ref_sample(pieces, n):
    """Arrays (x, z, y) of every sample of one arc, first to last: an arc of
    P pieces gets max(2, (n // P) & ~1) uniform steps per piece (the rule
    before the 62-piece floor, which no arc tested here reaches)."""
    per = max(2, (n // len(pieces)) & ~1)
    t = np.linspace(0.0, 1.0, per + 1)
    c = np.array([p.cx for p in pieces]).T[:, :, None]
    d = np.array([p.cz for p in pieces]).T[:, :, None]
    x = c[0] + t * (c[1] + t * (c[2] + t * c[3]))
    z = d[0] + t * (d[1] + t * (d[2] + t * d[3]))
    dx = c[1] + t * (2 * c[2] + 3 * t * c[3])
    dz = d[1] + t * (2 * d[2] + 3 * t * d[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(np.abs(dx) > 1e-14, dz / np.where(dx == 0, 1, dx), 0.0)
    # a piece's endpoint is the next piece's start; keep only the arc's last
    return tuple(np.append(a[:, :-1], a[-1, -1]) for a in (x, z, y))


def ref_lift(rf, comp, of, samples):
    dirs = of.directions
    cycle = rf.trace.cycles[comp]
    if not dirs[cycle[0]]:
        cycle = cycle[:1] + cycle[:0:-1]
    xs, ys, zs = [], [], []
    for arc in cycle:
        x, z, y = ref_sample(rf.curves[arc], samples)
        if not dirs[arc]:
            x, z, y = x[::-1], z[::-1], y[::-1]
        xs.append(x[:-1])
        ys.append(y[:-1])
        zs.append(z[:-1])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)


def ref_panel_terms(lc):
    """(dz, ydx) per panel of two steps; an odd last step is one trapezoid."""
    x, y, z = lc.x, lc.y, lc.z
    if lc.closed:
        x, y, z = (np.append(a, a[0]) for a in (x, y, z))
    n = (len(x) - 1) & ~1
    x0, x1, x2 = x[0:n:2], x[1:n:2], x[2 : n + 1 : 2]
    y0, y1, y2 = y[0:n:2], y[1:n:2], y[2 : n + 1 : 2]
    ydx = (y1 * (x2 - x0) + (x0 - 2 * x1 + x2) * (y2 - y0) / 3
           + (y0 - 2 * y1 + y2) * (x2 - x0) / 6)
    dz = z[2 : n + 1 : 2] - z[0:n:2]
    if len(x) - 1 > n:
        ydx = np.append(ydx, (y[-1] + y[-2]) / 2 * (x[-1] - x[-2]))
        dz = np.append(dz, z[-1] - z[-2])
    return dz, ydx


def ref_winding(lc):
    x, y = lc.x, -lc.y
    if lc.closed:
        x, y = np.append(x, x[0]), np.append(y, y[0])
    dx, dy = np.diff(x), np.diff(y)
    norms = np.hypot(dx, dy)
    keep = norms > 1e-13 * max(1.0, float(np.max(norms, initial=0.0)))
    dx, dy = dx[keep], dy[keep]
    if len(dx) < 3:
        raise DegenerateTangent("not enough distinct samples for a winding number")
    ang = np.arctan2(dy, dx)
    turns = np.diff(np.concatenate([ang, ang[:1]]))
    turns = (turns + np.pi) % (2 * np.pi) - np.pi
    return float(np.sum(turns)) / (2 * np.pi)


def former_quadrature(lc):
    """(closure, residual) as the quadrature computed them before it worked in
    place: every panel term as one expression, _BLOCK panels at a time."""
    steps = len(lc.x) - (not lc.closed)
    closure = residual = 0.0
    for s in range(0, steps & ~1, 2 * lf._BLOCK):
        e = min(s + 2 * lf._BLOCK, steps & ~1) + 1
        x, y, z = (a[s:e] if e <= len(a) else np.append(a[s:], a[0]) for a in (lc.x, lc.y, lc.z))
        x0, x1, x2 = x[:-1:2], x[1::2], x[2::2]
        y0, y1, y2 = y[:-1:2], y[1::2], y[2::2]
        ydx = (y1 * (x2 - x0) + (x0 - 2 * x1 + x2) * (y2 - y0) / 3
               + (y0 - 2 * y1 + y2) * (x2 - x0) / 6)
        closure += float(np.sum(ydx))
        residual = max(residual, float(np.max(np.abs(z[2::2] - z[:-1:2] - ydx))))
    if steps % 2:
        (x0, x1), (y0, y1), (z0, z1) = (a[[steps - 1, steps % len(a)]].tolist()
                                        for a in (lc.x, lc.y, lc.z))
        ydx = (y1 + y0) / 2 * (x1 - x0)
        closure, residual = closure + ydx, max(residual, abs(z1 - z0 - ydx))
    return closure, residual


def assert_matches_numeric_reference(lc):
    """Closure and residual within 1e-12 of the diameter of the reference's,
    the winding within 1e-12 and rounded the same."""
    dz, ydx = ref_panel_terms(lc)
    diam = lc.diameter()
    assert abs(lc.closure_integral() - float(np.sum(ydx))) <= 1e-12 * diam
    assert abs(lc.legendrian_residual() - float(np.max(np.abs(dz - ydx), initial=0.0))) <= 1e-12 * diam
    want = ref_winding(lc)
    assert abs(lc.winding - want) <= 1e-12
    assert round(lc.winding) == round(want)


def _shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def brute_force_embeddedness(lc, tolerance=1e-6, max_segments=2000, strict=False):
    """Reference double-point search: every segment i against every later
    non-adjacent segment j, reported in (i, j) order.  ``strict`` takes the
    former hit rule, crossing parameters strictly inside both segments."""
    step = max(1, len(lc.x) // max_segments)
    x = np.append(lc.x[::step], lc.x[0])
    y = np.append(lc.y[::step], lc.y[0])
    n = len(x) - 1
    p = np.stack([x[:-1], y[:-1]], axis=1)
    q = np.stack([x[1:], y[1:]], axis=1)
    scale = max(np.ptp(lc.x) * np.ptp(lc.y), 1e-30)
    reports = []
    for i in range(n):
        d1 = q[i] - p[i]
        js = np.arange(i + 2, n)
        if i == 0:
            js = js[js < n - 1]
        if len(js) == 0:
            continue
        d2 = q[js] - p[js]
        rel = p[js] - p[i]
        denom = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / denom
            u = (rel[:, 0] * d1[1] - rel[:, 1] * d1[0]) / denom
        if strict:
            hit = (np.abs(denom) > 1e-14) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
        else:
            # each segment's endpoints on opposite sides of the other's line,
            # a point on a line counting as left of it
            hit = ((cross(d1, p[js] - p[i]) >= 0) != (cross(d1, q[js] - p[i]) >= 0)) & (
                (cross(d2, p[i] - p[js]) >= 0) != (cross(d2, q[i] - p[js]) >= 0)) & (denom != 0)
        for j, th in zip(js[hit], t[hit]):
            pt = p[i] + th * d1
            a1 = _shoelace(np.vstack([[pt], p[i + 1 : j + 1], [pt]]))
            a2 = _shoelace(np.vstack([[pt], p[j + 1 :], p[: i + 1], [pt]]))
            reports.append(lf.DoublePointReport(
                point=(float(pt[0]), float(pt[1])), area_one=a1, area_two=a2,
                flagged=bool(min(abs(a1), abs(a2)) < tolerance * scale)))
    return lf.EmbeddednessReport(double_points=tuple(reports), tolerance=tolerance)


def assert_matches_reference(rep, ref, lc):
    """Equal count, order, points and flags; areas within 1e-12 of the scale,
    as the check sums each lobe's shoelace terms in another order."""
    scale = max(np.ptp(lc.x) * np.ptp(lc.y), 1e-30)
    assert rep.tolerance == ref.tolerance
    assert ([(p.point, p.flagged) for p in rep.double_points]
            == [(p.point, p.flagged) for p in ref.double_points])
    for p, r in zip(rep.double_points, ref.double_points):
        assert type(p.area_one) is type(p.area_two) is float
        assert abs(p.area_one - r.area_one) <= 1e-12 * scale
        assert abs(p.area_two - r.area_two) <= 1e-12 * scale


def _acceptance_grid():
    """Catalog fronts for r = -3 .. 3 and the six largest tb of each."""
    return [tr.catalog_front(-abs(m) - 2 * k - 1, m) for m in range(-3, 4) for k in range(6)]


_coord = st.integers(-8, 8)
# general polylines, polylines with many vertical segments, and zig-zags whose
# segments all share one x-range (every pair is a sweep candidate)
_polylines = st.one_of(
    st.lists(st.tuples(_coord, _coord), min_size=4, max_size=80),
    st.lists(st.tuples(st.integers(-1, 1), _coord), min_size=4, max_size=80),
    st.lists(_coord, min_size=4, max_size=80).map(
        lambda ys: [(8 * (k % 2), yk) for k, yk in enumerate(ys)]),
)
_float = st.floats(-8, 8)
_float_polylines = st.lists(st.tuples(_float, _float), min_size=4, max_size=80)

# the only crossing of this polyline is at (0, 0), between its segments 0
# and 4; its lobes have areas -5 and 1
_FISH = [(-1, -1), (1, 1), (3, 1), (3, -1), (1, -1), (-1, 1)]


class TestRealize:
    def test_basic_two_cusps_no_crossings(self):
        d = fr.parse_front("L 1\nR 1")
        rf = lf.realize_front(d)
        assert len(rf.curves) == 2
        assert rf.trace.crossings == ()
        lc = lf.legendrian_lift(rf)
        # the cusps at x = 1 and x = 2 are lifted once each, at slope 0
        assert lc.y[(lc.x == 1.0) | (lc.x == 2.0)].tolist() == [0.0, 0.0]

    def test_crossing_gap(self):
        lc = lift("L 1\nX 1\nR 1")
        # the crossing is at x = 2; the branches leave it at slopes -+1/2
        assert sorted(lc.y[lc.x == 2.0]) == [-0.5, 0.5] == [-render.CROSSING_SLOPE, render.CROSSING_SLOPE]

    def test_catalog_never_degenerate(self):
        for tb, r in [(-1, 0), (-3, 2), (-5, 0), (-6, -3)]:
            lf.realize_front(tr.catalog_front(tb, r))


class TestLift:
    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_too_few_samples(self, n):
        rf = lf.realize_front(fr.parse_front("L 1\nR 1"))
        with pytest.raises(GeometryDegenerate, match=f"samples_per_arc {n} below 2"):
            lf.legendrian_lift(rf, samples_per_arc=n)

    @pytest.mark.parametrize("comp", [-1, 1, 5])
    def test_bad_component(self, comp):
        rf = lf.realize_front(fr.parse_front("L 1\nR 1"))
        with pytest.raises(NotClosed, match=f"no component {comp}"):
            lf.legendrian_lift(rf, comp)

    @pytest.mark.parametrize("comp", [True, 1.0, "0", None], ids=repr)
    def test_component_not_an_int(self, comp):
        # two components, so True was read as component 1 and lifted
        rf = lf.realize_front(fr.parse_front("L 1\nL 1\nR 1\nR 1"))
        with pytest.raises(NotClosed, match="no component"):
            lf.legendrian_lift(rf, comp)

    @pytest.mark.parametrize("n", [2.0, "3", True, None], ids=repr)
    def test_samples_not_an_int(self, n):
        rf = lf.realize_front(fr.parse_front("L 1\nR 1"))
        with pytest.raises(GeometryDegenerate, match="is not an integer"):
            lf.legendrian_lift(rf, samples_per_arc=n)

    def test_orientation_of_another_front_refused(self):
        # the (-5, 0) orientation read r = 0 off the (-3, 2) lift, with no error
        d = tr.catalog_front(-3, 2)
        rf = lf.realize_front(d)
        with pytest.raises(BadDirection, match="another front"):
            lf.legendrian_lift(rf, of=fr.OrientedFront.default(tr.catalog_front(-5, 0)))
        # an equal diagram built apart is the same front
        same = fr.OrientedFront.default(fr.parse_front(fr.serialize_front(d))).reverse(0)
        assert same.diagram is not d
        lc = lf.legendrian_lift(rf, of=same, samples_per_arc=101)
        assert lf.numeric_rotation(lc) == fr.rotation_number(same) == -2

    def test_basic_closure_and_residual(self):
        lc = lift("L 1\nR 1")
        assert lc.legendrian_residual() / lc.diameter() < 1e-9
        assert abs(lc.closure_integral()) / lc.diameter() < 1e-9

    def test_crossing_lifts_to_distinct_points(self):
        lc = lift("L 1\nX 1\nR 1")
        at = lc.x == 2.0
        # the two branches meet at one front point but carry different slopes
        assert np.count_nonzero(at) == 2
        assert len(set(lc.z[at])) == 1
        assert np.ptp(lc.y[at]) == 2 * render.CROSSING_SLOPE

    def test_truncated_curve_flagged(self):
        lc = lift("L 1\nR 1")
        n = len(lc.x) // 4  # stop mid-arc, where the running integral is not zero
        part = lf.LiftedCurve(lc.x[:n], lc.y[:n], lc.z[:n], closed=False)
        assert abs(part.closure_integral()) > 1e-3

    def test_halving_improves_residual_and_closure(self):
        d = tr.catalog_front(-3, 0)
        r1 = lf.legendrian_lift(lf.realize_front(d), samples_per_arc=2000)
        r2 = lf.legendrian_lift(lf.realize_front(d), samples_per_arc=4000)
        assert r1.legendrian_residual() / r2.legendrian_residual() >= 2
        # (-3, 0) is mirror-symmetric: its panel errors cancel to rounding
        assert abs(r1.closure_integral()) <= 1e-15 * r1.diameter()
        d = tr.catalog_front(-4, 1)
        a1 = lf.legendrian_lift(lf.realize_front(d), samples_per_arc=2000)
        a2 = lf.legendrian_lift(lf.realize_front(d), samples_per_arc=4000)
        assert abs(a1.closure_integral()) / max(abs(a2.closure_integral()), 1e-30) >= 2

    def test_panel_rule_fourth_order(self):
        d = tr.catalog_front(-4, 1)
        r1 = lf.legendrian_lift(lf.realize_front(d), samples_per_arc=250)
        r2 = lf.legendrian_lift(lf.realize_front(d), samples_per_arc=500)
        assert r1.legendrian_residual() / r2.legendrian_residual() >= 8
        assert abs(r1.closure_integral()) / abs(r2.closure_integral()) >= 8

    def test_panel_rule_exact_on_quadratics(self):
        # a figure eight of four pieces, each with x linear and y quadratic
        # in t, so y x' is quadratic; z is the exact integral of y dx
        s = np.linspace(0.0, 1.0, 17)[:-1]
        bump = 4 * s * (1 - s)
        rise = 2 * s**2 - 4 * s**3 / 3  # integral of bump from 0 to s
        x = np.concatenate([s, 1 + s, 2 - s, 1 - s])
        y = np.concatenate([bump, -bump, bump, -bump])
        z = np.concatenate([rise, 2 / 3 - rise, -rise, rise - 2 / 3])
        lc = lf.LiftedCurve(x, y, z)
        assert lc.legendrian_residual() <= 1e-15
        assert abs(lc.closure_integral()) <= 1e-15

    def test_odd_last_step_is_trapezoid(self):
        # closed, five steps: two panels, then the trapezoid from (1, 4) to (0, 0)
        x, y = np.array([(0, 0), (1, 2), (3, 1), (2, 5), (1, 4)], float).T
        panels = ref_panel_terms(polyline(np.stack([x, y], 1)))[1]
        assert len(panels) == 3 and panels[-1] == (4 + 0) / 2 * (0 - 1)
        # z rises by each panel's integral, so only the trapezoid leaves a residual
        z = np.array([0, 0, panels[0], 0, panels[0] + panels[1]])
        closed = lf.LiftedCurve(x, y, z)
        # open, three steps: one panel, then the trapezoid from (3, 1) to (2, 5)
        open_ = lf.LiftedCurve(x[:4], y[:4], z[[0, 1, 2, 2]], closed=False)
        assert ref_panel_terms(open_)[1][-1] == (5 + 1) / 2 * (2 - 3)
        assert closed.legendrian_residual() == pytest.approx(abs(0 - z[4] - panels[-1]), abs=1e-12)
        assert open_.legendrian_residual() == 3.0
        for lc in (closed, open_):
            dz, ydx = ref_panel_terms(lc)
            assert lc.closure_integral() == pytest.approx(float(np.sum(ydx)), abs=1e-12)
            assert lc.legendrian_residual() == float(np.max(np.abs(dz - ydx)))

    def test_arrays_read_only(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        lc = lf.LiftedCurve(x, [0.0, 0.0, 1.0, 1.0], np.zeros(4))
        before = lc.closure_integral()
        x[1] = 5.0  # the caller's array is not the curve's
        assert lc.closure_integral() == before
        with pytest.raises(ValueError):
            lc.x[0] = 1.0

    def test_lift_marks_its_own_arrays_read_only(self):
        lc = lift("L 1\nR 1")
        for a in (lc.x, lc.y, lc.z):
            assert a.dtype == float and a.base is None and not a.flags.writeable
        x, y, z = np.arange(4.0), np.ones(4), np.zeros(4)
        owned = lf.LiftedCurve._owning(x, y, z)
        assert owned.x is x and owned.y is y and owned.z is z and owned.closed
        assert not x.flags.writeable
        # a caller's array is still copied, even a read-only one
        again = lf.LiftedCurve(lc.x, lc.y, lc.z)
        assert not np.shares_memory(again.x, lc.x)
        assert again.closure_integral() == lc.closure_integral()

    def test_pieces_start_at_even_indices(self):
        # each piece's start is a sample of the lift, at an even index, in
        # both orientations; a reversed arc's start is the next arc's first
        d = tr.catalog_front(-4, 1)
        rf = lf.realize_front(d)
        of = fr.OrientedFront.default(d)
        for o in (of, of.reverse(0)):
            lc = lf.legendrian_lift(rf, of=o, samples_per_arc=101)
            assert len(lc.x) % 2 == 0
            for pieces in rf.curves:
                for piece in pieces:
                    at = np.flatnonzero((lc.x == piece.cx[0]) & (lc.z == piece.cz[0]))
                    assert (at % 2 == 0).any()

    @pytest.mark.parametrize("samples", [4000, 101, 2])
    def test_lift_matches_reference(self, samples):
        # bit for bit against the whole-array reference, the sign of zero
        # included, in both orientations
        for d in _acceptance_grid():
            rf = lf.realize_front(d)
            of = fr.OrientedFront.default(d)
            for o in (of, of.reverse(0)):
                lc = lf.legendrian_lift(rf, of=o, samples_per_arc=samples)
                for got, want in zip((lc.x, lc.y, lc.z), ref_lift(rf, 0, o, samples)):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tb", [-101, -201])
    def test_deep_lift_within_bound(self, tb):
        # the long arcs of deep fronts get at least a 62-piece arc's steps
        # per piece, so the default lift meets 1e-9 of the diameter
        d = tr.catalog_front(tb, 0)
        rf = lf.realize_front(d)
        of = fr.OrientedFront.default(d)
        assert max(len(pieces) for pieces in rf.curves) > 62
        for o in (of, of.reverse(0)):
            lc = lf.legendrian_lift(rf, of=o)
            diam = lc.diameter()
            assert lc.legendrian_residual() < 1e-9 * diam
            assert abs(lf.lagrangian_closure_integral(lc)) < 1e-9 * diam
            assert lf.numeric_rotation(lc) == fr.rotation_number(o) == 0


class TestQuadratureAndWinding:
    def test_acceptance_grid_matches_reference(self):
        for d in _acceptance_grid():
            rf = lf.realize_front(d)
            of = fr.OrientedFront.default(d)
            for o in (of, of.reverse(0)):
                lc = lf.legendrian_lift(rf, of=o)
                assert_matches_numeric_reference(lc)
                assert lf.numeric_rotation(lc) == fr.rotation_number(o)

    @pytest.mark.parametrize("samples", [2, 37, 400, 4000])
    def test_acceptance_grid_bitwise_former_quadrature(self, samples):
        # the same floats in the same order: demo 04 prints these numbers
        for d in _acceptance_grid():
            rf = lf.realize_front(d)
            of = fr.OrientedFront.default(d)
            for o in (of, of.reverse(0)):
                lc = lf.legendrian_lift(rf, of=o, samples_per_arc=samples)
                got = (lc.closure_integral(), lc.legendrian_residual())
                assert [v.hex() for v in got] == [v.hex() for v in former_quadrature(lc)]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), closed=st.booleans(),
           repeats=st.lists(st.tuples(st.integers(0, 59), st.integers(1, 12)), max_size=6),
           block=st.integers(1, 64))
    def test_blocks_match_reference(self, seed, n, closed, repeats, block):
        # generic points, so no edge turns back on the one before; runs of
        # repeated samples add zero-length edges, across blocks as well
        pts = np.random.default_rng(seed).random((n, 3)) * 8 - 4
        for k, times in repeats:
            pts = np.insert(pts, k % len(pts), np.repeat(pts[k % len(pts)][None], times, 0), 0)
        lc = lf.LiftedCurve(*pts.T, closed=closed)
        with mock.patch.object(lf, "_BLOCK", block):
            assert_matches_numeric_reference(lc)


# Each of these ended wrong before LiftedCurve checked its arrays: the curve
# of unequal lengths silently returned a closure of 0.0, the empty curve's
# diameter and the 2-D and string arrays ended in a bare ValueError, and the
# empty curve's embeddedness check in a bare IndexError.
BAD_CURVES = {
    "unequal lengths": lambda: lf.LiftedCurve([0, 1, 2, 3], [0, 1], [0, 1, 2, 3])
    .closure_integral(),
    "empty diameter": lambda: lf.LiftedCurve([], [], []).diameter(),
    "empty embeddedness": lambda: lf.lagrangian_embeddedness_check(lf.LiftedCurve([], [], [])),
    "2-D": lambda: lf.LiftedCurve(*np.zeros((3, 2, 4))).winding,
    "strings": lambda: lf.LiftedCurve(["a"], [0.0], [0.0]),
}


class TestCurveChecks:
    @pytest.mark.parametrize("call", BAD_CURVES.values(), ids=BAD_CURVES.keys())
    def test_bad_arrays_refused(self, call):
        with pytest.raises(GeometryDegenerate, match="non-empty 1-D real arrays of one length"):
            call()

    def test_lists_of_ints_are_real_arrays(self):
        lc = lf.LiftedCurve([0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 0])
        assert lc.x.dtype == float and lc.diameter() == 1.0


class TestDegenerateTangent:
    # a square, counterclockwise in (x, y), so clockwise with y downward
    SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 8192])
    def test_repeated_samples_keep_winding(self, block):
        # 13 points around the unit circle, visited two steps apart: two loops
        pts = [(math.cos(4 * math.pi * k / 13), math.sin(4 * math.pi * k / 13)) for k in range(13)]
        plain = polyline(pts)
        # five copies of the fourth sample, two of the first and of the last:
        # the run of five crosses a boundary at every block size up to 4
        pts = pts[:1] * 2 + pts[1:3] + pts[3:4] * 5 + pts[4:] + pts[-1:] * 2
        with mock.patch.object(lf, "_BLOCK", block):
            assert polyline(pts).winding == pytest.approx(plain.winding, abs=1e-12)
        assert plain.winding == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("points,closed", [
        ([], True),
        ([(0, 0)], True),
        ([(0, 0), (1, 0)], True),  # two edges, there and back
        ([(0, 0), (0, 0), (1, 1), (1, 1)], True),
        ([(0, 0), (1, 0), (1, 1)], False),  # two edges, open
        ([(0, 0), (1, 0), (1, 0), (1, 1), (1, 1)], False),
    ])
    def test_fewer_than_three_edges_raise(self, points, closed):
        x, y = np.array(points, float).reshape(-1, 2).T
        if not points:  # no samples at all: refused when made, before any winding
            with pytest.raises(GeometryDegenerate, match="non-empty"):
                lf.LiftedCurve(x, y, np.zeros_like(x), closed=closed)
            return
        lc = lf.LiftedCurve(x, y, np.zeros_like(x), closed=closed)
        with pytest.raises(DegenerateTangent):
            lc.winding
        with pytest.raises(DegenerateTangent):
            lf.numeric_rotation(lc)

    def test_edges_below_floor_dropped(self):
        # a diamond with a spike of 2**-30 back along its first side: the
        # spike's two half turns would add a loop, but its edges are shorter
        # than 1e-13 of the diamond's bounding-box diagonal
        a, m, d = 2.0**20, 2.0**19, 2.0**-30
        spiked = polyline([(a, 0), (m, m), (m + d, m - d), (0, a), (-a, 0), (0, -a)])
        diamond = polyline([(a, 0), (0, a), (-a, 0), (0, -a)])
        assert spiked.winding == diamond.winding == ref_winding(spiked) == -1.0
        # no edge is longer than 1e-13 of 1
        with pytest.raises(DegenerateTangent):
            polyline(np.array(self.SQUARE) * 1e-14).winding

    def test_open_curve(self):
        square = polyline(self.SQUARE)
        x, y = np.array(self.SQUARE + self.SQUARE[:1], float).T
        # open and back at its start: the same edges as the closed square
        back = lf.LiftedCurve(x, y, np.zeros_like(x), closed=False)
        # open, three sides: it turns twice by a quarter, and by a half from
        # its last edge back to its first
        three = lf.LiftedCurve(x[:4], y[:4], np.zeros(4), closed=False)
        assert square.winding == back.winding == pytest.approx(-1.0, abs=1e-12)
        assert three.winding == pytest.approx(ref_winding(three), abs=1e-12)
        assert lf.numeric_rotation(three) == round(ref_winding(three))


class TestRotation:
    def test_matches_combinatorial(self):
        for tb, r in [(-1, 0), (-2, 1), (-4, -3), (-5, 2)]:
            d = tr.catalog_front(tb, r)
            of = fr.OrientedFront.default(d)
            lc = lf.legendrian_lift(lf.realize_front(d), of=of)
            assert lf.numeric_rotation(lc) == fr.rotation_number(of) == r
            assert lf.rotation_residual(lc) < 0.01

    def test_reversal_negates(self):
        d = tr.catalog_front(-2, 1)
        of = fr.OrientedFront.default(d).reverse(0)
        lc = lf.legendrian_lift(lf.realize_front(d), of=of)
        assert lf.numeric_rotation(lc) == -1


class TestEmbeddedness:
    def test_basic_no_double_points(self):
        rep = lf.lagrangian_embeddedness_check(lift("L 1\nR 1"))
        # the figure-eight Lagrangian projection of the basic unknot has one
        # double point splitting it into two opposite-area lobes
        for p in rep.double_points:
            assert not p.flagged
        assert rep.embedded

    def test_crossing_front_loops_have_area(self):
        rep = lf.lagrangian_embeddedness_check(lift("L 1\nX 1\nR 1"))
        assert len(rep.double_points) >= 1
        assert rep.embedded
        for p in rep.double_points:
            assert abs(p.area_one) > 1e-3 and abs(p.area_two) > 1e-3

    def test_synthetic_zero_area_loop_flagged(self):
        t = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        # a pinched curve: right lobe has area, the pinch loop does not
        x = np.concatenate([np.cos(t), 0.001 * np.cos(t)])
        y = np.concatenate([np.sin(t), 0.001 * np.sin(t)])
        lc = lf.LiftedCurve(x, y, np.zeros_like(x))
        rep = lf.lagrangian_embeddedness_check(lc, tolerance=1e-4)
        assert not rep.embedded
        assert any(p.flagged is True for p in rep.double_points)

    def test_bowtie_single_double_point(self):
        rep = lf.lagrangian_embeddedness_check(polyline([(0, 0), (2, 2), (2, 0), (0, 2)]))
        assert rep.double_points == (
            lf.DoublePointReport(point=(1.0, 1.0), area_one=-1.0, area_two=1.0, flagged=False),
        )
        assert type(rep.double_points[0].flagged) is bool
        json.dumps(rep)  # a numpy.bool_ flag would fail here

    @pytest.mark.parametrize("tb,r", [(-2, 1), (-4, 3), (-5, -2), (-5, 2)])
    def test_catalog_lifts_embedded(self, tb, r):
        lc = lf.legendrian_lift(lf.realize_front(tr.catalog_front(tb, r)))
        rep = lf.lagrangian_embeddedness_check(lc)
        assert rep.double_points
        assert rep.embedded

    @settings(max_examples=150, deadline=None)
    @given(points=_polylines, chunk=st.integers(1, 64))
    def test_sweep_matches_brute_force(self, points, chunk):
        lc = polyline(points)
        with mock.patch.object(lf, "_SWEEP_CHUNK", chunk):
            rep = lf.lagrangian_embeddedness_check(lc)
        assert_matches_reference(rep, brute_force_embeddedness(lc), lc)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60))
    def test_generic_polylines_match_strict_rule(self, seed, n):
        # with no three sample vertices collinear, a crossing through a vertex
        # cannot happen and the hit rule agrees with the strict-interior one
        lc = polyline(np.random.default_rng(seed).random((n, 2)))
        rep = lf.lagrangian_embeddedness_check(lc)
        assert_matches_reference(rep, brute_force_embeddedness(lc, strict=True), lc)

    @settings(max_examples=150, deadline=None)
    @given(points=_polylines | _float_polylines, max_segments=st.integers(1, 80))
    def test_lobes_sum_to_polygon_area(self, points, max_segments):
        # the crossing point lies on segment i, so the two lobes together
        # are the whole subsampled polygon
        lc = polyline(points)
        step = max(1, len(lc.x) // max_segments)
        sub = np.stack([lc.x[::step], lc.y[::step]], axis=1)
        whole = _shoelace(np.vstack([sub, sub[:1]]))
        scale = max(np.ptp(lc.x) * np.ptp(lc.y), 1e-30)
        rep = lf.lagrangian_embeddedness_check(lc, max_segments=max_segments)
        for p in rep.double_points:
            assert abs(p.area_one + p.area_two - whole) <= 1e-12 * scale

    # lobe one runs from crossing segment i on to segment j; the reversed
    # curve crosses at the same segment positions with negated areas
    @pytest.mark.parametrize("shift,areas", [
        (0, (-5.0, 1.0)),  # segments 0 and 4
        (1, (1.0, -5.0)),  # segments 3 and 5, the closing one
        (2, (1.0, -5.0)),  # segments 2 and 4
        (3, (1.0, -5.0)),  # segments 1 and 3
        (4, (1.0, -5.0)),  # segments 0 and 2
        (5, (-5.0, 1.0)),  # segments 1 and 5, the closing one
    ])
    @pytest.mark.parametrize("backwards", [False, True])
    def test_crossing_on_first_or_closing_segment(self, shift, areas, backwards):
        pts = _FISH[::-1] if backwards else _FISH
        lc = polyline(pts[shift:] + pts[:shift])
        rep = lf.lagrangian_embeddedness_check(lc)
        sign = -1.0 if backwards else 1.0
        assert rep.double_points == (lf.DoublePointReport(
            point=(0.0, 0.0), area_one=sign * areas[0], area_two=sign * areas[1], flagged=False),)
        assert rep == brute_force_embeddedness(lc)

    # True checked a one-segment polyline; 2.5 and "x" ended in a bare TypeError
    @pytest.mark.parametrize("max_segments", [0, -3, True, 2.5, "x"])
    def test_max_segments_below_one(self, max_segments):
        lc = lift("L 1\nX 1\nR 1", 50)
        with pytest.raises(GeometryDegenerate):
            lf.lagrangian_embeddedness_check(lc, max_segments=max_segments)

    @pytest.mark.parametrize("tolerance", [True, "x", float("nan"), -1.0, float("inf")], ids=repr)
    def test_tolerance_not_a_finite_real_at_least_zero(self, tolerance):
        # each was used as it came: NaN and -1.0 reported the curve embedded
        lc = lift("L 1\nX 1\nR 1", 50)
        with pytest.raises(GeometryDegenerate, match="is not a finite real >= 0"):
            lf.lagrangian_embeddedness_check(lc, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [0, 1e-6, np.float64(1e-4), Fraction(1, 10**6)], ids=repr)
    def test_tolerance_any_finite_real_at_least_zero(self, tolerance):
        lc = lift("L 1\nX 1\nR 1", 50)
        assert lf.lagrangian_embeddedness_check(lc, tolerance=tolerance).tolerance == tolerance

    @pytest.mark.parametrize("shift", range(6))
    @pytest.mark.parametrize("backwards", [False, True])
    def test_crossing_through_shared_vertices_counted_once(self, shift, backwards):
        # a bowtie whose two branches both have a sample vertex at (1, 1)
        pts = [(0, 0), (1, 1), (2, 2), (2, 0), (1, 1), (0, 2)]
        pts = pts[shift:] + pts[:shift]
        rep = lf.lagrangian_embeddedness_check(polyline(pts[::-1] if backwards else pts))
        assert [p.point for p in rep.double_points] == [(1.0, 1.0)]
        assert abs(rep.double_points[0].area_one) == abs(rep.double_points[0].area_two) == 1.0

    @pytest.mark.parametrize("samples", [50, 400, 2000, 4000, 20000])
    def test_basic_unknot_one_double_point_at_every_density(self, samples):
        # the figure-eight crossing at (1.5, 0) is a sample vertex of both strands
        rep = lf.lagrangian_embeddedness_check(
            lift("L 1\nR 1", samples))
        assert [p.point for p in rep.double_points] == [(1.5, 0.0)]
        assert rep.embedded

    def test_acceptance_grid_lifts_embedded_in_both_orientations(self):
        counts = []
        for d in _acceptance_grid():
            rf = lf.realize_front(d)
            of = fr.OrientedFront.default(d)
            for o in (of, of.reverse(0)):
                rep = lf.lagrangian_embeddedness_check(lf.legendrian_lift(rf, of=o))
                assert rep.embedded
                counts.append(len(rep.double_points))
        # the sweep's double-point counts, default then reversed orientation
        # of each (tb, r); they measure the sampling, not the geometry
        assert counts == [
            110, 108, 132, 132, 124, 124, 128, 132, 160, 164, 174, 170,
            139, 137, 147, 147, 127, 127, 127, 129, 145, 147, 169, 173,
            8, 8, 26, 26, 44, 44, 64, 62, 80, 80, 118, 118,
            1, 1, 17, 17, 35, 35, 53, 53, 73, 73, 101, 107,
            8, 8, 26, 26, 44, 44, 62, 62, 92, 92, 124, 126,
            137, 137, 91, 89, 89, 89, 101, 99, 123, 123, 151, 151,
            568, 568, 402, 394, 334, 334, 304, 302, 314, 314, 302, 302,
        ]


class TestCsv:
    def test_header_and_precision(self):
        lc = lift("L 1\nR 1", 50)
        text = lf.lift_csv(lc)
        lines = text.splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == len(lc.x) + 1

    def test_matches_per_sample_reference(self):
        # the per-sample original, formatted from numpy scalars
        def ref_lift_csv(lc):
            rows = (f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(lc.x, lc.y, lc.z))
            return "\n".join(["x,y,z", *rows])

        for tb, r in ((-1, 0), (-4, 3), (-5, 2)):
            lc = lf.legendrian_lift(lf.realize_front(tr.catalog_front(tb, r)))
            assert lf.lift_csv(lc) == ref_lift_csv(lc)
        lc = polyline([(0.0, -0.0), (1e-300, 1 / 3), (-2.5e17, 7.0)])
        assert lf.lift_csv(lc) == ref_lift_csv(lc)
