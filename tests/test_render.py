import hashlib
import random
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legkit import fronts as fr
from legkit import render
from legkit import trees as tr
from legkit.cli import main
from legkit.fronts import CROSS, FrontDiagram, FrontEvent
from legkit.render import realize_front
from test_lifting import ref_sample

# Reference SVG: the former renderer, which maps every sample of a
# 400-sample-per-arc realization to the page and draws each arc as a
# polyline.  render.py draws the same cubic pieces as Bezier segments; the
# tests below compare the two geometrically.

REF_SAMPLES = 400
SCALE = 60.0  # page units per front unit


def ref_render_svg(d):
    samples = REF_SAMPLES
    rf = realize_front(d)
    tr_ = rf.trace
    paths = []
    pts = {}
    for arc, pieces in enumerate(rf.curves):
        pts[arc] = ref_sample(pieces, samples)[:2]
    all_x = np.concatenate([p[0] for p in pts.values()])
    all_z = np.concatenate([p[1] for p in pts.values()])
    x0, x1 = float(all_x.min()) - 0.5, float(all_x.max()) + 0.5
    z0, z1 = float(all_z.min()) - 0.5, float(all_z.max()) + 0.5
    width = (x1 - x0) * SCALE
    height = (z1 - z0) * SCALE

    def to_svg(x, z):
        return (x - x0) * SCALE, (z1 - z) * SCALE

    def path_of(arc, lo=0.0, hi=1.0):
        x, z = pts[arc]
        n = len(x)
        i0, i1 = int(lo * (n - 1)), int(hi * (n - 1)) + 1
        coords = " L".join(
            f"{sx:.2f},{sz:.2f}" for sx, sz in (to_svg(a, b) for a, b in zip(x[i0:i1], z[i0:i1]))
        )
        return f'<path d="M{coords}" fill="none" stroke="black" stroke-width="2"/>'

    for arc in range(len(rf.curves)):
        paths.append(path_of(arc))
    for xr in tr_.crossings:
        ev = xr.event
        cx, cz = to_svg(ev + 1, float(np.mean([pts[xr.in_lower][1][-1]])))
        paths.append(f'<circle cx="{cx:.2f}" cy="{cz:.2f}" r="{0.18 * SCALE:.2f}" fill="white"/>')
        paths.append(path_of(xr.in_upper, lo=0.75))
        paths.append(path_of(xr.out_lower, hi=0.25))
    body = "\n".join(paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">\n{body}\n</svg>'
    )


def nest(outer, inner):
    """``inner`` between the strands of ``outer``'s first cusp, clasped once."""
    first, *rest = outer.events
    shifted = [FrontEvent(e.kind, e.position + 1) for e in inner.events]
    events = [first, shifted[0], FrontEvent(CROSS, 1), FrontEvent(CROSS, 1)]
    return FrontDiagram(tuple(events + shifted[1:] + rest))


NS = "{http://www.w3.org/2000/svg}"
TOL = 0.01 + 1e-9  # two %.2f roundings, one per document


def page_points(d_attr):
    """The (x, y) pairs of an SVG path, in order, as an (n, 2) array."""
    return np.array([float(v) for v in re.findall(r"-?\d+\.\d+", d_attr)]).reshape(-1, 2)


def hull_box(rf):
    """(x0, x1, z0, z1) of the page: the box of every piece's Bezier control
    points P0 = c0, P1 = c0 + c1/3, P2 = c0 + (2 c1 + c2)/3, P3 = c0 + c1 +
    c2 + c3, widened by 0.5."""
    xs, zs = [], []
    for pieces in rf.curves:
        for p in pieces:
            for (c0, c1, c2, c3), out in ((p.cx, xs), (p.cz, zs)):
                out += [c0, c0 + c1 / 3, c0 + (2 * c1 + c2) / 3, c0 + c1 + c2 + c3]
    return min(xs) - 0.5, max(xs) + 0.5, min(zs) - 0.5, max(zs) + 0.5


def bezier_at(ctrl, pieces, per):
    """Points of the Bezier chain ``ctrl`` (P0, then P1 P2 P3 per piece) at
    ``per`` uniform steps per piece, each piece's end dropped but the last."""
    t = np.linspace(0.0, 1.0, per + 1)[:, None]
    basis = [(1 - t) ** 3, 3 * (1 - t) ** 2 * t, 3 * (1 - t) * t ** 2, t ** 3]
    rows = [sum(b * ctrl[3 * k + i] for i, b in enumerate(basis)) for k in range(pieces)]
    return np.concatenate([r[:-1] for r in rows] + [rows[-1][-1:]])


def check_geometry(d):
    """render_svg against the reference renderer, point by point."""
    rf = realize_front(d)
    trace = rf.trace
    root = ET.fromstring(render.render_svg(d))
    new, ref = list(root), list(ET.fromstring(ref_render_svg(d)))
    n_arcs, n_cross = len(trace.arcs), len(trace.crossings)
    # one path per arc; per crossing a white disk and the two casing halves
    assert [e.tag for e in new] == [e.tag for e in ref]
    assert sum(e.tag == NS + "path" for e in new) == n_arcs + 2 * n_cross
    assert sum(e.tag == NS + "circle" for e in new) == n_cross
    # the reference's page box comes from its samples, the new one from the
    # control points; a point's two page positions differ by ``shift``
    x0, x1, z0, z1 = hull_box(rf)
    ref_x = np.concatenate([ref_sample(c, REF_SAMPLES)[0] for c in rf.curves])
    ref_z = np.concatenate([ref_sample(c, REF_SAMPLES)[1] for c in rf.curves])
    shift = np.array([(x0 - ref_x.min() + 0.5) * SCALE, (ref_z.max() + 0.5 - z1) * SCALE])
    width, height = (float(v) for v in root.get("viewBox").split()[2:])
    assert abs(width - (x1 - x0) * SCALE) <= 0.005 + 1e-9
    assert abs(height - (z1 - z0) * SCALE) <= 0.005 + 1e-9
    ref_pts = {}
    for arc, (pieces, e, r) in enumerate(zip(rf.curves, new, ref)):
        n = len(pieces)
        assert re.fullmatch(rf"M[^MLC]*( C[^MLC]*){{{n}}}", e.get("d")), e.get("d")
        ref_pts[arc] = page_points(r.get("d"))
        per = max(2, (REF_SAMPLES // n) & ~1)
        got = bezier_at(page_points(e.get("d")), n, per) + shift
        assert np.abs(got - ref_pts[arc]).max() <= TOL
        # every point of the curve lies inside the viewBox
        x, z, _ = ref_sample(pieces, 4000)
        assert (0 <= (x - x0) * SCALE).all() and ((x - x0) * SCALE <= width).all()
        assert (0 <= (z1 - z) * SCALE).all() and ((z1 - z) * SCALE <= height).all()
    for k, xr in enumerate(trace.crossings):
        circle, upper, lower = new[n_arcs + 3 * k:n_arcs + 3 * k + 3]
        rcircle, rupper, rlower = ref[n_arcs + 3 * k:n_arcs + 3 * k + 3]
        centre = np.array([float(circle.get("cx")), float(circle.get("cy"))])
        rcentre = np.array([float(rcircle.get("cx")), float(rcircle.get("cy"))])
        assert np.abs(centre + shift - rcentre).max() <= TOL
        assert circle.get("r") == rcircle.get("r")
        # in_upper's half is its arc from parameter 3/4 on, out_lower's up to 1/4
        for half, rhalf, arc, cut_first in ((upper, rupper, xr.in_upper, True),
                                            (lower, rlower, xr.out_lower, False)):
            cmds = half.get("d")
            assert re.fullmatch(r"M[^MLC]*( C[^MLC]*)+", cmds), cmds
            pts, rpts, full = page_points(cmds) + shift, page_points(rhalf.get("d")), ref_pts[arc]
            cut, kept = (0, -1) if cut_first else (-1, 0)
            assert np.abs(pts[kept] - rpts[kept]).max() <= TOL
            # the exact cut lies between the reference's cut sample and the next
            i = len(full) - len(rpts) if cut_first else len(rpts) - 1
            step = np.linalg.norm(full[i + 1] - full[i])
            assert np.linalg.norm(pts[cut] - rpts[cut]) <= step + 2 * TOL
            # the pieces the cut leaves whole are the arc's own segments
            segs = cmds.split(" C")[1:]
            arc_segs = new[arc].get("d").split(" C")[1:]
            if cut_first:
                assert segs[1:] == arc_segs[len(arc_segs) - len(segs) + 1:]
            else:
                assert segs[:-1] == arc_segs[:len(segs) - 1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_events=st.integers(2, 24))
def test_svg_matches_reference_on_random_fronts(seed, max_events):
    check_geometry(fr.random_closed_front(random.Random(seed), max_events))


def test_svg_matches_reference_on_catalog():
    for n in range(1, 14):
        for r in range(-(n - 1), n, 2):
            check_geometry(tr.catalog_front(-n, r))


def test_svg_matches_reference_on_nested_links():
    rng = random.Random(11)
    for _ in range(8):
        k = rng.choice((2, 3))
        parts = [tr.catalog_front(-n, rng.choice(range(-(n - 1), n, 2)))
                 for n in (rng.randint(1, 4) for _ in range(k))]
        d = parts[-1]
        for outer in reversed(parts[:-1]):
            d = nest(outer, d)
        assert fr.trace_components(d).n_components == k
        check_geometry(d)


# `legkit render --format ascii` of the clasp and of an eye with a crossing
CLASP_ASCII = """\
          --- --- ---
      --- --- --- --- ---
     <   <           >   >
      --- --\\ /-\\ /-- ---
             X   X
          --/ \\-/ \\--
"""
EYE_X_ASCII = """\
      --\\ /--
     <   X   >
      --/ \\--
"""


@pytest.mark.parametrize("text,want", [
    ("L 1\nL 2\nX 1\nX 1\nR 2\nR 1\n", CLASP_ASCII),
    ("L 1\nX 1\nR 1\n", EYE_X_ASCII),
])
def test_ascii_sketch_pinned(capsys, tmp_path, text, want):
    path = tmp_path / "front.lfd"
    path.write_text(text)
    assert main(["render", str(path), "--format", "ascii"]) == 0
    assert capsys.readouterr().out == want


def test_catalog_svg_digest(capsys):
    # stdout of `legkit catalog --tb -5 --r 2 --svg`, one Bezier segment per piece
    assert main(["catalog", "--tb", "-5", "--r", "2", "--svg"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b531ff4d48bee4a888b5524c8ee8c965a9bd61dcc4b35ea4f80fad17fbf914fc"
