import hashlib
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from legkit import fronts as fr
from legkit import render
from legkit import trees as tr
from legkit.cli import main
from legkit.fronts import CROSS, FrontDiagram, FrontEvent
from legkit.lifting import GeomParams, realize_front

# Reference SVG: every sample is mapped and formatted on its own, from numpy
# scalars.  It is the per-point original of the array version in render.py,
# whose output must stay byte-identical.


def ref_render_svg(d, scale=60.0):
    samples = render._SVG_SAMPLES
    rf = realize_front(d, GeomParams(samples_per_arc=samples))
    tr_ = rf.trace
    paths = []
    pts = {}
    for curve in rf.curves:
        x, z, _ = curve.sample(samples)
        pts[curve.arc] = (x, z)
    all_x = np.concatenate([p[0] for p in pts.values()])
    all_z = np.concatenate([p[1] for p in pts.values()])
    x0, x1 = float(all_x.min()) - 0.5, float(all_x.max()) + 0.5
    z0, z1 = float(all_z.min()) - 0.5, float(all_z.max()) + 0.5
    width = (x1 - x0) * scale
    height = (z1 - z0) * scale

    def to_svg(x, z):
        return (x - x0) * scale, (z1 - z) * scale

    def path_of(arc, lo=0.0, hi=1.0):
        x, z = pts[arc]
        n = len(x)
        i0, i1 = int(lo * (n - 1)), int(hi * (n - 1)) + 1
        coords = " L".join(
            f"{sx:.2f},{sz:.2f}" for sx, sz in (to_svg(a, b) for a, b in zip(x[i0:i1], z[i0:i1]))
        )
        return f'<path d="M{coords}" fill="none" stroke="black" stroke-width="2"/>'

    for curve in rf.curves:
        paths.append(path_of(curve.arc))
    for xr in tr_.crossings:
        ev = xr.event
        cx, cz = to_svg(ev + 1, float(np.mean([pts[xr.in_lower][1][-1]])))
        paths.append(f'<circle cx="{cx:.2f}" cy="{cz:.2f}" r="{0.18 * scale:.2f}" fill="white"/>')
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_events=st.integers(2, 24))
def test_svg_matches_reference_on_random_fronts(seed, max_events):
    d = fr.random_closed_front(random.Random(seed), max_events)
    assert render.render_svg(d) == ref_render_svg(d)


def test_svg_matches_reference_on_catalog():
    for n in range(1, 14):
        for r in range(-(n - 1), n, 2):
            d = tr.catalog_front(-n, r)
            assert render.render_svg(d) == ref_render_svg(d), (-n, r)


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
        assert render.render_svg(d) == ref_render_svg(d)


def test_catalog_svg_digest(capsys):
    # stdout of `legkit catalog --tb -5 --r 2 --svg` before the array version
    assert main(["catalog", "--tb", "-5", "--r", "2", "--svg"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "7752f89e95773270b640409636accb02a5c540ec88af7721b45b33d908d0f663"

