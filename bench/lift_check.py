"""lift-check: numeric Legendrian lifts of catalog fronts on the acceptance grid.

``lifting`` does almost all the work and sets the memory footprint; this is
the only workload where the quadrature and the double-point search show.
"""

from __future__ import annotations

import random

from legkit import fronts, lifting, trees

from harness import Slot, Workload, expect, run_once

R_MAX, TB_MAX = 3, 13  # the acceptance grid |r| <= 3, |tb| <= 13
TOL = 1e-9


def classes() -> list[tuple[int, int]]:
    """One (tb, r) per (|tb|, |r|) class of the grid, the sign of r alternating.

    The 24 classes cover the grid's sizes and rotation magnitudes once each,
    so every run has the same cost profile; the seed picks the orientation
    of each lift and the order.
    """
    out, sign = [], 1
    for tb in range(-1, -TB_MAX - 1, -1):
        for m in range(R_MAX + 1):
            if fronts.in_unknot_range(tb, m):
                out.append((tb, sign * m))
                sign = -sign if m else sign
    return out


def front_text(tb: int, r: int) -> str:
    # build_front directly: catalog_front would also trace the diagram and
    # leave it in legkit's trace cache before the timed op runs
    return fronts.serialize_front(trees.build_front(trees.catalog_tree(tb, r)))


def make_slots(seed: int, workdir: str) -> list[Slot]:
    rng = random.Random(seed)
    slots = []
    for tb, r in classes():
        flip = rng.random() < 0.5
        slots.append(Slot(f"lift({tb},{r}){'-' if flip else '+'}", -2 * tb,
                          (r, flip, front_text(tb, r))))
    rng.shuffle(slots)
    return slots


def op(call, slot: Slot, rnd: int, ctx) -> None:
    r, flip, text = slot.data
    d = call("fronts.parse_front", fronts.parse_front, text)
    rf = call("lifting.realize_front", lifting.realize_front, d)
    of = fronts.OrientedFront.default(d)
    if flip:
        of, r = of.reverse(0), -r
    lc = call("lifting.legendrian_lift", lifting.legendrian_lift, rf, 0, of)
    closure = call("lifting.closure_integral", lifting.lagrangian_closure_integral, lc)
    residual = call("lifting.legendrian_residual", lc.legendrian_residual)
    rot = call("lifting.numeric_rotation", lifting.numeric_rotation, lc)
    rot_res = call("lifting.rotation_residual", lifting.rotation_residual, lc)
    report = call("lifting.lagrangian_embeddedness_check",
                  lifting.lagrangian_embeddedness_check, lc)
    diam = lc.diameter()
    expect(residual / diam < TOL, f"residual/diam {residual / diam:.3g} >= {TOL}")
    expect(abs(closure) / diam < TOL, f"closure/diam {abs(closure) / diam:.3g} >= {TOL}")
    expect(rot == r, f"numeric rotation {rot} != r = {r}")
    expect(rot_res < 0.01, f"rotation residual {rot_res:.3g} >= 0.01")
    ctx.worst("lifting.closure_rel_max", abs(closure) / diam)
    ctx.worst("lifting.residual_rel_max", residual / diam)
    ctx.worst("lifting.rotation_residual_max", rot_res)
    ctx.count("lifting.samples", len(lc.x))
    ctx.count("lifting.double_points", len(report.double_points))


def warmup() -> None:
    run_once(op, Slot("lift(-1,0)+", 2, (0, False, front_text(-1, 0))))


WORKLOAD = Workload(
    name="lift-check",
    why="lifts of catalog fronts with |r| <= 3, |tb| <= 13: lifting does almost "
        "all the work and sets peak memory",
    make_slots=make_slots,
    op=op,
    warmup=warmup,
    ladders={f"lifting.{fn}": 0 for fn in (
        "realize_front", "legendrian_lift", "lagrangian_embeddedness_check")},
)
