"""foliate-ladder: the five disk-foliation stages for |tb| from 9 to 641.

``foliation`` does almost all the work (per-rewrite tightness checks,
singularity-map rebuilds); ``fronts`` and ``lifting`` do none.
"""

from __future__ import annotations

import random
from collections import Counter

from legkit import foliation as fo
from legkit import trees

from harness import Slot, Workload, expect, run_once
from sizes import admissible_r, log_sizes, rank_phases

RUNGS = (9, 41, 161, 641)
N_DRAWN = 36  # plus the four rungs: 40 inputs, tail at p75
LO, HI = 9, 641
# The raw all-elliptic boundary runs the conversion rewrites; it stops at
# |tb| = 161 because one raw op takes 0.4 s there and 7 s at 641.
RAW_MAX = 161
REWRITE_RULES = ("convert", "eliminate", "rewire", "absorb")


def make_slots(seed: int, workdir: str) -> list[Slot]:
    """Sizes log-uniform with the rungs; r spread over its range by size rank.

    Half the drawn sizes up to RAW_MAX, alternating in size order, start
    from the raw boundary.  An input's repeats are identical ops.
    """
    rng = random.Random(seed)
    drawn = log_sizes(rng, N_DRAWN, LO, HI)
    sizes = sorted([(t, True) for t in RUNGS] + [(t, False) for t in drawn])
    small = [rank for rank, (t, rung) in enumerate(sizes) if not rung and t <= RAW_MAX]
    raw_ranks = set(small[1::2])
    slots = []
    for rank, ((t, _), phase) in enumerate(zip(sizes, rank_phases(rng, len(sizes)))):
        raw = rank in raw_ranks
        rs = admissible_r(t)
        slots.append(Slot(f"{'raw' if raw else 'naf'}{t}.{rank}", t,
                          (raw, rs[int(phase * len(rs))]), ladder=not raw))
    rng.shuffle(slots)
    return slots


def op(call, slot: Slot, rnd: int, ctx) -> None:
    raw, r = slot.data
    tb = -slot.size
    e, h = (1 - tb + r) // 2, (-1 - tb + r) // 2  # reduced interior (e+, h-)
    kinds = [fo.ELLIPTIC] * (2 * slot.size) if raw else None
    s = call("foliation.init_boundary", fo.init_boundary, tb, r, kinds)
    s = call("foliation.to_naf", fo.to_naf, s)
    expect(s.identity_differences(fo.INTERIOR) == (e, -h),
           f"NAF identity differences {s.identity_differences(fo.INTERIOR)} != {(e, -h)}")
    s = call("foliation.reduce_interior", fo.reduce_interior, s)
    expect(fo.interior_count_targets(tb, r) == (e, h), "interior_count_targets")
    expect(s.counts(fo.INTERIOR) == {"e+": e, "h+": 0, "e-": 0, "h-": h},
           f"reduced interior {s.counts(fo.INTERIOR)} != e+={e}, h-={h}")
    for step in s.trace:
        dd = dict(step.delta)
        expect(dd.get("e+", 0) == dd.get("h+", 0) and dd.get("e-", 0) == dd.get("h-", 0),
               f"{step.rule} changed an identity difference")
    s, _ = call("foliation.to_elliptic_form", fo.to_elliptic_form, s)
    rules = Counter(step.rule for step in s.trace)
    expect(rules["absorb"] == h, f"{rules['absorb']} absorbs != h- = {h}")
    skel = call("foliation.extract_skeleton", fo.extract_skeleton, s)
    signs = [sg for _, sg in skel.tree.signs]
    expect((len(signs), signs.count(1) - signs.count(-1)) == (1 - tb, r),
           f"skeleton has {len(signs)} vertices, sign sum {sum(signs)}")
    expect(trees.expected_invariants(skel.tree) == (tb, r), "skeleton expected_invariants")
    for rule in REWRITE_RULES:
        ctx.count(f"foliation.rewrites.{rule}", rules[rule])
    ctx.count("trees.vertices", len(signs))


def warmup() -> None:
    run_once(op, Slot("naf9", 9, (False, 0)))


WORKLOAD = Workload(
    name="foliate-ladder",
    why="disk-foliation stages for |tb| 9-641, some from the raw all-elliptic "
        "boundary: foliation does almost all the work",
    make_slots=make_slots,
    op=op,
    warmup=warmup,
    ladders={f"foliation.{stage}": 41 for stage in (
        "init_boundary", "to_naf", "reduce_interior", "to_elliptic_form",
        "extract_skeleton")},
)
