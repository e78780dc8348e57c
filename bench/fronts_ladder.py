"""fronts-ladder: catalog fronts and nested links from 18 to 1282 events.

``fronts`` and ``trees`` do nearly all the work here, on a few large
inputs, so the quadratic core shows and scaling slopes can be fitted.
"""

from __future__ import annotations

import random

from legkit import classify, fronts, trees
from legkit.fronts import CROSS, FrontDiagram, FrontEvent, OrientedFront

from harness import Slot, Workload, expect, run_once
from sizes import GOLDEN, admissible_r, log_sizes, rank_phases, rotate

RUNGS = (9, 41, 161, 641)
N_DRAWN = 40  # plus the four rungs: 44 inputs, tail at p77
LO, HI = 9, 641
SPLIT_JITTER = 0.2


def nest(outer: FrontDiagram, inner: FrontDiagram) -> FrontDiagram:
    """Place ``inner`` between the two strands born at ``outer``'s first cusp.

    Right after its own first cusp the inner component's lower strand
    passes twice through the outer's lower strand (a clasp), so the pair
    links once and no component gains a self-crossing: every component keeps
    its own (tb, r), and under the default orientation lk = +1.
    """
    first, *rest = outer.events
    shifted = [FrontEvent(e.kind, e.position + 1) for e in inner.events]
    events = [first, shifted[0], FrontEvent(CROSS, 1), FrontEvent(CROSS, 1)]
    events += shifted[1:] + rest
    return FrontDiagram(tuple(events))


def nested_chain(parts: list[FrontDiagram]) -> FrontDiagram:
    """parts[0] outermost; each later part nested in the one before."""
    d = parts[-1]
    for outer in reversed(parts[:-1]):
        d = nest(outer, d)
    return d


def expected_lk(k: int) -> list[list]:
    return [[None if i == j else (1 if abs(i - j) == 1 else 0) for j in range(k)]
            for i in range(k)]


def split_sizes(rng: random.Random, total: int, k: int) -> list[int]:
    """Split |tb| about evenly among k nested components; events add to 2*total."""
    budget = total - (k - 1)  # each clasp adds two events
    weights = [1 + SPLIT_JITTER * (rng.random() - 0.5) for _ in range(k)]
    parts = [max(1, round(budget * w / sum(weights))) for w in weights[:-1]]
    return parts + [budget - sum(parts)]


def make_slots(seed: int, workdir: str) -> list[Slot]:
    rng = random.Random(seed)
    drawn = log_sizes(rng, N_DRAWN, LO, HI)
    sizes = sorted([(t, -1) for t in RUNGS] + [(t, i) for i, t in enumerate(drawn)])
    slots = []
    for rank, ((t, i), phase) in enumerate(zip(sizes, rank_phases(rng, len(sizes)))):
        # every fourth drawn size, alternately with 2 and 3 components, is a link
        k = 1 if i < 0 or i % 4 != 1 else 2 + (i // 4) % 2
        phases = [(phase + c * GOLDEN / 2) % 1.0 for c in range(k)]
        slots.append(Slot(f"{'link' if k > 1 else 'knot'}{t}.{rank}", 2 * t,
                          (split_sizes(rng, t, k), phases)))
    rng.shuffle(slots)
    return slots


def op(call, slot: Slot, rnd: int, ctx) -> None:
    parts, phases = slot.data
    pairs = [(-t, admissible_r(t)[rotate(u, rnd, t)]) for t, u in zip(parts, phases)]
    k = len(pairs)
    built = []
    for tb, r in pairs:
        emb = call("trees.catalog_tree", trees.catalog_tree, tb, r)
        signs = [s for _, s in emb.tree.signs]
        expect((len(signs), signs.count(1) - signs.count(-1)) == (1 - tb, r),
               f"catalog tree for ({tb}, {r}) has the wrong vertex signs")
        expect(trees.expected_invariants(emb.tree) == (tb, r),
               f"expected_invariants != ({tb}, {r})")
        built.append(call("trees.build_front", trees.build_front, emb))
        ctx.count("trees.vertices", len(signs))
    d = nested_chain(built)
    text = call("fronts.serialize_front", fronts.serialize_front, d)
    d2 = call("fronts.parse_front", fronts.parse_front, text)
    expect(d2 == d, "parse_front(serialize_front(d)) != d")
    tr = call("fronts.trace_components", fronts.trace_components, d2)
    expect(tr.n_components == k, f"{tr.n_components} components, built {k}")
    of = OrientedFront.default(d2)
    for c, pair in enumerate(pairs):
        got = call("fronts.invariant_pair", fronts.invariant_pair, of, c)
        expect(got == pair, f"component {c}: invariants {got} != {pair}")
    flip = k - 1
    rev = of.reverse(flip)
    for c, (tb, r) in enumerate(pairs):
        got = call("fronts.invariant_pair_reversed", fronts.invariant_pair, rev, c)
        want = (tb, -r) if c == flip else (tb, r)
        expect(got == want, f"reversed component {flip}: component {c} gave {got} != {want}")
    if k > 1:
        lk = call("fronts.linking_matrix", fronts.linking_matrix, of)
        expect(lk == expected_lk(k), f"linking matrix {lk} != {expected_lk(k)}")
        h = call("classify.hopf_after_lutz_front", classify.hopf_after_lutz_front, of)
        want = sum(tb - r for tb, r in pairs) + 2 * (k - 1)
        expect(h == want, f"hopf_after_lutz_front {h} != {want}")
        expect(classify.hopf_after_lutz([tb - r for tb, r in pairs], lk) == want,
               "hopf_after_lutz disagrees with the closed form")
    ctx.count("fronts.events", len(d2.events))
    ctx.count("fronts.arcs", len(tr.arcs))
    ctx.count("fronts.components", tr.n_components)
    ctx.count("fronts.crossings", len(tr.crossings))
    ctx.count("fronts.cusps", len(tr.cusps))


def warmup() -> None:
    run_once(op, Slot("knot9", 18, ([9], [0.0])))


LADDER_MIN = 82  # events; below this the per-call constant hides the slope

WORKLOAD = Workload(
    name="fronts-ladder",
    why="catalog fronts and nested links of 18-1282 events: fronts and trees "
        "do nearly all the work, so the quadratic core and its slope show",
    make_slots=make_slots,
    op=op,
    warmup=warmup,
    ladders={name: LADDER_MIN for name in (
        "fronts.parse_front", "fronts.serialize_front", "fronts.trace_components",
        "fronts.invariant_pair", "fronts.invariant_pair_reversed",
        "trees.catalog_tree", "trees.build_front")},
)
