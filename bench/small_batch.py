"""small-batch: thousands of tiny ops across every module, the CLI included.

It uses the same ``fronts``/``trees`` code as the ladders in the opposite
way: diagrams are tiny and either freshly mutated or repeated, so per-call
overhead and cache hits dominate, not asymptotics.  A rewrite that adds
set-up cost per object shows here as a loss.  It is the only workload that
exercises ``cli``, ``classify`` and ``render``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction

from legkit import classify, cli, fronts, render, trees
from legkit.fronts import CROSS, LEFT, RIGHT, FrontDiagram, FrontEvent, OrientedFront
from legkit.trees import AcceptableEmbedding, SignedTree

from fronts_ladder import expected_lk, nested_chain
from harness import Slot, Workload, expect, run_once

FRONT_POOL, TREE_POOL, LINK_POOL = 48, 32, 6
MAX_VERTICES, FOLIATE_MAX = 14, 9
# ops per round by kind; fixed so the mix is the same for every seed
MIX = {"stabilize": 160, "tree": 64, "classify": 64, "render": 24, "cli": 96}
ORACLES = ("tight_unknot", "loose_check", "classify_loose", "exceptional",
           "hopf_after_lutz", "hopf_after_lutz_front", "d3_from_hopf",
           "complement_torus_data")
COMMANDS = ("invariants", "catalog", "tree2front", "foliate", "classify-tight-unknot",
            "classify-loose", "classify-exceptional", "classify-hopf-lutz",
            "classify-d3", "classify-complement", "render-ascii", "render-svg")


# ---------------------------------------------------------------------------
# Input generators, independent of legkit's own fuzzing helpers


def count_components(events) -> int:
    """Components of an event sequence by union-find over its arcs."""
    parent: list[int] = []
    stack: list[int] = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new():
        parent.append(len(parent))
        return len(parent) - 1

    for ev in events:
        p = ev.position - 1
        if ev.kind == LEFT:
            a, b = new(), new()
            parent[find(b)] = find(a)
            stack[p:p] = [a, b]
        elif ev.kind == RIGHT:
            parent[find(stack[p + 1])] = find(stack[p])
            del stack[p:p + 2]
        else:
            a, b, c, d = stack[p], stack[p + 1], new(), new()
            parent[find(d)] = find(a)
            parent[find(c)] = find(b)
            stack[p], stack[p + 1] = c, d
    return len({find(x) for x in range(len(parent))})


def random_knot(rng: random.Random, length: int) -> FrontDiagram:
    """A random closed single-component front of ``length`` (or one more) events."""
    while True:
        events: list[FrontEvent] = []
        n = 0
        while len(events) < length or n:
            room = length - len(events)
            if n == 0:
                kind = LEFT
            elif room <= n // 2:
                kind = RIGHT
            else:
                kind = rng.choice((LEFT, LEFT, CROSS) if n == 2 else
                                  (RIGHT, LEFT, LEFT, CROSS, CROSS))
            if kind == LEFT:
                events.append(FrontEvent(LEFT, rng.randint(1, n + 1)))
                n += 2
            else:
                events.append(FrontEvent(kind, rng.randint(1, n - 1)))
                n -= 2 if kind == RIGHT else 0
        if count_components(events) == 1:
            return FrontDiagram(tuple(events))


def random_embedding(rng: random.Random, n: int) -> AcceptableEmbedding:
    """Random signed tree on n vertices, x by DFS preorder from the end vertex 0."""
    parent = {1: 0, **{v: rng.randrange(1, v) for v in range(2, n)}}
    depth = {0: 0}
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    root_sign = rng.choice((1, -1))
    signs = {v: root_sign * (1 if depth[v] % 2 == 0 else -1) for v in range(n)}
    kids: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(1, n):
        kids[parent[v]].append(v)
    order, stack = [], [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(sorted(kids[u], reverse=True))
    delta = Fraction(1, 4 * n)
    coords = {v: (Fraction(i), rng.randrange(-n, n + 1) * delta / n)
              for i, v in enumerate(order)}
    tree = SignedTree.make(signs, [(parent[v], v) for v in range(1, n)])
    return AcceptableEmbedding.make(tree, coords)


def tree_text(emb: AcceptableEmbedding) -> str:
    cm, sm = dict(emb.coords), dict(emb.tree.signs)
    lines = [f"v {v} {cm[v][0]} {cm[v][1]} {'+' if sm[v] > 0 else '-'}" for v in sorted(cm)]
    lines += [f"e {min(e)} {max(e)}" for e in sorted(emb.tree.edges, key=sorted)]
    return "\n".join(lines) + "\n"


def closed_form(signs: list[int]) -> tuple[int, int]:
    return -(len(signs) - 1), signs.count(1) - signs.count(-1)


def unknot_pair(rng: random.Random, t_max: int) -> tuple[int, int]:
    t = rng.randint(1, t_max)
    return -t, -(t - 1) + 2 * rng.randrange(t)


def in_range(tb: int, r: int) -> bool:
    return (tb + r) % 2 == 1 and tb <= -abs(r) - 1


def front_lines(d: FrontDiagram) -> str:
    return "\n".join(f"{e.kind} {e.position}" for e in d.events) + "\n"


def link(rng: random.Random) -> tuple[FrontDiagram, list[tuple[int, int]]]:
    pairs = [unknot_pair(rng, 4) for _ in range(rng.choice((2, 3)))]
    parts = [trees.build_front(trees.catalog_tree(tb, r)) for tb, r in pairs]
    return nested_chain(parts), pairs


# ---------------------------------------------------------------------------
# Slots


def make_slots(seed: int, workdir: str) -> list[Slot]:
    """A fixed mix of op kinds over pools whose sizes cover their ranges evenly.

    Ops pick pool members in turn, so most diagrams recur within a round.
    """
    rng = random.Random(seed)
    knots = [random_knot(rng, 4 + 2 * (i % 11)) for i in range(FRONT_POOL)]
    embs = [random_embedding(rng, 2 + i % (MAX_VERTICES - 1)) for i in range(TREE_POOL)]
    links = [link(rng) for _ in range(LINK_POOL)]
    files = [(os.path.join(workdir, f"knot{i}.lfd"), d, None) for i, d in enumerate(knots[:8])]
    files += [(os.path.join(workdir, f"link{i}.lfd"), d, pairs)
              for i, (d, pairs) in enumerate(links)]
    tree_files = [(os.path.join(workdir, f"tree{i}.sat"), emb)
                  for i, emb in enumerate(embs[:8])]
    for path, text in ([(p, front_lines(d)) for p, d, _ in files]
                       + [(p, tree_text(emb)) for p, emb in tree_files]):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    slots = []
    for i in range(MIX["stabilize"]):
        slots.append(Slot(f"stabilize{i}", data=("stabilize", knots[i % FRONT_POOL],
                                                  rng.random(), rng.random(),
                                                  rng.choice((fronts.UP, fronts.DOWN)))))
    for i in range(MIX["tree"]):
        slots.append(Slot(f"tree{i}", data=("tree", embs[i % TREE_POOL])))
    for i in range(MIX["classify"]):
        name = ORACLES[i % len(ORACLES)]
        slots.append(Slot(f"classify-{name}{i}",
                          data=("classify", name, classify_args(rng, name, links))))
    for i in range(MIX["render"]):
        slots.append(Slot(f"render{i}", data=("render", ("ascii", "svg")[i % 2],
                                               knots[(7 * i) % FRONT_POOL])))
    for i in range(MIX["cli"]):
        name = COMMANDS[i % len(COMMANDS)]
        nth = i // len(COMMANDS)
        slots.append(Slot(f"cli-{name}{i}",
                          data=("cli", name, cli_args(rng, name, nth, files, tree_files))))
    rng.shuffle(slots)
    return slots


def classify_args(rng: random.Random, name: str, links) -> tuple:
    def pair():
        return unknot_pair(rng, 6) if rng.random() < 0.7 else (rng.randint(-6, 2),
                                                                rng.randint(-4, 4))
    if name in ("tight_unknot", "classify_loose"):
        a = pair()
        b = a if rng.random() < 0.4 else pair()
        return (rng.randint(-3, 3), rng.random() < 0.5, a, b)
    if name == "loose_check":
        return (rng.randint(-3, 3), rng.randint(-5, 3), rng.random() < 0.8)
    if name == "exceptional":
        n = rng.randint(1, 6)
        return (rng.choice((-1, -1, 0, 2)), n, rng.choice((n - 1, -(n - 1), 0)),
                rng.randint(1, 8))
    if name == "hopf_after_lutz":
        k = rng.randint(1, 5)
        return ([rng.randint(-5, 1) for _ in range(k)], rng.randint(-2, 2))
    if name == "hopf_after_lutz_front":
        return rng.choice(links)
    if name == "d3_from_hopf":
        return (rng.randint(-10, 10),)
    return (rng.choice([n for n in range(-20, 21) if n]),)


def cli_args(rng: random.Random, name: str, nth: int, files, tree_files) -> tuple:
    """Arguments of the nth call of one subcommand; sizes cycle through their range."""
    def pair():
        t = 1 + nth % FOLIATE_MAX
        return -t, -(t - 1) + 2 * rng.randrange(t)

    if name == "invariants":
        path, d, pairs = files[nth % len(files)]
        return (["invariants", path, "--json"], (d, pairs))
    if name == "catalog":
        tb, r = pair()
        return (["catalog", f"--tb={tb}", f"--r={r}"], (tb, r))
    if name == "tree2front":
        path, emb = tree_files[nth % len(tree_files)]
        return (["tree2front", path, "--normalize"], closed_form([s for _, s in emb.tree.signs]))
    if name == "foliate":
        tb, r = pair()
        return (["foliate", f"--tb={tb}", f"--r={r}", "--raw", "--trace"], (tb, r))
    if name == "classify-tight-unknot":
        a = unknot_pair(rng, 6)
        b = a if rng.random() < 0.5 else unknot_pair(rng, 6)
        return (["classify", "tight-unknot", f"--a={a[0]},{a[1]}", f"--b={b[0]},{b[1]}"],
                "isotopic" if a == b else "not-isotopic")
    if name == "classify-loose":
        h, tb = rng.randint(-3, 3), rng.randint(-5, 3)
        return (["classify", "loose", f"--hopf={h}", f"--tb={tb}"],
                "loose-class" if tb <= 0 else "undetermined-by-this-test")
    if name == "classify-exceptional":
        n = rng.randint(1, 6)
        r = rng.choice((n - 1, 0))
        h = rng.choice((-1, 0))
        member = h == -1 and r == n - 1
        return (["classify", "exceptional", f"--hopf={h}", f"--tb={n}", f"--r={r}"],
                "exceptional class exists" if member else "no such exceptional class")
    if name == "classify-hopf-lutz":
        sl = [rng.randint(-5, 1) for _ in range(rng.randint(1, 4))]
        c = rng.randint(-2, 2)
        k = len(sl)
        return (["classify", "hopf-lutz", "--sl=" + ",".join(map(str, sl)), f"--lk={c}"],
                str(sum(sl) + c * k * (k - 1)))
    if name == "classify-d3":
        h = rng.randint(-10, 10)
        return (["classify", "d3", f"--hopf={h}"], str(Fraction(-h) - Fraction(1, 2)))
    if name == "classify-complement":
        n = rng.choice([n for n in range(-20, 21) if n])
        return (["classify", "complement", f"--slope={n}"], f"meridian=({-n},1)")
    path, d, _ = files[nth % 8]
    fmt = name.split("-")[1]
    return (["render", path, f"--format={fmt}"], d)


# ---------------------------------------------------------------------------
# Ops


def check_ascii(text: str, d: FrontDiagram) -> None:
    kinds = Counter(e.kind for e in d.events)
    got = (text.count("<"), text.count(">"), text.count("X"))
    expect(got == (kinds[LEFT], kinds[RIGHT], kinds[CROSS]),
           f"ascii picture marks {got} != events {dict(kinds)}")


def check_svg(text: str) -> None:
    expect(text.startswith("<svg") and text.rstrip().endswith("</svg>"), "not an SVG document")


def note(ctx, d: FrontDiagram) -> None:
    """Count fronts calls, and those on a diagram this process has seen."""
    ctx.count("fronts.front_calls")
    if d in ctx.seen:
        ctx.count("fronts.repeat_calls")
    ctx.seen.add(d)


def op_stabilize(call, ctx, d, u_arc, u_target, direction) -> None:
    note(ctx, d)
    tb0, r0 = call("fronts.invariant_pair", fronts.invariant_pair, OrientedFront.default(d))
    expect((tb0 + r0) % 2 == 1, f"tb + r = {tb0 + r0} is even")
    note(ctx, d)
    tr = call("fronts.trace_components", fronts.trace_components, d)
    note(ctx, d)
    d2 = call("fronts.insert_zigzag", fronts.insert_zigzag, d, int(u_arc * len(tr.arcs)),
              direction)
    note(ctx, d2)
    tb1, r1 = call("fronts.invariant_pair", fronts.invariant_pair, OrientedFront.default(d2))
    want = (tb0 - 1, r0 + (1 if direction == fronts.UP else -1))
    expect((tb1, r1) == want, f"after zig-zag {direction}: {(tb1, r1)} != {want}")
    expect(len(d2.events) == len(d.events) + 2, "zig-zag did not add two cusps")
    note(ctx, d2)
    z = call("fronts.find_zigzags", fronts.find_zigzags, d2)[0]
    taken = set(z.kink_arcs) | {z.carrier_in, z.carrier_out}
    note(ctx, d2)
    arcs = call("fronts.trace_components", fronts.trace_components, d2).arcs
    targets = [a.index for a in arcs if a.index not in taken]
    if not targets:
        return
    note(ctx, d2)
    d3 = call("fronts.displace_zigzag", fronts.displace_zigzag, d2, z.kink_arcs[0],
              targets[int(u_target * len(targets))])
    note(ctx, d3)
    got = call("fronts.invariant_pair", fronts.invariant_pair, OrientedFront.default(d3))
    expect(got == (tb1, r1), f"displacement changed invariants {(tb1, r1)} -> {got}")
    expect(len(d3.events) == len(d2.events), "displacement changed the event count")


def op_tree(call, ctx, emb) -> None:
    signs = [s for _, s in emb.tree.signs]
    inv = closed_form(signs)
    d = call("trees.build_front", trees.build_front, emb)
    note(ctx, d)
    got = call("fronts.invariant_pair", fronts.invariant_pair, OrientedFront.default(d))
    expect(got == inv, f"tree front invariants {got} != closed form {inv}")
    expect(trees.expected_invariants(emb.tree) == inv, "expected_invariants")
    front, records = call("trees.normalize_front_to_catalog",
                          trees.normalize_front_to_catalog, emb)
    cat = call("trees.catalog_front", trees.catalog_front, *inv)
    note(ctx, front)
    a = call("fronts.serialize_front", fronts.serialize_front, front)
    note(ctx, cat)
    b = call("fronts.serialize_front", fronts.serialize_front, cat)
    expect(a == b, f"normalized front differs from catalog_front{inv}")
    ctx.count("trees.vertices", len(signs))
    ctx.count("trees.moves", len(records))


def op_classify(call, ctx, name, args) -> None:
    if name in ("tight_unknot", "classify_loose"):
        h, at_inf, a, b = args
        if name == "tight_unknot":
            v = call("classify.classify_tight_unknot", classify.classify_tight_unknot, a, b)
            want = ("invalid-invariants" if not (in_range(*a) and in_range(*b))
                    else "isotopic" if a == b else "not-isotopic")
        else:
            tag = classify.ContactStructureTag.overtwisted(h, at_infinity=at_inf)
            v = call("classify.classify_loose", classify.classify_loose, tag, a, b)
            want = ("not-coarsely-equivalent" if a != b
                    else "coarsely-equivalent-and-isotopic" if a[0] < 0 or at_inf
                    else "coarsely-equivalent")
        expect(v.status == want, f"{name}{a, b}: {v.status} != {want}")
    elif name == "loose_check":
        h, tb, trivial = args
        tag = classify.ContactStructureTag.overtwisted(h)
        v = call("classify.loose_check", classify.loose_check, tag, tb, trivial)
        want = "loose-class" if trivial and tb <= 0 else "undetermined-by-this-test"
        expect(v.status == want, f"loose_check: {v.status} != {want}")
    elif name == "exceptional":
        h, tb, r, n_max = args
        classes = call("classify.exceptional_unknot_classes",
                       classify.exceptional_unknot_classes, h)
        member = h == -1 and tb >= 1 and abs(r) == tb - 1
        expect(((tb, r) in classes) == member, f"exceptional membership of {(tb, r)}")
        expect(len(classes.up_to(n_max)) == (2 * n_max - 1 if h == -1 else 0),
               "exceptional class count")
    elif name == "hopf_after_lutz":
        sl, c = args
        k = len(sl)
        lk = [[c] * k for _ in range(k)]
        got = call("classify.hopf_after_lutz", classify.hopf_after_lutz, sl, lk)
        expect(got == sum(sl) + c * k * (k - 1), "hopf_after_lutz closed form")
    elif name == "hopf_after_lutz_front":
        d, pairs = args
        note(ctx, d)
        got = call("classify.hopf_after_lutz_front", classify.hopf_after_lutz_front,
                   OrientedFront.default(d))
        want = sum(tb - r for tb, r in pairs) + 2 * (len(pairs) - 1)
        expect(got == want, f"hopf_after_lutz_front {got} != {want}")
    elif name == "d3_from_hopf":
        (h,) = args
        got = call("classify.d3_from_hopf", classify.d3_from_hopf, h)
        expect(got == Fraction(-2 * h - 1, 2), f"d3({h}) = {got}")
    else:
        (n,) = args
        data = call("classify.complement_torus_data", classify.complement_torus_data, n)
        expect(data.meridian == (-n, 1) and data.wedge_checks() == (1, n),
               f"complement torus data for slope {n}")


def op_render(call, ctx, fmt, d) -> None:
    note(ctx, d)
    if fmt == "ascii":
        check_ascii(call("render.render_ascii", render.render_ascii, d), d)
    else:
        check_svg(call("render.render_svg", render.render_svg, d))


def op_cli(call, ctx, name, args) -> None:
    argv, want = args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(f"cli.{name}", cli.main, argv)
    if code != 0:
        ctx.count("cli.exit_nonzero")
    expect(code == 0, f"legkit {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    text = out.getvalue()
    if name == "invariants":
        d, pairs = want
        of = OrientedFront.default(d)
        note(ctx, d)
        k = len(pairs) if pairs else 1
        lib = [call("fronts.invariant_pair", fronts.invariant_pair, of, c) for c in range(k)]
        got = [(c["tb"], c["r"]) for c in json.loads(text)["components"]]
        expect(got == lib, f"invariants --json {got} != library {lib}")
        if pairs:
            expect(got == pairs, f"link invariants {got} != built {pairs}")
            expect(json.loads(text)["lk"] == expected_lk(k), "invariants --json lk")
    elif name == "catalog":
        cat = call("trees.catalog_front", trees.catalog_front, *want)
        expect(text.strip() == front_lines(cat).strip(), f"catalog {want} differs")
    elif name == "tree2front":
        cat = call("trees.catalog_front", trees.catalog_front, *want)
        expect(text.strip() == front_lines(cat).strip(), "tree2front --normalize differs")
    elif name == "foliate":
        tb, r = want
        absorbs = text.count("# absorb(")
        expect(absorbs == (-1 - tb + r) // 2, f"foliate {want}: {absorbs} absorbs")
    elif name == "render-ascii":
        check_ascii(text, want)
    elif name == "render-svg":
        check_svg(text)
    elif name == "classify-complement":
        expect(text.startswith(want), f"{name}: {text!r} lacks {want!r}")
    else:
        expect(text.splitlines()[0] == want, f"{name}: {text!r} != {want!r}")


def op(call, slot: Slot, rnd: int, ctx) -> None:
    kind, *args = slot.data
    if kind == "stabilize":
        op_stabilize(call, ctx, *args)
    elif kind == "tree":
        op_tree(call, ctx, *args)
    elif kind == "classify":
        op_classify(call, ctx, *args)
    elif kind == "render":
        op_render(call, ctx, *args)
    else:
        op_cli(call, ctx, *args)


def warmup() -> None:
    run_once(op, Slot("stabilize", data=("stabilize", random_knot(random.Random(0), 4),
                                         0.0, 0.5, fronts.UP)))


WORKLOAD = Workload(
    name="small-batch",
    why="thousands of tiny, repeated or freshly mutated ops over every module and "
        "the CLI: per-call overhead and cache hits dominate",
    make_slots=make_slots,
    op=op,
    warmup=warmup,
    ref_every=0.25,
)
