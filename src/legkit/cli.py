"""Command-line frontend.

One binary, subcommand style: invariants, catalog, tree2front, foliate,
classify, render, fuzz.  Exit codes: 0 success, 1 domain error, 2 usage
error.  Machine-readable output sits behind --json; human output is
free-form but deterministic.  LEGKIT_SEED controls fuzz reproducibility.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import fronts  # every command reads or writes fronts; each imports the rest itself
from .errors import LegkitError, ParseError


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 (byte {data[exc.start]:#04x})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def _int(text: str) -> int:
    # ASCII -?[0-9]+ as in the file formats; int() alone reads "+1", "1_0" and "\u0661"
    if not fronts.INT_TOKEN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _ints(text: str) -> list[int]:
    try:
        return [_int(v) for v in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _pair(text: str) -> tuple[int, int]:
    vals = _ints(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected TB,R, got {text!r}")
    return vals[0], vals[1]


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            n = _int(text)
        except argparse.ArgumentTypeError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n

    return parse


def _matrix(text: str) -> list[list[int]]:
    return [_ints(row) for row in text.split(";")]


def _orient(text: str) -> tuple[int, int]:
    comp, _, sign = text.partition(":")
    try:
        n = _int(comp)
    except argparse.ArgumentTypeError:
        n = -1
    if n < 0 or sign not in ("+", "-"):
        raise argparse.ArgumentTypeError(f"expected COMP:+ or COMP:-, got {text!r}")
    return n, 1 if sign == "+" else -1


def cmd_invariants(args) -> int:
    d = fronts.parse_front(_read(args.path))
    if args.orient:
        # each flag sets its component's orientation as one more orient line
        d = fronts.FrontDiagram(d.events, d.orient_overrides + tuple(args.orient))
    of = fronts.OrientedFront.default(d)
    tr = of.trace
    comps = [args.component] if args.component is not None else list(range(tr.n_components))
    checks = {"parity": fronts.check_parity, "bennequin": fronts.check_bennequin,
              "range": fronts.in_unknot_range}
    records = [{"component": c, "tb": tb, "r": r, **{k: f(tb, r) for k, f in checks.items()}}
               for c in comps for tb, r in [fronts.invariant_pair(of, c)]]
    lk = fronts.linking_matrix(of) if tr.n_components > 1 else None
    if args.json:
        print(json.dumps({"components": records, "lk": lk}, sort_keys=True))
        return 0
    for rec in records:
        flags = " ".join(f"{k}={'yes' if rec[k] else 'no'}" for k in checks)
        print(f"component {rec['component']}: tb={rec['tb']} r={rec['r']} {flags}")
    if lk is not None:
        for i, row in enumerate(lk):
            cells = " ".join("." if v is None else str(v) for v in row)
            print(f"lk[{i}] {cells}")
    return 0


def cmd_catalog(args) -> int:
    from . import trees

    if args.tree:
        emb = trees.catalog_tree(args.tb, args.r)
        print(trees.serialize_tree(emb))
        return 0
    d = trees.catalog_front(args.tb, args.r)
    if args.svg:
        from . import render

        print(render.render_svg(d))
    else:
        print(fronts.serialize_front(d))
    return 0


def cmd_tree2front(args) -> int:
    from . import trees

    emb = trees.parse_tree(_read(args.path))
    if args.normalize:
        front, moves = trees.normalize_front_to_catalog(emb)
        if args.trace:
            for edge, target in moves:
                print(f"# end-edge move: {edge} -> {target}", file=sys.stderr)
        print(fronts.serialize_front(front))
        return 0
    d = trees.build_front(emb)
    if args.trace:
        tb, r = trees.expected_invariants(emb.tree)
        print(f"# built {len(d.events)} events, invariants ({tb}, {r})", file=sys.stderr)
    print(fronts.serialize_front(d))
    return 0


def cmd_foliate(args) -> int:
    from . import foliation as fol
    from . import trees

    kinds = None
    if args.raw:
        kinds = [fol.ELLIPTIC] * (2 * abs(args.tb))
    state = fol.init_boundary(args.tb, args.r, boundary_kinds=kinds)
    state = fol.to_naf(state)
    naf_steps = len(state.trace)
    state = fol.reduce_interior(state)
    state, skel = fol.to_elliptic_form(state)
    if args.trace:
        for k, step in enumerate(state.trace):
            marker = "" if k < naf_steps else " [post-NAF regime]"
            print(f"# {step.describe()}{marker}")
    if args.skeleton:
        print(trees.serialize_tree(skel.embedding()))
        return 0
    print(fol.dump_state(state))
    return 0


def cmd_classify(args) -> int:
    from . import classify as cls

    sub = args.oracle
    if sub == "tight-unknot":
        verdict = cls.classify_tight_unknot(args.a, args.b)
    elif sub == "loose":
        # either --tb alone, or --a and --b together
        if (args.a is None) != (args.b is None) or (args.a is None) == (args.tb is None):
            args.error("give either --tb or both --a and --b")
        tag = cls.ContactStructureTag.overtwisted(args.hopf, at_infinity=args.at_infinity)
        if args.a:
            verdict = cls.classify_loose(tag, args.a, args.b)
        else:
            verdict = cls.loose_check(tag, args.tb, not args.nontrivial)
    elif sub == "exceptional":
        if (args.tb is None) != (args.r is None):
            args.error("give both --tb and --r, or neither")
        classes = cls.exceptional_unknot_classes(args.hopf)
        if args.tb is not None:
            member = (args.tb, args.r) in classes
            if args.json:
                print(json.dumps({"hopf": args.hopf, "pair": [args.tb, args.r],
                                  "member": member}, sort_keys=True))
            else:
                print("exceptional class exists" if member else "no such exceptional class")
            return 0
        pairs = classes.up_to(args.list)
        if args.json:
            print(json.dumps({"hopf": args.hopf, "classes": pairs}, sort_keys=True))
        else:
            print(" ".join(f"({tb},{r})" for tb, r in pairs) if pairs else "(none)")
        return 0
    elif sub == "hopf-lutz":
        if args.front:
            d = fronts.parse_front(_read(args.front))
            h = cls.hopf_after_lutz_front(fronts.OrientedFront.default(d))
        else:
            k = len(args.sl)
            lk = args.lk if args.lk is not None else [[0]]
            if len(lk) == 1 and len(lk[0]) == 1:  # a constant
                lk = [[lk[0][0]] * k for _ in range(k)]
            h = cls.hopf_after_lutz(args.sl, lk)
        print(h)
        return 0
    elif sub == "d3":
        print(cls.d3_from_hopf(args.hopf))
        return 0
    elif sub == "complement":
        data = cls.complement_torus_data(args.slope)
        w_theta, w_x = data.wedge_checks()
        print(f"meridian=({data.meridian[0]},{data.meridian[1]}) "
              f"slope={data.singularity_slope} wedges=({w_theta},{w_x}) "
              f"rule={data.pushoff_rotation_rule!r}")
        return 0
    else:  # pragma: no cover
        raise AssertionError(sub)
    if args.json:
        print(verdict.to_json())
    else:
        print(verdict.status)
        if verdict.representative:
            print(verdict.representative)
        if verdict.detail:
            print(f"# {verdict.detail}")
    return 0


def cmd_render(args) -> int:
    from . import render

    d = fronts.parse_front(_read(args.path))
    if args.lift_csv:
        from . import lifting  # numpy: only the lift

        lc = lifting.legendrian_lift(render.realize_front(d), samples_per_arc=args.samples)
        print(lifting.lift_csv(lc))
        return 0
    if args.format == "svg":
        print(render.render_svg(d))
    else:
        print(render.render_ascii(d))
    return 0


def cmd_fuzz(args) -> int:
    from . import trees

    try:
        seed = _int(os.environ.get("LEGKIT_SEED", "271828"))
    except argparse.ArgumentTypeError as exc:
        args.error(f"LEGKIT_SEED: {exc}")
    rng = random.Random(seed)
    for case in range(args.count):
        failure = None
        if rng.random() < 0.5:
            d = fronts.random_single_component_front(rng)
            of = fronts.OrientedFront.default(d)
            tb, r = fronts.invariant_pair(of)
            if not fronts.check_parity(tb, r):
                failure = f"tb + r = {tb + r} is even"
            elif fronts.rotation_number(of.reverse(0)) != -r:
                failure = "r does not flip under reversal"
            elif (sum(ev.kind == fronts.CROSS for ev in d.events) <= 2
                  and not fronts.in_unknot_range(tb, r)):
                # a diagram of at most 2 crossings is a topological unknot
                failure = f"({tb}, {r}) is outside the unknot range with at most 2 crossings"
        else:
            emb = trees.random_acceptable_embedding(rng)
            d = trees.build_front(emb)
            got = fronts.invariant_pair(fronts.OrientedFront.default(d))
            want = trees.expected_invariants(emb.tree)
            if got != want:
                failure = f"invariants {got} != closed form {want}"
        if failure:
            print(f"fuzz: case {case} failed (seed {seed}): {failure}\n"
                  f"{fronts.serialize_front(d)}", file=sys.stderr)
            return 1
    print(f"fuzz: {args.count} cases ok (seed {seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="legkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="tb, r, linking and range flags of a front file")
    p.add_argument("path")
    p.add_argument("--component", type=_int)
    p.add_argument("--orient", action="append", type=_orient, metavar="COMP:+|-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("catalog", help="canonical tree/front for a (tb, r) pair")
    p.add_argument("--tb", type=_int, required=True)
    p.add_argument("--r", type=_int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--tree", action="store_true")
    g.add_argument("--front", action="store_true")
    g.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("tree2front", help="build the front of a signed tree file")
    p.add_argument("path")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_tree2front)

    p = sub.add_parser("foliate", help="run the disk-foliation pipeline")
    p.add_argument("--tb", type=_int, required=True)
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--skeleton", action="store_true")
    p.add_argument("--raw", action="store_true",
                   help="start from an all-elliptic boundary instead of NAF")
    p.set_defaults(func=cmd_foliate)

    p = sub.add_parser("classify", help="classification oracles")
    ps = p.add_subparsers(dest="oracle", required=True)
    q = ps.add_parser("tight-unknot")
    q.add_argument("--a", required=True, type=_pair, metavar="TB,R")
    q.add_argument("--b", required=True, type=_pair, metavar="TB,R")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_classify)
    q = ps.add_parser("loose")
    q.add_argument("--hopf", type=_int, required=True)
    q.add_argument("--tb", type=_int)
    q.add_argument("--a", type=_pair, metavar="TB,R")
    q.add_argument("--b", type=_pair, metavar="TB,R")
    q.add_argument("--nontrivial", action="store_true")
    q.add_argument("--at-infinity", action="store_true")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_classify, error=q.error)
    q = ps.add_parser("exceptional")
    q.add_argument("--hopf", type=_int, required=True)
    q.add_argument("--tb", type=_int)
    q.add_argument("--r", type=_int)
    q.add_argument("--list", type=_at_least(0), default=5)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_classify, error=q.error)
    q = ps.add_parser("hopf-lutz")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--front")
    g.add_argument("--sl", type=_ints, help="comma-separated self-linking numbers")
    q.add_argument("--lk", type=_matrix, help="constant, or semicolon-separated matrix rows")
    q.set_defaults(func=cmd_classify)
    q = ps.add_parser("d3")
    q.add_argument("--hopf", type=_int, required=True)
    q.set_defaults(func=cmd_classify)
    q = ps.add_parser("complement")
    q.add_argument("--slope", type=_int, required=True)
    q.set_defaults(func=cmd_classify)

    p = sub.add_parser("render", help="SVG/ASCII picture or lift CSV of a front file")
    p.add_argument("path")
    p.add_argument("--format", choices=("svg", "ascii"), default="ascii")
    p.add_argument("--lift-csv", action="store_true")
    p.add_argument("--samples", type=_at_least(2), default=4000,
                   help="samples per arc of the lift (at least 2)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fuzz", help="random self-checks (LEGKIT_SEED)")
    p.add_argument("--count", type=_at_least(0), default=200)
    p.set_defaults(func=cmd_fuzz, error=p.error)
    return ap


_VALUE_FLAGS = {"--sl", "--lk", "--a", "--b", "--orient"}


def _join_value_flags(argv: list[str]) -> list[str]:
    # let flag values start with a dash: --sl -1,-1,-1
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


_PARSER = None  # one per process, built by the first main() call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(_join_value_flags(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except LegkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
