"""Per-layer scaling table of two legkit trees, timed side by side.

    python tools/layer_scaling.py [--parent REV] [--sizes 161,321,641,1281,2561]
                                  [--runs 7] [--processes 3]

Extracts ``src/legkit`` at REV (default HEAD) with ``git archive`` and
imports it next to the working tree's ``src/legkit``, as two packages under
two names, in each of K fresh processes run one after another.  A process
times every layer at every size N times per side, alternating the parent's
call and the change's call (and which of the two goes first), and keeps
each side's best time.  Each layer's input is built outside the timed call,
by the side's own package:

    catalog_tree      catalog_tree(-t, 0)
    catalog_tree_leaves  catalog_tree(-t, r), r the even number nearest t/2: its hub
                      has leaves at fractional heights (r = 0 on an odd t has none)
    embedding_make    AcceptableEmbedding.make of a new copy of that tree and the
                      embedding's coordinates as a dict: the public checked path
    build_front       build_front on catalog_tree(-t, 0)
    trace_components  the trace of a new diagram of catalog_front(-t, 0)'s events
    orientation       OrientedFront.default of a new traced diagram of those events,
                      and its per-arc directions
    invariant_pair    component 0 of a new default orientation of that traced diagram
    linking_matrix    a new default orientation of a traced 2-component link of
                      about 2t events: two copies of catalog_front(tb, 0), tb the
                      odd one of -t/2 and -t/2 - 1, one clasped inside the other
    realize_front     realize_front of the traced knot diagram
    signed_tree       SignedTree(signs, edges) of catalog_tree(-t, 0)'s tree: the check alone
    normalize_front_to_catalog  normalize_front_to_catalog of spread_embedding of a new
                      random tree on t + 1 vertices (random.Random(t), each vertex
                      hung off an earlier one, signs alternating along the edges):
                      its moves to the broom and the checked catalog front
    init_boundary     init_boundary(-t, 0)
    to_naf            to_naf of a new init_boundary(-t, 0): its boundary facts, nothing to convert
    to_elliptic_form  to_elliptic_form of a new reduced state of (-t, 0)
    raw_pipeline      to_naf, reduce_interior and to_elliptic_form of a new all-elliptic
                      init_boundary(-t, 0); only for t <= 641 (RAW_MAX)
    legendrian_lift   the default lift of component 0 of realize_front(catalog_front(-t, 0))
                      in its default orientation
    winding           the winding number of a new LiftedCurve over that lift's arrays
    quadrature        the closure integral (and the residual) of such a new curve
    lagrangian_embeddedness_check  the double-point check of such a new curve
                      (the four lifting rows only for t <= 161, LIFT_MAX)

The output is one JSON object: per layer and side, the median over the
processes of each process's best time in ms, the collections per call of
each GC generation (read from ``gc.callbacks``, averaged over every timed
call), and the least-squares slope of log(ms) against log(t), over the
layer's sizes (``sizes_tb``).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LAYERS = ("catalog_tree", "catalog_tree_leaves", "embedding_make", "build_front",
          "trace_components", "orientation", "invariant_pair", "linking_matrix",
          "realize_front", "signed_tree", "normalize_front_to_catalog", "init_boundary", "to_naf",
          "to_elliptic_form", "raw_pipeline", "legendrian_lift", "winding", "quadrature",
          "lagrangian_embeddedness_check")
RAW_MAX = 641  # raw_pipeline's largest |tb|: the raw stages are measured up to tb = -641
# the lifting rows' largest |tb|: a default lift of (-161, 0) has about 1.3 million
# samples, 30 MiB of arrays
LIFT_MAX = 161
CAPS = {"raw_pipeline": RAW_MAX, "legendrian_lift": LIFT_MAX, "winding": LIFT_MAX,
        "quadrature": LIFT_MAX, "lagrangian_embeddedness_check": LIFT_MAX}


def layer_sizes(layer: str, sizes: list[int]) -> list[int]:
    """The sizes a layer is timed at: all of them, up to the layer's cap if it has one."""
    return [t for t in sizes if t <= CAPS.get(layer, t)]


def load(name: str, package_dir: Path):
    """The legkit package in ``package_dir``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("fronts", "trees", "render", "foliation", "lifting")}


def nest(fronts, outer, inner):
    """``inner`` between the strands of ``outer``'s first cusp, clasped once."""
    ev = fronts.FrontEvent
    first, *rest = outer.events
    shifted = [ev(e.kind, e.position + 1) for e in inner.events]
    events = [first, shifted[0], ev(fronts.CROSS, 1), ev(fronts.CROSS, 1)]
    return fronts.FrontDiagram(tuple(events + shifted[1:] + rest))


def setups(pkg, t: int) -> dict:
    """Per layer, a function that builds a fresh input and returns the call
    to time.  Only events are kept between calls, so no diagram that an
    earlier call traced is alive to share its trace with the next."""
    fronts, trees, render, fo = pkg["fronts"], pkg["trees"], pkg["render"], pkg["foliation"]
    lifting = pkg["lifting"]
    emb = trees.catalog_tree(-t, 0)
    half = 2 * round(t / 4)  # the even number nearest t/2
    leaves = trees.catalog_tree(-t, half)
    knot = trees.catalog_front(-t, 0).events
    part = trees.catalog_front(-(t // 2 | 1), 0)  # odd tb: (tb, 0) is an unknot's
    link = nest(fronts, part, part).events

    def traced(events):
        d = fronts.FrontDiagram(events)
        fronts.trace_components(d)
        return d

    def trace():
        d = fronts.FrontDiagram(knot)
        return lambda: fronts.trace_components(d)

    def made():
        tree, coords = trees.SignedTree(leaves.tree.signs, leaves.tree.edges), dict(leaves.coords)
        return lambda: trees.AcceptableEmbedding.make(tree, coords)

    def orientation():
        d = traced(knot)
        return lambda: fronts.OrientedFront.default(d).directions

    def normalize():
        rng = random.Random(t)
        parents, signs = [rng.randrange(v) for v in range(1, t + 1)], {0: 1}
        for v, u in enumerate(parents, 1):
            signs[v] = -signs[u]
        scattered = trees.spread_embedding(trees.SignedTree.make(signs, enumerate(parents, 1)))
        return lambda: trees.normalize_front_to_catalog(scattered)

    def invariants():
        of = fronts.OrientedFront.default(traced(knot))
        return lambda: fronts.invariant_pair(of, 0)

    def linking():
        of = fronts.OrientedFront.default(traced(link))
        return lambda: fronts.linking_matrix(of)

    def realize():
        d = traced(knot)
        return lambda: render.realize_front(d)

    def naf():
        s = fo.init_boundary(-t, 0)
        return lambda: fo.to_naf(s)

    def elliptic():
        s = fo.reduce_interior(fo.to_naf(fo.init_boundary(-t, 0)))
        return lambda: fo.to_elliptic_form(s)

    def raw():
        s = fo.init_boundary(-t, 0, [fo.ELLIPTIC] * (2 * t))
        return lambda: fo.to_elliptic_form(fo.reduce_interior(fo.to_naf(s)))

    lifted = []  # the one lift of this size, made when a lifting row first needs it

    def lift():
        rf = render.realize_front(traced(knot))
        return lambda: lifting.legendrian_lift(rf)

    def curve(measure):
        """A new curve over the lift's arrays, so that nothing it caches is reused."""
        def make():
            if not lifted:
                lifted.append(lifting.legendrian_lift(render.realize_front(traced(knot))))
            lc = lifting.LiftedCurve(lifted[0].x, lifted[0].y, lifted[0].z)
            return lambda: measure(lc)
        return make

    return {
        "catalog_tree": lambda: lambda: trees.catalog_tree(-t, 0),
        "catalog_tree_leaves": lambda: lambda: trees.catalog_tree(-t, half),
        "embedding_make": made,
        "build_front": lambda: lambda: trees.build_front(emb),
        "trace_components": trace,
        "orientation": orientation,
        "invariant_pair": invariants,
        "linking_matrix": linking,
        "realize_front": realize,
        "signed_tree": lambda: lambda: trees.SignedTree(emb.tree.signs, emb.tree.edges),
        "normalize_front_to_catalog": normalize,
        "init_boundary": lambda: lambda: fo.init_boundary(-t, 0),
        "to_naf": naf,
        "to_elliptic_form": elliptic,
        "raw_pipeline": raw,
        "legendrian_lift": lift,
        "winding": curve(lambda lc: lc.winding),
        "quadrature": curve(lambda lc: lc.closure_integral()),
        "lagrangian_embeddedness_check": curve(lifting.lagrangian_embeddedness_check),
    }


def worker(parent_dir: Path, sizes: list[int], runs: int, parent_first: bool) -> dict:
    """Best ms and collections per call for each layer, size and side."""
    pkgs = {"parent": load("legkit_parent", parent_dir),
            "change": load("legkit_change", ROOT / "src" / "legkit")}
    counts = [0, 0, 0]

    def tally(phase, info):
        if phase == "stop":
            counts[info["generation"]] += 1

    out = {layer: {side: {"ms": [], "gc": []} for side in SIDES} for layer in LAYERS}
    for t in sizes:
        made = {side: setups(pkgs[side], t) for side in SIDES}
        for layer in (layer for layer in LAYERS if t in layer_sizes(layer, sizes)):
            best = {side: math.inf for side in SIDES}
            gcs = {side: [0, 0, 0] for side in SIDES}
            gc.collect()
            for run in range(runs):
                order = SIDES if (run % 2 == 0) == parent_first else SIDES[::-1]
                for side in order:
                    call = made[side][layer]()
                    counts[:] = [0, 0, 0]
                    gc.callbacks.append(tally)
                    start = time.perf_counter()
                    result = call()
                    elapsed = time.perf_counter() - start
                    gc.callbacks.remove(tally)
                    del result, call
                    best[side] = min(best[side], elapsed)
                    gcs[side] = [a + b for a, b in zip(gcs[side], counts)]
            for side in SIDES:
                out[layer][side]["ms"].append(best[side] * 1e3)
                out[layer][side]["gc"].append([c / runs for c in gcs[side]])
        del made
    return out


def slope(xs: list[int], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--sizes", default="161,321,641,1281,2561",
                    help="comma-separated odd |tb|")
    ap.add_argument("--runs", type=int, default=7, help="timed calls per side, layer and size")
    ap.add_argument("--processes", type=int, default=3, help="fresh processes, one at a time")
    ap.add_argument("--worker", help=argparse.SUPPRESS)  # the extracted parent package
    ap.add_argument("--parent-first", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if any(t < 1 or t % 2 == 0 for t in sizes):
        ap.error("each size is an odd |tb| >= 1: catalog_tree(tb, 0) needs tb odd")
    if args.worker:
        json.dump(worker(Path(args.worker), sizes, args.runs, bool(args.parent_first)),
                  sys.stdout)
        return 0

    sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", sha, "src/legkit"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        runs = []
        for k in range(args.processes):
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", str(Path(tmp) / "src" / "legkit"),
                 "--sizes", args.sizes, "--runs", str(args.runs),
                 "--parent-first", str(int(k % 2 == 0))],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
            runs.append(json.loads(proc.stdout))

    layers = {}
    for layer in LAYERS:
        ts = layer_sizes(layer, sizes)
        layers[layer] = {"sizes_tb": [-t for t in ts]}
        for side in SIDES:
            per_process = [run[layer][side]["ms"] for run in runs]
            ms = [statistics.median(col) for col in zip(*per_process)]
            gcs = [[round(statistics.fmean(g), 3) for g in zip(*col)]
                   for col in zip(*(run[layer][side]["gc"] for run in runs))]
            layers[layer][side] = {
                "ms": [round(v, 4) for v in ms],
                "ms_per_process": [[round(v, 4) for v in p] for p in per_process],
                "gc_per_call": gcs,
                "slope": round(slope(ts, ms), 3) if len(ts) > 1 else None,
            }
    report = {
        "tool": "tools/layer_scaling.py",
        "parent": sha,
        "change": "working tree",
        "sizes_tb": [-t for t in sizes],
        "runs": args.runs,
        "processes": args.processes,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "units": {"ms": "ms, median over processes of each process's best call",
                  "gc_per_call": "gen-0/1/2 collections per timed call, mean over all calls",
                  "slope": "least-squares slope of log(ms) against log(|tb|)"},
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
