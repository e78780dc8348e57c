"""legkit benchmark: four seeded closed-loop workloads, timed in ref units.

Usage (from the repository root):

    python3 bench/run.py --workload fronts-ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

One process and one caller thread per workload.  Inputs are generated from
the seed during set-up, untimed; then whole rounds over the inputs run
until the time budget is spent.  Every op is checked against an oracle;
any exception or mismatch counts as a failure and the run goes on.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the benchmark's calls (the spans are
also written to ``bench/out/``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
N_PROBES = 5  # fresh interpreters per set-up measurement
PROBE_TIMEOUT = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
LAYERS = ("fronts", "trees", "foliation", "lifting", "classify", "render", "cli")
FUNCTIONS = (
    [f"fronts.{f}" for f in ("parse_front", "serialize_front", "trace_components",
                             "invariant_pair", "invariant_pair_reversed", "linking_matrix",
                             "insert_zigzag", "displace_zigzag")]
    + [f"trees.{f}" for f in ("catalog_tree", "build_front", "normalize_front_to_catalog")]
    + [f"foliation.{f}" for f in ("init_boundary", "to_naf", "reduce_interior",
                                  "to_elliptic_form", "extract_skeleton")]
    + [f"lifting.{f}" for f in ("realize_front", "legendrian_lift", "closure_integral",
                                "legendrian_residual", "numeric_rotation",
                                "rotation_residual", "lagrangian_embeddedness_check")]
    + ["classify.classify_tight_unknot", "classify.hopf_after_lutz_front",
       "render.render_ascii", "render.render_svg"]
)
COUNTS = ("fronts.events", "fronts.arcs", "fronts.components", "fronts.crossings",
          "fronts.cusps", "trees.vertices", "trees.moves", "foliation.rewrites.convert",
          "foliation.rewrites.eliminate", "foliation.rewrites.rewire",
          "foliation.rewrites.absorb", "lifting.samples", "lifting.double_points",
          "cli.exit_nonzero")
ACCURACY = ("lifting.closure_rel_max", "lifting.residual_rel_max",
            "lifting.rotation_residual_max")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def layer_functions() -> list[str]:
    from small_batch import COMMANDS

    return FUNCTIONS + [f"cli.{c}" for c in COMMANDS]


def per_layer_units(workloads) -> dict[str, str]:
    """Every per-layer metric name with its unit, the same for every workload."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_ref": "ref", f"{layer}.share": "ratio",
                      f"{layer}.calls": "count"})
    for name in layer_functions():
        units[f"{name}.p50_ref"] = "ref"
    for wl in workloads.values():
        for name in wl.ladders:
            units[f"{name}.slope"] = "log-log"
            units[f"{name}.top_ref"] = "ref"
    units.update({name: "count" for name in COUNTS})
    units["fronts.repeat_share"] = "ratio"
    units.update({name: "ratio" for name in ACCURACY})
    units["trace.ops_per_kref_ratio"] = "ratio"
    units["bench.share"] = "ratio"
    return units


def measure_setup(workload: str) -> list[float]:
    """Seconds from interpreter start to 'import legkit + warm-up op done'."""
    times = []
    for _ in range(N_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            fail(f"set-up probe for {workload} failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from harness import end_to_end, layer_metrics, run_workload, write_spans
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    wl.warmup()
    setup = measure_setup(name)
    workdir = BENCH / f".work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        res = run_workload(wl, seed, seconds, trace, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(res)
    metrics = {"setup_s": statistics.median(setup), **e2e["metrics"]}
    detail = {"workload": name, "seed": seed, "setup_runs_s": setup, **e2e["detail"],
              "failures": res.failures}
    if trace:
        units = per_layer_units(WORKLOADS)
        layer = layer_metrics(wl, res, LAYERS, layer_functions())
        for cname in COUNTS:
            layer[cname] = res.counts[cname]
        calls = res.counts["fronts.front_calls"]
        layer["fronts.repeat_share"] = res.counts["fronts.repeat_calls"] / calls if calls else 0.0
        for aname in ACCURACY:
            layer[aname] = res.accuracy.get(aname, 0.0)
        shown = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in units.items()}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        write_spans(res.spans, out_dir / f"spans-{name}-seed{seed}.json")
        detail["untraced_end_to_end"] = metrics
    else:
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    ref_ms = e2e["detail"]["ref_ms"]
    print(f"# {name} seed={seed} rounds={res.rounds} inputs={e2e['detail']['inputs']} "
          f"tail=p{e2e['detail']['tail_percentile']} ref_ms={ref_ms:.4f}")
    for key, m in shown.items():
        raw = f"  (= {m['value'] * ref_ms:.4f} ms)" if m["unit"] == "ref" else ""
        print(f"{key:56s} {m['value']:>16.6g} {m['unit']}{raw}")
    print("detail " + json.dumps(detail))
    attempted = len(res.ops)
    failed = sum(1 for o in res.ops if not o.ok)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    from workloads import WORKLOADS

    merged, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "legkit" / "__init__.py").is_file():
        fail(f"no legkit sources under {SRC}; run from a legkit checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import legkit

    if Path(legkit.__file__).resolve().parent != (SRC / "legkit").resolve():
        fail(f"imported legkit from {legkit.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
