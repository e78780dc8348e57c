"""Tests of the benchmark itself: failure accounting, determinism, metadata.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fronts_ladder  # noqa: E402
import run  # noqa: E402
from harness import end_to_end, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small(wl, max_size):
    """The workload restricted to its inputs of at most ``max_size``."""
    return replace(wl, make_slots=lambda seed, workdir: [
        s for s in wl.make_slots(seed, workdir) if s.size <= max_size])


def test_planted_failures_are_counted_and_the_run_goes_on(tmp_path):
    wl = small(fronts_ladder.WORKLOAD, 40)
    slots = wl.make_slots(3, str(tmp_path))
    wrong, broken = slots[0].key, slots[1].key

    def op(call, slot, rnd, ctx):
        if slot.key == wrong:
            # a defect in the program: the catalog tree of another tb
            def call_wrong(name, fn, *args):
                if name == "trees.catalog_tree":
                    tb, r = args
                    return call(name, fn, tb - 2, r)
                return call(name, fn, *args)
            return fronts_ladder.op(call_wrong, slot, rnd, ctx)
        if slot.key == broken:
            raise ValueError("planted exception")
        return fronts_ladder.op(call, slot, rnd, ctx)

    res = run_workload(replace(wl, op=op), 3, 0.0, False, str(tmp_path), min_rounds=2)
    assert res.rounds == 2
    assert len(res.ops) == 2 * len(slots)
    failed = [o for o in res.ops if not o.ok]
    assert sorted({res.slots[o.slot].key for o in failed}) == sorted({wrong, broken})
    assert len(failed) == 4
    assert any("Mismatch" in f and wrong in f for f in res.failures)
    assert end_to_end(res)["detail"]["fail_ratio"] == 4 / len(res.ops)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for wl in WORKLOADS.values():
        a = wl.make_slots(5, str(tmp_path))
        b = wl.make_slots(5, str(tmp_path))
        c = wl.make_slots(6, str(tmp_path))
        assert [(s.key, repr(s.data)) for s in a] == [(s.key, repr(s.data)) for s in b]
        assert [(s.key, repr(s.data)) for s in a] != [(s.key, repr(s.data)) for s in c]


def test_every_ladder_run_has_the_four_rungs(tmp_path):
    for seed in range(5):
        sizes = {s.size for s in WORKLOADS["fronts-ladder"].make_slots(seed, str(tmp_path))}
        assert {18, 82, 322, 1282} <= sizes and max(sizes) == 1282
        sizes = {s.size for s in WORKLOADS["foliate-ladder"].make_slots(seed, str(tmp_path))
                 if s.ladder}
        assert {9, 41, 161, 641} <= sizes and max(sizes) == 641


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    for wl in (small(WORKLOADS["fronts-ladder"], 100), small(WORKLOADS["foliate-ladder"], 45),
               WORKLOADS["small-batch"]):
        runs = [run_workload(wl, 7, 0.0, False, str(tmp_path)) for _ in range(2)]
        assert runs[0].counts == runs[1].counts and runs[0].counts
        assert all(o.ok for r in runs for o in r.ops), runs[0].failures


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
