"""Calibration, tracing, the closed-loop runner and the statistics.

Timing unit. Wall time on a small shared VM drifts by tens of percent
between runs and between processes, so every op is divided by the time of a
fixed pure-Python reference loop (one ``ref``) calibrated next to it, before
and after.  The loop exercises the same interpreter paths as legkit's
combinatorial code (dict lookups, integer arithmetic), so machine-wide
slowdowns cancel.

Tracing. Spans are recorded around the benchmark's own calls into legkit's
public functions, never inside ``src/legkit``.  A span is
``(name, start, end, parent, op_id)``; the op itself is the root span.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

REF_OUTER = 100  # x 200 inner iterations
# One ~4 ms pass of the loop is itself noisy (its CV reached 20% on a shared
# 2-core VM), so a calibration is the median of REF_PASSES passes.
REF_PASSES = 3
# Peak memory is read after this many rounds (or at the end of a shorter run):
# legkit's trace cache keeps every diagram it saw, so the process peak would
# otherwise grow with however many rounds the clock allowed.
RSS_ROUNDS = 2
TAIL_BEYOND = 10  # inputs that must lie beyond the reported tail percentile


class Mismatch(Exception):
    """An op's output disagreed with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def ref_loop() -> float:
    """Seconds taken by one pass of the fixed reference loop (one ``ref``).

    Dict lookups and stores with every value below 256, which CPython keeps
    preallocated: the loop allocates nothing, so its speed does not depend on
    the allocator state a workload leaves behind (lifts free 100 MB arrays
    between calibrations).
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for a in range(REF_OUTER):
        for b in range(200):
            k = a ^ b
            d[k] = d.get(k, 0) ^ b
    return time.perf_counter() - t0


def calibration() -> float:
    return statistics.median(ref_loop() for _ in range(REF_PASSES))


class Tracer:
    """In-memory span recorder; ``call`` is a plain call when disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, Optional[int], int]] = []
        self._parent: Optional[int] = None
        self._op = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self._parent, self._op))

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        if self.enabled:
            self._parent = len(self.spans)
            self.spans.append(("op", time.perf_counter(), 0.0, None, op_id))

    def end_op(self) -> None:
        if self.enabled and self._parent is not None:
            name, start, _, parent, op = self.spans[self._parent]
            self.spans[self._parent] = (name, start, time.perf_counter(), parent, op)
        self._parent = None


@dataclass
class OpRecord:
    op_id: int
    slot: int
    rnd: int
    traced: bool
    seconds: float
    ok: bool
    ref: float = 0.0  # seconds of one ref around this op

    @property
    def cost_ref(self) -> float:
        return self.seconds / self.ref


@dataclass
class Slot:
    """One input of a workload; ``size`` is its ladder coordinate (0 if none)."""

    key: str
    size: int = 0
    data: object = None
    ladder: bool = True  # takes part in the scaling fits


@dataclass
class RunResult:
    slots: list[Slot]
    ops: list[OpRecord]
    counts: Counter
    accuracy: dict
    failures: list[str]
    spans: list
    refs: list[float]
    rounds: int
    peak_rss_mb: float


@dataclass
class Workload:
    """A named closed-loop workload.

    ``make_slots(seed, workdir)`` builds the inputs (untimed); ``op(call, slot, rnd,
    ctx)`` runs one op, calling legkit only through ``call(name, fn, *args)``
    and raising on any oracle mismatch.  ``ref_every`` is the op time in
    seconds between calibrations (0 calibrates around every op).
    """

    name: str
    why: str
    make_slots: Callable[[int, str], list[Slot]]
    op: Callable
    warmup: Callable[[], None]
    ref_every: float = 0.0
    ladders: dict = field(default_factory=dict)  # span name -> min size in slope fit


class OpContext:
    """Per-op scratch handed to workload ops: counters (first round only)."""

    def __init__(self, counts: Counter, accuracy: dict, first_round: bool,
                 seen: Optional[set] = None):
        self.counts = counts
        self.accuracy = accuracy
        self.first_round = first_round
        self.seen = set() if seen is None else seen  # diagrams met so far in the process

    def count(self, name: str, n: int = 1) -> None:
        if self.first_round:
            self.counts[name] += n

    def worst(self, name: str, value: float) -> None:
        self.accuracy[name] = max(self.accuracy.get(name, 0.0), value)


def run_once(op: Callable, slot: Slot) -> None:
    """One untraced op outside any run, for warm-up."""
    op(Tracer().call, slot, 0, OpContext(Counter(), {}, False))


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                 min_rounds: int = 1) -> RunResult:
    """Run whole rounds over the workload's slots until ``seconds`` is spent.

    A round runs every slot once.  Another round starts only if it is
    expected to finish within the budget, judged by the longest round so
    far, so every run measures whole rounds and the input mix never
    depends on where the clock stopped.  In a traced run rounds alternate
    untraced / traced, so the tracing overhead is measured in-process.
    """
    slots = wl.make_slots(seed, workdir)
    seen: set = set()
    tracer = Tracer()
    counts: Counter = Counter()
    accuracy: dict = {}
    failures: list[str] = []
    ops: list[OpRecord] = []
    refs: list[float] = []
    pending: list[OpRecord] = []
    since_ref = 0.0

    def calibrate() -> None:
        nonlocal since_ref
        refs.append(calibration())
        for rec in pending:
            rec.ref = (refs[-2] + refs[-1]) / 2
        pending.clear()
        since_ref = 0.0

    if trace:
        min_rounds = max(min_rounds, 2)
    t_start = time.perf_counter()
    longest = 0.0
    rnd = 0
    peak = 0.0
    calibrate()
    while True:
        t_round = time.perf_counter()
        traced = trace and rnd % 2 == 1
        tracer.enabled = traced
        ctx = OpContext(counts, accuracy, rnd == 0, seen)
        for i, slot in enumerate(slots):
            op_id = len(ops)
            tracer.begin_op(op_id)
            t0 = time.perf_counter()
            ok = True
            try:
                wl.op(tracer.call, slot, rnd, ctx)
            except Exception as exc:  # any failure is counted; the run goes on
                ok = False
                if len(failures) < 20:
                    failures.append(f"{slot.key} round {rnd}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            tracer.end_op()
            rec = OpRecord(op_id, i, rnd, traced, dt, ok)
            ops.append(rec)
            pending.append(rec)
            since_ref += dt
            if since_ref >= wl.ref_every:
                calibrate()
        if pending:
            calibrate()
        rnd += 1
        if rnd == RSS_ROUNDS:
            peak = peak_rss_mb()
        now = time.perf_counter()
        longest = max(longest, now - t_round)
        if rnd >= min_rounds and now - t_start + longest > seconds:
            break
    return RunResult(slots, ops, counts, accuracy, failures, tracer.spans, refs, rnd,
                     peak or peak_rss_mb())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(spans: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"name": n, "start": s, "end": e, "parent": p, "op": o}
                   for n, s, e, p, o in spans], fh)


# ---------------------------------------------------------------------------
# Statistics


def tail_level(n: int) -> float:
    """The highest quantile level of n inputs with TAIL_BEYOND inputs beyond it."""
    return max(0.0, (n - TAIL_BEYOND) / n)


def quantile(values: list[float], p: float, grid: int = 4000) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted average of all order statistics around rank p*n.  On a
    size ladder neighbouring inputs differ in cost by ~10%, so the plain
    order statistic jumps whenever one noisy input swaps rank; this
    estimate moves only by that input's weight.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log(1 - t)
            for t in ((k + 0.5) / grid for k in range(grid))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    cdf = [0.0]
    for v in dens:
        cdf.append(cdf[-1] + v)
    cdf = [c / cdf[-1] for c in cdf]
    return sum((cdf[round(i * grid / n)] - cdf[round((i - 1) * grid / n)]) * x
               for i, x in enumerate(xs, start=1))


def per_slot_costs(ops: list[OpRecord]) -> dict[int, float]:
    """Each input's cost: the median over its successful repeats, in ref."""
    by: dict[int, list[float]] = defaultdict(list)
    for rec in ops:
        if rec.ok:
            by[rec.slot].append(rec.cost_ref)
    return {s: statistics.median(v) for s, v in by.items()}


def loglog_slope(points: list[tuple[float, float]]) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def end_to_end(res: RunResult) -> dict:
    """The gated metrics (minus set-up time) from untraced ops, with raw-ms equivalents."""
    ops = [o for o in res.ops if not o.traced]
    good = [o for o in ops if o.ok]
    costs = list(per_slot_costs(ops).values())
    total_ref = sum(o.cost_ref for o in good)
    ref_ms = statistics.median(res.refs) * 1000
    n = len(costs)
    level = tail_level(n)
    out = {
        "ops_per_kref": 1000 * len(good) / total_ref if total_ref else 0.0,
        "op_p50_ref": quantile(costs, 0.5) if costs else 0.0,
        "op_tail_ref": quantile(costs, level) if costs else 0.0,
        "peak_rss_mb": res.peak_rss_mb,
    }
    detail = {
        "ref_ms": ref_ms,
        "ops_per_s_raw": out["ops_per_kref"] / ref_ms if ref_ms else 0.0,
        "op_p50_ms_raw": out["op_p50_ref"] * ref_ms,
        "op_tail_ms_raw": out["op_tail_ref"] * ref_ms,
        "tail_percentile": round(100 * level, 1),
        "inputs": n,
        "ops": len(ops),
        "rounds": res.rounds,
        "fail_ratio": (len(ops) - len(good)) / len(ops) if ops else 0.0,
    }
    return {"metrics": out, "detail": detail}


def layer_metrics(wl: Workload, res: RunResult, layers, functions) -> dict:
    """Per-layer numbers from the spans of the traced rounds.

    ``<layer>.self_ref`` is the layer's self time per op, ``.share`` its
    share of op time and ``.calls`` its calls per round; function costs are
    medians over inputs of each input's median over traced repeats.
    """
    ops = {o.op_id: o for o in res.ops if o.traced}
    traced_rounds = {o.rnd for o in ops.values()}
    first = min(traced_rounds) if traced_rounds else -1
    child_time: dict[int, float] = defaultdict(float)
    for name, s, e, parent, _ in res.spans:
        if parent is not None:
            child_time[parent] += e - s
    self_ref: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    fn_cost: dict[tuple[str, int], dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for idx, (name, s, e, parent, op_id) in enumerate(res.spans):
        rec = ops.get(op_id)
        if rec is None or not rec.ok:
            continue
        layer = "bench" if name == "op" else name.split(".", 1)[0]
        self_ref[layer] += (e - s - child_time[idx]) / rec.ref
        if name == "op":
            continue
        if rec.rnd == first:
            calls[layer] += 1
        fn_cost[(name, rec.slot)][rec.rnd] += (e - s) / rec.ref
    n_ops = sum(1 for o in ops.values() if o.ok)
    total = sum(o.cost_ref for o in ops.values() if o.ok)
    out: dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.self_ref"] = self_ref[layer] / n_ops if n_ops else 0.0
        out[f"{layer}.share"] = self_ref[layer] / total if total else 0.0
        out[f"{layer}.calls"] = calls[layer]
    slot_median: dict[str, dict[int, float]] = defaultdict(dict)
    for (name, slot), per_round in fn_cost.items():
        slot_median[name][slot] = statistics.median(per_round.values())
    for name in functions:
        vals = list(slot_median.get(name, {}).values())
        out[f"{name}.p50_ref"] = statistics.median(vals) if vals else 0.0
    top = max((s.size for s in res.slots), default=0)
    for name, min_size in wl.ladders.items():
        per = slot_median.get(name, {})
        pts = [(res.slots[s].size, c) for s, c in per.items()
               if res.slots[s].ladder and res.slots[s].size >= min_size]
        out[f"{name}.slope"] = loglog_slope(pts)
        tops = [c for s, c in per.items() if res.slots[s].ladder and res.slots[s].size == top]
        out[f"{name}.top_ref"] = statistics.median(tops) if tops else 0.0
    untraced = [o for o in res.ops if not o.traced and o.ok]
    traced = [o for o in ops.values() if o.ok]
    if untraced and traced:
        rate_u = len(untraced) / sum(o.cost_ref for o in untraced)
        rate_t = len(traced) / sum(o.cost_ref for o in traced)
        out["trace.ops_per_kref_ratio"] = rate_t / rate_u
    out["bench.share"] = self_ref["bench"] / total if total else 0.0
    return out
