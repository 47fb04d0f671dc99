"""Run one workload of the domlab benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it sets up the workload several times (reporting the
median set-up time), runs operations in a closed loop until ``--seconds``
have passed, checks every answer, and prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of operations twice, in alternating
rounds without and with span wrappers around every public domlab function,
and prints the per-layer metrics.  The last line of standard output is the result object;
the line before it, starting ``detail:``, records the input and answer
digests and the tail percentile.  The exit status is 1 when any answer is
wrong, and 2 when the domlab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Set-up is repeated before and again after the timed phase (at least
# SETUP_MIN_REPEATS times and SETUP_MIN_SECONDS each side), so that its
# median spans the run rather than one moment of the shared machine.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0
TAIL_BEYOND = 10
TRACE_ROUNDS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Functions whose call count and self time are reported in the traced run.
LAYER_FUNCTIONS = (
    "solver.gamma_bb",
    "solver.gamma_restricted",
    "solver.enumerate_minimum_dominating_sets",
    "solver.is_minimal_dominating",
    "solver.shrink_to_minimal",
    "graphs.cartesian_product",
    "graphs.is_dominating",
    "trace.build_trace",
    "trace.verify_trace",
    "trace.contradiction_witness",
    "trace.remark_trace",
    "harness.check_pair",
    "harness.sweep",
    "harness.pair_report_row",
    "harness.remark_search",
    "harness.enumerate_connected_graphs",
    "graph6.encode_graph6",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "solver.gamma_bb.repeat_frac": "ratio",
        "solver.gamma_bb.self_share": "ratio",
        "solver.enumerate_minimum_dominating_sets.hit_frac": "ratio",
        "graphs.product_vertices": "count",
        "harness.remark_search.examined": "count",
        "trace_and_product.self_share": "ratio",
        "setup.self_s": "s",
        "ops.self_s": "s",
        "traced.ops_per_s": "1/s",
        "tracing.ops_per_s_delta": "1/s",
        "tracing.overhead_frac": "ratio",
    })
    return units


def import_domlab() -> None:
    """Import domlab from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "domlab", "__init__.py")):
        print(f"bench: no domlab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import domlab

    if not os.path.abspath(domlab.__file__).startswith(SRC + os.sep):
        print(f"bench: imported domlab from {domlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Phase:
    """Operations of one schedule run in a closed loop: answers and latencies."""

    def __init__(self, wl, schedule):
        self.wl, self.schedule = wl, schedule
        self.ops, self.answers, self.latency = [], [], []
        self.errors: list[str] = []
        self.items = self.error_items = 0
        self.wall = 0.0

    def run(self, first: int = 0, count: int | None = None, seconds: float = 0.0) -> "Phase":
        """Run `count` operations from index `first`, or whole passes until
        `seconds` have passed when `count` is None."""
        wl = self.wl
        clock = time.perf_counter
        start = clock()
        i = first
        while count is None or i < first + count:
            if count is None and i % wl.pass_len == 0 and clock() - start >= seconds:
                break
            op = wl.op_at(self.schedule, i)
            if op is None:
                break
            i += 1
            t0 = clock()
            try:
                answer = wl.run(op)
            except Exception as exc:  # a raising operation counts as failed
                self.latency.append(clock() - t0)
                self.errors.append(f"{type(exc).__name__}: {exc}")
                self.error_items += wl.items(op)
                continue
            self.latency.append(clock() - t0)
            self.ops.append(op)
            self.answers.append(answer)
            self.items += wl.items(op)
        self.wall += clock() - start
        return self

    @property
    def ops_per_s(self) -> float:
        return self.items / self.wall


def tail(latency: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latency)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def set_up(wl, seed: int, stopwatch):
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or (
        time.perf_counter() - start < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        sw = stopwatch()
        schedule = wl.build(seed, sw)
        times.append(sw.seconds)
    return schedule, times


def judge(wl, schedule, phase):
    verdict = wl.check(schedule, phase.ops, phase.answers)
    verdict.attempted += phase.error_items
    verdict.failed += phase.error_items
    verdict.notes.extend(phase.errors[:5])
    return verdict


def layer_metrics(tracer, plain, traced) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Calls, self times and counters cover set-up and operations; the
    `self_share` metrics are shares of the operations' self time only.
    """
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = tracer.self_s(name)
    c = tracer.counters
    ops_s = tracer.total_self_s("ops")
    bb_calls = tracer.calls("solver.gamma_bb")
    subsets = c["solver.enumerate_minimum_dominating_sets.subsets"]
    trace_and_product = tracer.total_self_s("ops", "trace.") + tracer.self_s(
        "graphs.cartesian_product", "ops"
    )
    out.update({
        "solver.gamma_bb.repeat_frac": c["solver.gamma_bb.repeats"] / bb_calls if bb_calls else 0.0,
        "solver.gamma_bb.self_share": tracer.self_s("solver.gamma_bb", "ops") / ops_s,
        "solver.enumerate_minimum_dominating_sets.hit_frac":
            c["solver.enumerate_minimum_dominating_sets.found"] / subsets if subsets else 0.0,
        "graphs.product_vertices": c["graphs.product_vertices"],
        "harness.remark_search.examined": c["harness.remark_search.examined"],
        "trace_and_product.self_share": trace_and_product / ops_s,
        "setup.self_s": tracer.total_self_s("setup"),
        "ops.self_s": ops_s,
        "traced.ops_per_s": traced.ops_per_s,
        "tracing.ops_per_s_delta": plain.ops_per_s - traced.ops_per_s,
        "tracing.overhead_frac": 1.0 - traced.ops_per_s / plain.ops_per_s,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_domlab()
    from spans import Tracer
    from workloads import WORKLOADS, Stopwatch, digest, load_reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](load_reference())
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace}

    if args.trace == 0:
        schedule, setup_times = set_up(wl, args.seed, Stopwatch)
        phase = Phase(wl, schedule).run(seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += set_up(wl, args.seed, Stopwatch)[1]
        verdict = judge(wl, schedule, phase)
        tail_s, tail_pct = tail(phase.latency)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": 1000 * statistics.median(phase.latency),
            "op_tail_ms": 1000 * tail_s,
            "ok_frac": 1.0 - verdict.failed / verdict.attempted,
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        detail.update({
            "setup_repeats": len(setup_times),
            "latency_samples": len(phase.latency),
            "op_tail_percentile": round(tail_pct, 2),
            "op_tail_samples_beyond": round(len(phase.latency) * (1 - tail_pct / 100)),
            "timed_s": phase.wall,
        })
        verdicts = [verdict]
    else:
        schedule = wl.build(args.seed, Stopwatch())
        tracer = Tracer()
        with tracer.active("setup"):
            traced_schedule = wl.build(args.seed, Stopwatch())
        plain, traced = Phase(wl, schedule), Phase(wl, traced_schedule)
        # Alternate untraced and traced rounds so that drift in machine speed
        # falls on both sides of the overhead estimate alike.
        cuts = [wl.trace_ops * k // TRACE_ROUNDS for k in range(TRACE_ROUNDS + 1)]
        for first, stop in zip(cuts, cuts[1:]):
            plain.run(first, stop - first)
            with tracer.active("ops"):
                traced.run(first, stop - first)
        verdicts = [judge(wl, schedule, plain), judge(wl, traced_schedule, traced)]
        if wl.describe(traced_schedule) != wl.describe(schedule):
            verdicts[-1].failed += 1
            verdicts[-1].notes.append("the traced set-up built different inputs")
        if verdicts[0].answers != verdicts[1].answers:
            verdicts[-1].failed += 1
            verdicts[-1].notes.append("traced and untraced answers differ")
        metrics = layer_metrics(tracer, plain, traced)
        units = per_layer_units()
        verdict = verdicts[-1]

    correct = all(v.correct for v in verdicts)
    detail.update({
        "inputs_sha256": digest(wl.describe(schedule)),
        "answers_sha256": verdict.answers,
        "expected_sha256": verdict.expected,
        "notes": [n for v in verdicts for n in v.notes],
    })
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
