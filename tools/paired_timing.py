"""Time two checkouts of domlab against each other, in one process.

    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7919 --ops 100 --rounds 4
    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7 --setup --rounds 20
    python3 tools/paired_timing.py BASE NEW --workload remark --memory --rounds 2
    python3 tools/paired_timing.py BASE NEW --workload remark --rss --ops 30756 --rounds 1

BASE and NEW are checkout roots (each holds `src/domlab` and `bench/`).
Each checkout's package is loaded under its own name (`domlab_base`,
`domlab_new`), and its `bench/workloads.py` with `domlab` bound to that
package; nothing in either checkout is written.  Both sides build the
workload's schedule from the same seed.  A round runs operations 0 to
ops - 1 once on each side, alternating which side goes first, and stops
with an error when the two sides answer an operation differently.  Each
round prints the seconds of each side and their ratio, base over new, so a
ratio above 1 means NEW is faster; the last line gives the median ratio.

With `--setup` a round instead builds the workload's inputs once on each
side, alternating which side goes first, and times the domlab calls of
each build with that side's own `Stopwatch` (what `bench/run.py` reports
as `setup_s`), printed to five decimals.  It stops with an error when the
two builds describe different inputs.

With `--memory` a round instead runs operations 0 to ops - 1 on one side
and then on the other, alternating which side goes first, each pass under
`tracemalloc`, and prints each side's peak of memory allocated during its
pass, in MB, and their ratio, base over new (above 1: NEW holds less).
Timing cannot show what a cache holds.  The first round starts with each
side's process-wide caches as its set-up left them, so its peaks include
what they grow by; later rounds find them warm.  Both passes hold their
answers until the round ends, the same on both sides when they agree.

With `--rss` a round instead runs each side in a fresh subprocess,
alternating which side goes first: the child sets the workload up and runs
operations 0 to ops - 1 through that checkout's own `bench/run.py`
(`set_up`, then `Phase.run`), and reports its peak resident set size
(`ru_maxrss`, what `bench/run.py` reports as `peak_rss_mb`).  The round
prints each side's peak in MB and their ratio, base over new (above 1: NEW
holds less).  At equal operation counts this is the memory an operation
costs; a timed `bench/run.py` run also mixes in how many operations it got
through.  It stops with an error when a side runs fewer operations than
asked, an operation fails, or the two sides' answers differ.

Separate `bench/run.py` runs of one commit on a shared machine can spread
by a third; two sides timed operation by operation share the machine's
state, so their ratio stays steady across rounds.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import time
import tracemalloc


def _load(name: str, path: str, search: list[str] | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def load_side(root: str, tag: str, workload: str):
    """The workload of the checkout at `root`, run by that checkout's own
    copy of domlab, and that checkout's `Stopwatch` class."""
    pkg_dir = os.path.join(root, "src", "domlab")
    pkg = _load(
        f"domlab_{tag}", os.path.join(pkg_dir, "__init__.py"), [pkg_dir]
    )
    saved = sys.modules.get("domlab")
    sys.modules["domlab"] = pkg  # what `import domlab as dl` binds
    try:
        wl = _load(f"workloads_{tag}", os.path.join(root, "bench", "workloads.py"))
    finally:
        if saved is None:
            del sys.modules["domlab"]
        else:
            sys.modules["domlab"] = saved
    return wl.WORKLOADS[workload](wl.load_reference()), wl.Stopwatch


def setup_round(sides, seed: int, r: int) -> list[float] | None:
    """Build each side's inputs once, alternating which goes first: each
    side's set-up seconds, or None when the two sides' inputs differ."""
    seconds = [0.0, 0.0]
    inputs = [None, None]
    for s in (0, 1) if r % 2 == 0 else (1, 0):
        w, stopwatch = sides[s]
        sw = stopwatch()
        inputs[s] = w.describe(w.build(seed, sw))
        seconds[s] = sw.seconds
    if inputs[0] != inputs[1]:
        print("the two sides build different inputs", file=sys.stderr)
        return None
    return seconds


def ops_round(sides, ops: list, r: int) -> list[float] | None:
    """Run every operation once on each side, alternating which goes first:
    each side's seconds, or None when the two sides answer an operation
    differently."""
    seconds = [0.0, 0.0]
    for i, pair in enumerate(ops):
        answers = [None, None]
        for s in (0, 1) if (i + r) % 2 == 0 else (1, 0):
            start = time.perf_counter()
            answers[s] = sides[s][0].run(pair[s])
            seconds[s] += time.perf_counter() - start
        if answers[0] != answers[1]:
            print(f"operation {i}: the two sides answer differently", file=sys.stderr)
            return None
    return seconds


def memory_round(sides, ops: list, r: int) -> list[float] | None:
    """Run every operation on one side, then on the other, alternating
    which goes first, each pass under tracemalloc: each side's peak in MB,
    or None when the two sides answer an operation differently."""
    peaks = [0.0, 0.0]
    answers = [None, None]
    for s in (0, 1) if r % 2 == 0 else (1, 0):
        tracemalloc.start()
        try:
            answers[s] = [sides[s][0].run(pair[s]) for pair in ops]
            peaks[s] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    for i, (a, b) in enumerate(zip(*answers)):
        if a != b:
            print(f"operation {i}: the two sides answer differently", file=sys.stderr)
            return None
    return peaks


# Run in a fresh interpreter by `rss_round`, with argv root, workload, seed
# and ops: prints the peak resident set size in KB and the answers' digest.
RSS_CHILD = """
import os, resource, sys
root, workload, seed, ops = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, os.path.join(root, "bench"))
import run
run.import_domlab()
from workloads import WORKLOADS, Stopwatch, load_reference
wl = WORKLOADS[workload](load_reference())
schedule = run.set_up(wl, seed, Stopwatch)[0]
phase = run.Phase(wl, schedule).run(0, ops)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if phase.errors:
    sys.exit(f"an operation failed: {phase.errors[0]}")
if len(phase.latency) != ops:
    sys.exit(f"the schedule ran out after {len(phase.latency)} of {ops} operations")
print(rss, run.judge(wl, schedule, phase).answers)
"""


def rss_round(roots, workload: str, seed: int, ops: int, r: int) -> list[float] | None:
    """Run the operations on each side in a fresh subprocess, alternating
    which goes first: each side's peak RSS in MB, or None when a side fails
    or the two sides answer differently."""
    peaks = [0.0, 0.0]
    answers = [None, None]
    for s in (0, 1) if r % 2 == 0 else (1, 0):
        child = subprocess.run(
            [sys.executable, "-B", "-c", RSS_CHILD, roots[s], workload, str(seed),
             str(ops)],
            capture_output=True, text=True,
        )
        if child.returncode != 0:
            print(child.stderr.strip(), file=sys.stderr)
            return None
        kb, answers[s] = child.stdout.split()
        peaks[s] = int(kb) / 1024  # ru_maxrss is in KB on Linux
    if answers[0] != answers[1]:
        print("the two sides answer differently", file=sys.stderr)
        return None
    return peaks


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="root of the checkout to compare against")
    ap.add_argument("new", help="root of the checkout under test")
    ap.add_argument("--workload", default="sweep")
    ap.add_argument("--seed", type=int, default=7919)
    ap.add_argument("--ops", type=int, default=100, help="operations per round")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument(
        "--setup", action="store_true", help="time building the inputs, not the operations"
    )
    ap.add_argument(
        "--memory", action="store_true",
        help="measure each side's tracemalloc peak over the operations, not their time",
    )
    ap.add_argument(
        "--rss", action="store_true",
        help="measure each side's peak RSS over the operations, each in a fresh process",
    )
    args = ap.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        ap.error("--ops and --rounds must be at least 1")
    if args.setup + args.memory + args.rss > 1:
        ap.error("--setup, --memory and --rss exclude each other")

    roots = [os.path.abspath(args.base), os.path.abspath(args.new)]
    sides = [
        load_side(root, tag, args.workload) for root, tag in zip(roots, ("base", "new"))
    ]
    ops = []
    if not args.setup:
        schedules = [w.build(args.seed, stopwatch()) for w, stopwatch in sides]
        for i in range(args.ops):
            pair = [w.op_at(schedule, i) for (w, _), schedule in zip(sides, schedules)]
            if pair[0] is None:
                break  # the schedule ran out
            ops.append(pair)
    # A set-up takes milliseconds, so its seconds get two more digits.
    label, digits = ("set-up", 5) if args.setup else (f"{len(ops)} ops", 3)
    ratios = []
    for r in range(args.rounds):
        if args.setup:
            measured = setup_round(sides, args.seed, r)
        elif args.memory:
            measured = memory_round(sides, ops, r)
        elif args.rss:
            measured = rss_round(roots, args.workload, args.seed, args.ops, r)
        else:
            measured = ops_round(sides, ops, r)
        if measured is None:
            return 1
        ratios.append(measured[0] / measured[1])
        if args.memory:
            base, new = (f"peak {m:.3f} MB" for m in measured)
        elif args.rss:
            base, new = (f"maxrss {m:.2f} MB" for m in measured)
        else:
            base, new = (f"{m:.{digits}f} s" for m in measured)
        print(f"round {r + 1}: {label}, base {base}, new {new}, ratio {ratios[-1]:.3f}")
    print(f"median ratio {statistics.median(ratios):.3f} over {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
