"""Time two checkouts of domlab against each other, in one process.

    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7919 --ops 100 --rounds 4
    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7 --setup --rounds 20

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

Separate `bench/run.py` runs of one commit on a shared machine can spread
by a third; two sides timed operation by operation share the machine's
state, so their ratio stays steady across rounds.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time


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
    args = ap.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        ap.error("--ops and --rounds must be at least 1")

    sides = [
        load_side(os.path.abspath(root), tag, args.workload)
        for root, tag in ((args.base, "base"), (args.new, "new"))
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
            seconds = setup_round(sides, args.seed, r)
        else:
            seconds = ops_round(sides, ops, r)
        if seconds is None:
            return 1
        ratios.append(seconds[0] / seconds[1])
        print(
            f"round {r + 1}: {label}, base {seconds[0]:.{digits}f} s, "
            f"new {seconds[1]:.{digits}f} s, ratio {ratios[-1]:.3f}"
        )
    print(f"median ratio {statistics.median(ratios):.3f} over {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
