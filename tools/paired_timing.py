"""Time two checkouts of domlab against each other, in one process.

    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7919 --ops 100 --rounds 4

BASE and NEW are checkout roots (each holds `src/domlab` and `bench/`).
Each checkout's package is loaded under its own name (`domlab_base`,
`domlab_new`), and its `bench/workloads.py` with `domlab` bound to that
package; nothing in either checkout is written.  Both sides build the
workload's schedule from the same seed.  A round runs operations 0 to
ops - 1 once on each side, alternating which side goes first, and stops
with an error when the two sides answer an operation differently.  Each
round prints the seconds of each side and their ratio, base over new, so a
ratio above 1 means NEW is faster; the last line gives the median ratio.

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


def load_side(root: str, tag: str, workload: str, seed: int):
    """The workload of the checkout at `root` and its schedule for `seed`,
    run by that checkout's own copy of domlab."""
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
    w = wl.WORKLOADS[workload](wl.load_reference())
    return w, w.build(seed, wl.Stopwatch())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="root of the checkout to compare against")
    ap.add_argument("new", help="root of the checkout under test")
    ap.add_argument("--workload", default="sweep")
    ap.add_argument("--seed", type=int, default=7919)
    ap.add_argument("--ops", type=int, default=100, help="operations per round")
    ap.add_argument("--rounds", type=int, default=4)
    args = ap.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        ap.error("--ops and --rounds must be at least 1")

    sides = [
        load_side(os.path.abspath(root), tag, args.workload, args.seed)
        for root, tag in ((args.base, "base"), (args.new, "new"))
    ]
    ops = []
    for i in range(args.ops):
        pair = [w.op_at(schedule, i) for w, schedule in sides]
        if pair[0] is None:
            break  # the schedule ran out
        ops.append(pair)
    ratios = []
    for r in range(args.rounds):
        seconds = [0.0, 0.0]
        for i, pair in enumerate(ops):
            answers = [None, None]
            for s in (0, 1) if (i + r) % 2 == 0 else (1, 0):
                start = time.perf_counter()
                answers[s] = sides[s][0].run(pair[s])
                seconds[s] += time.perf_counter() - start
            if answers[0] != answers[1]:
                print(f"operation {i}: the two sides answer differently", file=sys.stderr)
                return 1
        ratios.append(seconds[0] / seconds[1])
        print(
            f"round {r + 1}: {len(ops)} ops, base {seconds[0]:.3f} s, "
            f"new {seconds[1]:.3f} s, ratio {ratios[-1]:.3f}"
        )
    print(f"median ratio {statistics.median(ratios):.3f} over {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
