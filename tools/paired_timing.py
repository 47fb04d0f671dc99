"""Time two checkouts of domlab against each other, operation by operation.

    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7919 --ops 100 --rounds 4
    python3 tools/paired_timing.py BASE NEW --workload sweep --seed 7 --setup --rounds 20
    python3 tools/paired_timing.py BASE NEW --workload remark --seed 7 --ops 30756 --rounds 1

BASE and NEW are checkout roots (each holds `src/domlab` and `bench/`).
Each side is one `python -B` process, kept for every round, that runs its
own checkout's `bench/run.py`: `import_domlab`, `set_up` from the seed, then
one `Phase` that keeps every answer, as a gated run does.  A round asks the
two sides in turn for operations 0 to ops - 1, one at a time, alternating
which side goes first, and stops where the schedule runs out.  With
`--setup` a round instead asks each side for one build of the inputs, timed
by its own `Stopwatch` (what `bench/run.py` reports as `setup_s`).  Nothing
in either checkout is written.

A round prints each side's seconds and peak resident set size so far
(`ru_maxrss`, what `bench/run.py` reports as `peak_rss_mb`) and the time
ratio, base over new (above 1: NEW is faster); the last line gives the
median ratio.  At equal operation counts the peaks show what an operation
costs in memory, which a timed run mixes with how many it got through.
The tool exits 1, after the failing side's own error, when a side fails or
the two sides answer an operation (or build their inputs) differently.

The parent imports neither domlab nor `bench/` and holds no schedule:
Linux starts each child's `ru_maxrss` at its parent's peak, so a parent
larger than a side would hide that side's memory.  Separate `bench/run.py`
runs of one commit on a shared machine can spread by a third; two sides
timed operation by operation share the machine's state, so their ratio
stays steady across rounds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

# Run by each side, with argv root, workload and seed.  It answers each
# request line, an operation's index or "setup" for one build of the inputs,
# with "seconds digest maxrss_kb" ("0 end maxrss_kb" where the schedule has
# run out), and exits with an error when an operation fails.
CHILD = """
import os, resource, sys
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, os.path.join(root, "bench"))
import run
run.import_domlab()
from workloads import WORKLOADS, Stopwatch, digest, load_reference
if workload not in WORKLOADS:
    sys.exit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
wl = WORKLOADS[workload](load_reference())
phase = run.Phase(wl, run.set_up(wl, seed, Stopwatch)[0])
for line in sys.stdin:
    if line.strip() == "setup":
        sw = Stopwatch()
        answer = digest(wl.describe(wl.build(seed, sw)))
        seconds = sw.seconds
    else:
        done = len(phase.latency)
        phase.run(int(line), 1)
        if phase.errors:
            sys.exit(f"operation {line.strip()} failed: {phase.errors[0]}")
        if len(phase.latency) == done:
            seconds, answer = 0, "end"
        else:
            seconds, answer = phase.latency[-1], digest([repr(phase.answers[-1])])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(seconds, answer, rss, flush=True)
"""


def ask(child: subprocess.Popen, request) -> list[str] | None:
    """Send one request line: the reply's fields, or None when the child has died."""
    try:
        child.stdin.write(f"{request}\n")
        child.stdin.flush()
    except BrokenPipeError:
        return None
    return child.stdout.readline().split() or None


def one_round(children, requests, r: int):
    """Ask both sides for each request in turn, alternating which goes first:
    how many requests they answered, each side's seconds and last maxrss in
    MB, or None when a side fails or the two sides answer differently."""
    seconds, rss, done = [0.0, 0.0], [0.0, 0.0], 0
    for i, request in enumerate(requests):
        replies = [None, None]
        for s in (0, 1) if (i + r) % 2 == 0 else (1, 0):
            replies[s] = ask(children[s], request)
            if replies[s] is None:
                return None
            seconds[s] += float(replies[s][0])
            rss[s] = int(replies[s][2]) / 1024  # ru_maxrss is in KB on Linux
        if replies[0][1] != replies[1][1]:
            what = "the set-up" if request == "setup" else f"operation {request}"
            print(f"{what}: the two sides answer differently", file=sys.stderr)
            return None
        if replies[0][1] == "end":
            break  # the schedule ran out
        done += 1
    return done, seconds, rss


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="root of the checkout to compare against")
    ap.add_argument("new", help="root of the checkout under test")
    ap.add_argument("--workload", default="sweep")
    ap.add_argument("--seed", type=int, default=7919)
    ap.add_argument("--ops", type=int, default=100, help="operations per round")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--setup", action="store_true", help="time building the inputs instead")
    args = ap.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        ap.error("--ops and --rounds must be at least 1")

    children = [
        subprocess.Popen(
            [sys.executable, "-B", "-c", CHILD, os.path.abspath(root), args.workload,
             str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for root in (args.base, args.new)
    ]
    requests = ["setup"] if args.setup else range(args.ops)
    digits = 5 if args.setup else 3  # a set-up takes milliseconds
    ratios = []
    try:
        for r in range(args.rounds):
            measured = one_round(children, requests, r)
            if measured is None:
                return 1
            done, seconds, rss = measured
            ratios.append(seconds[0] / seconds[1])
            base, new = (f"{t:.{digits}f} s maxrss {m:.2f} MB" for t, m in zip(seconds, rss))
            label = "set-up" if args.setup else f"{done} ops"
            print(f"round {r + 1}: {label}, base {base}, new {new}, ratio {ratios[-1]:.3f}",
                  flush=True)
    finally:
        for child in children:
            child.communicate()  # closes its stdin, so it exits
    print(f"median ratio {statistics.median(ratios):.3f} over {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
