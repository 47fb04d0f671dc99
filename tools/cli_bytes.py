"""Compare what the CLI writes in two checkouts, byte for byte.

    python3 tools/cli_bytes.py BASE NEW                         # every invocation
    python3 tools/cli_bytes.py BASE NEW gamma-human remark-hit  # the named ones only

BASE and NEW are checkout roots (each holds `src/domlab`).  Each invocation
below runs as `python -m domlab ARGS` in a fresh process, once on each
checkout's `src/`, from a new temporary directory that holds the same input
files (`pairs.g6`, `dom.txt`), so relative paths in its output match too.
The two runs are compared on stdout, stderr, the exit status and the
`--out` file when the invocation writes one.  One line per invocation,
`same` or `differs` with the parts that differ, then the invocations that
differ; the exit status is 1 when any does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Written into each run's directory.  pairs.g6 holds two pairs for
# `--pairs zip`: P3 with C4, and K4 with the star on four vertices
# (`@pairs.g6` names its first graph, P3).
INPUTS = {
    "pairs.g6": "Bg\nCl\nC~\nCs\n",
    "dom.txt": "1 4 7\n",
}

# (name, arguments); an invocation with `--out` names out.txt.
INVOCATIONS = (
    ("gamma-human", ("gamma", "grid:3x4")),
    ("gamma-jsonl", ("gamma", "cycle:7", "--format", "jsonl")),
    ("gamma-at-file", ("gamma", "@pairs.g6")),
    ("gamma-gnp", ("gamma", "gnp:8:0.5:7", "--format", "jsonl")),
    ("product-graph6", ("product", "path:3", "cycle:4")),
    ("product-edges", ("product", "path:3", "cycle:4", "--format", "edges")),
    ("check-human", ("check", "cycle:5", "path:4")),
    ("check-csv", ("check", "cycle:5", "path:4", "--format", "csv")),
    ("check-jsonl", ("check", "cycle:5", "path:4", "--format", "jsonl")),
    ("check-raw-graph6", ("check", "Bg", "Cl")),
    ("check-with-trace", ("check", "grid:2x3", "cycle:4", "--format", "jsonl",
                          "--with-trace")),
    # vertex_orbits runs out of steps on K44, with and without a fixed vertex.
    ("check-orbit-budget", ("check", "complete:44", "complete:8", "--format", "jsonl",
                            "--with-trace")),
    ("trace-human", ("trace", "path:4", "cycle:4")),
    ("trace-jsonl", ("trace", "path:4", "cycle:4", "--format", "jsonl")),
    ("trace-dom-set", ("trace", "path:3", "path:3", "--dom-set", "dom.txt")),
    ("remark-hit", ("remark", "path:3", "complete:1")),
    ("remark-hit-jsonl", ("remark", "star:6", "star:6", "--format", "jsonl")),
    ("remark-miss", ("remark", "path:4", "path:4")),
    # 256 minimum sets, all with one projection.
    ("remark-miss-repeated", ("remark", "path:4", "complete:4", "--format", "jsonl")),
    ("remark-miss-truncated", ("remark", "path:2", "path:4", "--cap", "5",
                               "--format", "jsonl")),
    ("sweep-csv", ("sweep", "--family", "cycles:3..6")),
    ("sweep-jsonl", ("sweep", "--family", "cycles:3..6", "--format", "jsonl")),
    ("sweep-human", ("sweep", "--family", "cycles:3..6", "--format", "human")),
    ("sweep-with-trace", ("sweep", "--family", "paths:1..4", "--format", "jsonl",
                          "--with-trace")),
    ("sweep-zip", ("sweep", "--graph6", "pairs.g6", "--pairs", "zip")),
    ("sweep-jobs-2", ("sweep", "--family", "cycles:3..6", "--jobs", "2")),
    ("sweep-out", ("sweep", "--family", "paths:1..5", "--format", "human",
                   "--out", "out.txt")),
    # A node budget of 40 stops 7 of the 21 pairs, so error rows are compared.
    ("sweep-budget-errors", ("sweep", "--family", "cycles:3..8", "--node-budget", "40",
                             "--format", "jsonl")),
    ("sweep-human-budget-errors", ("sweep", "--family", "cycles:3..8", "--node-budget", "40",
                                   "--format", "human")),
    *((f"enumerate-{n}", ("enumerate", str(n))) for n in range(1, 8)),
    ("exit-2-bad-family", ("gamma", "cycless:3")),
    ("exit-3-node-budget", ("remark", "grid:6x6", "path:1", "--node-budget", "1000")),
)


def run(root: Path, args: tuple[str, ...]) -> dict[str, object]:
    """stdout, stderr, exit status and any out.txt of `python -m domlab ARGS`
    on `root`'s src/, run from a new directory holding INPUTS."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "domlab", *args], cwd=tmp, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(root.resolve() / "src")},
        )
        out = Path(tmp, "out.txt")
        return {
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "exit": proc.returncode,
            "out-file": out.read_bytes() if out.exists() else None,
        }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="checkout root of the reference")
    ap.add_argument("new", type=Path, help="checkout root compared with it")
    ap.add_argument("names", nargs="*", help="invocations to run (default: all)")
    args = ap.parse_args(argv)
    for root in (args.base, args.new):
        if not (root / "src" / "domlab").is_dir():
            ap.error(f"{root} holds no src/domlab")
    if set(args.names) - {name for name, _ in INVOCATIONS}:
        ap.error(f"known invocations: {', '.join(name for name, _ in INVOCATIONS)}")
    differing = []
    for name, cli_args in INVOCATIONS:
        if args.names and name not in args.names:
            continue
        base, new = run(args.base, cli_args), run(args.new, cli_args)
        parts = [part for part in base if base[part] != new[part]]
        print(f"{'differs' if parts else 'same':<8} {name}"
              + (f": {', '.join(parts)}" if parts else ""), flush=True)
        if parts:
            differing.append(name)
    print(f"differences: {', '.join(differing) or 'none'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
