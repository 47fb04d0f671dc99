"""Run a fixed list of source mutants against the tests meant to kill them.

    python3 tools/mutants.py                      # every mutant
    python3 tools/mutants.py silenced-membership  # the named ones only

Each mutant replaces one exact text, which must occur exactly once in its
file, in a temporary copy of `src/`, and runs its tests on that copy with
`pytest -q -x` (the tests are this checkout's own).  A mutant is killed when
its tests fail and survives when they pass.  One line per mutant, then the
survivors; the exit status is 1 when any mutant survived.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Node ids are relative to tests/, where each run starts.
CORRUPTED_PIN = "test_trace.py::test_corrupted_traces_fail_their_checks_as_pinned"
SEARCH_TESTS = (
    "test_solver.py::test_solver_agrees_with_oracle_on_random_graphs",
    "test_solver.py::test_complete_agrees_with_brute_force_below_the_root",
    "test_solver.py::test_complete_finds_the_same_sets",
    "test_solver.py::test_node_counts_are_pinned",
    "test_solver.py::test_orbits_keep_gamma_and_cut_nodes",
    "test_harness.py::test_product_search_finds_the_same_sets",
    "test_harness.py::test_check_pair_node_total_is_pinned",
)
ENUMERATOR_TESTS = (
    "test_solver.py::test_enumerate_matches_brute_force_order_and_truncation",
    "test_solver.py::test_enumerate_all_results_are_minimum_dominating",
)
FOREIGN_PRODUCT = (
    "test_trace.py::test_trace_refuses_the_product_of_other_factors_of_the_same_orders"
)
TRACE_TESTS = (
    "test_trace.py::test_ten_checks_pass_on_random_valid_instances", CORRUPTED_PIN
)
TRACE_AGREEMENT = "test_cli.py::test_trace_replays_the_set_check_with_trace_traces"
REMARK_FAULT = "test_cli.py::test_remark_inject_fault"
ORBIT_TESTS = (
    "test_graphs.py::test_vertex_orbits_fixing_a_set_match_brute_force_stabilizers",
    "test_graphs.py::test_solve_product_where_only_a_failed_search_splits_orbits",
)
FLOOR_TEST = "test_harness.py::test_sweep_floors_never_exceed_the_exact_gamma"
ENUMERATION_TESTS = (
    "test_harness.py::test_enumeration_counts",
    "test_harness.py::test_each_representative_is_the_least_mask_of_its_orbit",
)

# (name, file under src/domlab, exact old text, new text, tests to run)
MUTANTS = (
    ("enumerator-last-one-short", "solver.py", "while last < n - slots and",
     "while last < n - slots - 1 and", ENUMERATOR_TESTS),
    ("scan-count-at-slots", "solver.py", "if count > slots:", "if count >= slots:",
     SEARCH_TESTS + ENUMERATOR_TESTS),
    ("enumerator-children-ascending", "solver.py", "for v in range(last, i - 1, -1)",
     "for v in range(i, last + 1)", ENUMERATOR_TESTS),
    ("last-pick-highest-dominator", "solver.py",
     "bit = m & -m\n                    if rest & ~closed",
     "bit = 1 << m.bit_length() - 1\n                    if rest & ~closed",
     SEARCH_TESTS),
    ("reach-cut-at-equality", "solver.py", "if uncovered > reach[slots]:",
     "if uncovered >= reach[slots]:", SEARCH_TESTS),
    ("orbits-outside-the-root", "solver.py",
     "symmetry = self.symmetry if covered == 0 and allowed == full else None",
     "symmetry = self.symmetry", SEARCH_TESTS),
    ("silenced-membership", "trace.py",
     'v_member.append(f"(i={i}, v={v}) missing from C")', "pass", (CORRUPTED_PIN,)),
    ("check-L-at-equality", "trace.py", "if t.Lsizes[i] < L_rhs:",
     "if t.Lsizes[i] <= L_rhs:", TRACE_TESTS),
    ("check-R-at-equality", "trace.py", "if t.Rsizes[v] > len(t.Qv[v]):",
     "if t.Rsizes[v] >= len(t.Qv[v]):", TRACE_TESTS),
    ("product-orders-only", "trace.py", "if pg.g != g or pg.h != h:",
     "if pg.g.n != g.n or pg.h.n != h.n:", (FOREIGN_PRODUCT,)),
    ("trace-lexmin-product", "cli.py", "dom = solve_product(pg, limits).witness",
     "dom = gamma_bb(pg.graph, limits).witness", (TRACE_AGREEMENT,)),
    ("enumerate-one-generator", "harness.py", "for p in (swap, rotate)[: min(n - 1, 2)]",
     "for p in (swap, rotate)[: min(n - 1, 1)]", ENUMERATION_TESTS),
    ("remark-exit-ignores-verdict", "cli.py", 'payload.get("all_passed", True)', "True",
     (REMARK_FAULT,)),
    ("orbit-merge-on-failed-search", "graphs.py", "failed.add(ry)", "root[ry] = x",
     ORBIT_TESTS),
    ("floor-one-too-high", "harness.py",
     "return max(_complete_floor(g, h.n, budget), _complete_floor(h, g.n, budget))",
     "return max(_complete_floor(g, h.n, budget), _complete_floor(h, g.n, budget)) + 1",
     (FLOOR_TEST,)),
)


def passes(
    tests: tuple[str, ...], mutant: tuple[str, str, str] | None = None
) -> bool:
    """Whether `tests` pass on a copy of src/ with `mutant` (file, old, new) made."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            file, old, new = mutant
            target = src / "domlab" / file
            text = target.read_text()
            if text.count(old) != 1:
                sys.exit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
            target.write_text(text.replace(old, new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=ROOT / "tests", env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):  # 1: a test failed; else pytest itself did
        sys.exit(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}")
    return run.returncode == 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    if set(args.names) - {m[0] for m in MUTANTS}:
        ap.error(f"known mutants: {', '.join(m[0] for m in MUTANTS)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    if not passes(tuple(dict.fromkeys(t for m in chosen for t in m[4]))):
        sys.exit("the tests fail on the unmutated source")
    survivors = []
    for name, file, old, new, tests in chosen:
        survived = passes(tests, (file, old, new))
        print(f"{'survived' if survived else 'killed':<9} {name}", flush=True)
        if survived:
            survivors.append(name)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
