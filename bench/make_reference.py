"""Regenerate bench/reference.json: expected answers and input costs.

Run from the repository root on the commit whose answers are the reference:

    python3 bench/make_reference.py

It solves every input any workload seed can draw (about ten minutes on one
core) and records the answers the benchmark checks against, together with
what each input cost to solve, which the workloads use only to stratify
their seeded samples.  Every factor gamma is cross-checked with
gamma_oracle while the file is made.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import domlab as dl  # noqa: E402

from workloads import REFERENCE_PATH, REMARK_FIXED, graph_key  # noqa: E402

GNP_CANDIDATES = 2000
GNP_NODE_BUDGET = 10_000


def best_ms(fn, *args, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return round(best * 1000, 3)


def checked_gamma(g) -> int:
    gamma = dl.gamma_bb(g).gamma
    if gamma != dl.gamma_oracle(g).gamma:
        raise SystemExit(f"gamma_bb and gamma_oracle disagree on {graph_key(g)}")
    return gamma


def sweep_reference() -> dict:
    corpus = [g for n in range(1, 7) for g in dl.enumerate_connected_graphs(n)]
    gammas = [checked_gamma(g) for g in corpus]
    count = len(corpus)
    gamma_product = []
    pair_ms = {}
    for i in range(count):
        for j in range(i, count):
            start = time.perf_counter()
            report = dl.check_pair(corpus[i], corpus[j])
            pair_ms[i, j] = time.perf_counter() - start
            if report.error is not None or not report.trace_ok or report.violated:
                raise SystemExit(f"pair {i},{j} did not check cleanly: {report}")
            gamma_product.append(report.gammaProduct)
    graph_ms = []
    for k in range(count):
        costs = [ms for (i, j), ms in pair_ms.items() if k in (i, j)]
        graph_ms.append(round(1000 * sum(costs) / len(costs), 3))
    return {
        "graphs": [graph_key(g) for g in corpus],
        "g6": [dl.encode_graph6(g) for g in corpus],
        "gamma": gammas,
        "gamma_product": gamma_product,
        "graph_ms": graph_ms,
    }


def grid_reference() -> dict:
    pool = []
    for s in range(GNP_CANDIDATES):
        n = 40 + s % 21
        c = 2 + (s // 21) % 3
        p = round(c / (n - 1), 4)
        g = dl.random_gnp(n, p, s)
        try:
            r = dl.gamma_bb(g, dl.SolverLimits(node_budget=GNP_NODE_BUDGET))
        except dl.BudgetExhaustedError:
            continue
        pool.append([n, p, s, r.gamma, format(r.witness.mask, "x"), best_ms(dl.gamma_bb, g)])
    return {"candidates": GNP_CANDIDATES, "node_budget": GNP_NODE_BUDGET, "pool": pool}


def remark_entry(g, h) -> list:
    report = dl.remark_search(g, h)
    if report.found is not None:
        if not dl.remark_trace(g, h, report.found).all_passed:
            raise SystemExit(f"remark_trace failed on {graph_key(g)} x {graph_key(h)}")
    found = format(report.found.mask, "x") if report.found is not None else None
    ms = best_ms(dl.remark_search, g, h, repeat=2)
    return [report.gamma_product, report.count_min_sets, found, report.truncated, ms,
            checked_gamma(g), checked_gamma(h)]


def remark_reference() -> dict:
    corpus = [g for n in range(1, 6) for g in dl.enumerate_connected_graphs(n)]
    pairs = {}
    for i in range(len(corpus)):
        for j in range(i, len(corpus)):
            pairs[f"{i},{j}"] = remark_entry(corpus[i], corpus[j])
    for fg, ng, fh, nh in REMARK_FIXED:
        g = getattr(dl, fg)(ng)
        h = getattr(dl, fh)(nh)
        pairs[f"{fg}:{ng} x {fh}:{nh}"] = remark_entry(g, h)
    return {"pairs": pairs}


def main() -> None:
    ref = {}
    for name, make in (("remark", remark_reference), ("grid_solve", grid_reference),
                       ("sweep", sweep_reference)):
        start = time.perf_counter()
        ref[name] = make()
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
