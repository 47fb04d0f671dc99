"""Acceptance suite: the seven headline guarantees, one test each.

Each test prints a single PASS or FAIL line (visible under `pytest -s`)
before asserting, so a full run yields one summary line per criterion.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

from domlab import (
    all_pairs,
    build_trace,
    cartesian_product,
    contradiction_witness,
    cycle,
    encode_graph6,
    enumerate_connected_graphs,
    gamma_bb,
    gamma_oracle,
    parse_graph6,
    path,
    random_gnp,
    remark_search,
    remark_trace,
    verify_trace,
)
from helpers import random_graph, random_minimal_dominating_set


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# 1. Exhaustive sweep of all connected pairs on <= 5 vertices
# ---------------------------------------------------------------------------


def test_acceptance_1_exhaustive_pair_sweep(full_sweep):
    res = full_sweep.result
    ok = (
        full_sweep.corpus_size == 31
        and full_sweep.pair_count == 496
        and res.ok
        and res.violations == ()
        and res.errors == ()
        and full_sweep.seconds < 300.0
    )
    report(
        1,
        "exhaustive-pair-sweep",
        ok,
        f"{full_sweep.pair_count} pairs, {len(res.violations)} violations,"
        f" {len(res.errors)} errors, {full_sweep.seconds:.1f}s",
    )
    assert full_sweep.corpus_size == 31
    assert full_sweep.pair_count == 496
    assert res.violations == ()
    assert res.errors == ()
    assert all(r.gammaProduct >= r.bound_new for r in res.reports)
    assert full_sweep.seconds < 300.0


# ---------------------------------------------------------------------------
# 2. Ten-check traces on the sweep and on randomized instances
# ---------------------------------------------------------------------------


def test_acceptance_2_trace_suite(full_sweep):
    sweep_failures = [
        r
        for r in full_sweep.result.reports
        if not r.trace_ok or r.verdict is None or not r.verdict.all_passed
    ]

    rng = random.Random(20260814)
    random_failures = 0
    for _ in range(500):
        g = random_graph(rng, max_n=8)
        h = random_graph(rng, max_n=8)
        pg = cartesian_product(g, h)
        D = random_minimal_dominating_set(rng, pg.graph)
        t = build_trace(g, h, D, product=pg)
        verdict = verify_trace(t)
        clear = all(
            contradiction_witness(t, v) is None for v in range(h.n)
        )
        if not (verdict.all_passed and clear):
            random_failures += 1

    ok = not sweep_failures and random_failures == 0
    report(
        2,
        "trace-suite",
        ok,
        f"{len(full_sweep.result.reports)} sweep traces,"
        f" 500 randomized traces, {len(sweep_failures) + random_failures}"
        " failures",
    )
    assert sweep_failures == []
    assert random_failures == 0


# ---------------------------------------------------------------------------
# 3. Solver equals the exhaustive oracle; closed forms for paths and cycles
# ---------------------------------------------------------------------------


def test_acceptance_3_solver_correctness():
    rng = random.Random(7)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        g = random_gnp(n, p, seed=rng.randint(0, 10**9))
        if gamma_bb(g).gamma != gamma_oracle(g).gamma:
            mismatches += 1

    closed_form_ok = all(
        gamma_bb(path(n)).gamma == -(-n // 3) for n in range(1, 13)
    ) and all(gamma_bb(cycle(n)).gamma == -(-n // 3) for n in range(3, 13))

    ok = mismatches == 0 and closed_form_ok
    report(
        3,
        "solver-correctness",
        ok,
        f"200 random graphs, {mismatches} mismatches,"
        f" closed forms {'ok' if closed_form_ok else 'BROKEN'}",
    )
    assert mismatches == 0
    assert closed_form_ok


# ---------------------------------------------------------------------------
# 4. The 4x4 grid has no minimum dominating set with a minimal projection
# ---------------------------------------------------------------------------


def test_acceptance_4_grid_remark_search():
    start = time.monotonic()
    rep = remark_search(path(4), path(4))
    elapsed = time.monotonic() - start
    ok = (
        rep.gamma_product == 4
        and rep.count_min_sets == 2
        and rep.found is None
        and rep.truncated is False
        and elapsed < 10.0
    )
    report(
        4,
        "grid-remark-search",
        ok,
        f"gamma=4, {rep.count_min_sets} minimum sets, none minimal-projecting,"
        f" {elapsed:.2f}s",
    )
    assert rep.gamma_product == 4
    assert rep.count_min_sets == 2
    assert rep.found is None
    assert rep.truncated is False
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 5. Sharpened chain on minimal-projection instances
# ---------------------------------------------------------------------------


def test_acceptance_5_remark_positive_path():
    corpus = []
    for n in range(1, 5):
        corpus.extend(enumerate_connected_graphs(n))

    verified = 0
    chain_failures = 0
    for g, h in all_pairs(corpus):
        rep = remark_search(g, h)
        if rep.found is None:
            continue
        rv = remark_trace(g, h, rep.found)
        verified += 1
        product_term = rv.trace.gammaG * rv.trace.gammaH
        exact = (
            rv.all_passed
            and rv.check_remark_sum.lhs >= rv.check_remark_sum.rhs
            and rv.check_remark_product.rhs == product_term
            and len(rep.found) >= product_term
        )
        if not exact:
            chain_failures += 1

    k1 = enumerate_connected_graphs(1)[0]
    trivial_set = gamma_bb(cartesian_product(k1, k1).graph).witness
    trivial = remark_trace(k1, k1, trivial_set)
    ok = trivial.all_passed and verified >= 1 and chain_failures == 0
    report(
        5,
        "remark-positive-path",
        ok,
        f"trivial pair ok, {verified} qualifying pairs verified,"
        f" {chain_failures} chain failures",
    )
    assert trivial.all_passed
    assert verified >= 1
    assert chain_failures == 0


# ---------------------------------------------------------------------------
# 6. Bound hierarchy on every swept pair
# ---------------------------------------------------------------------------


def test_acceptance_6_bound_hierarchy(full_sweep):
    bad = [
        r
        for r in full_sweep.result.reports
        if not (
            r.gammaProduct >= r.bound_new >= r.bound_ST_half >= r.bound_CS
        )
    ]
    ok = not bad
    report(
        6,
        "bound-hierarchy",
        ok,
        f"{len(full_sweep.result.reports)} pairs, {len(bad)} orderings broken",
    )
    assert bad == []
    # bound_ST_body is not a lower bound: the sweep refutes it on 19 pairs.
    refuted = [
        r for r in full_sweep.result.reports if r.bound_ST_body > r.gammaProduct
    ]
    assert len(refuted) == 19


# ---------------------------------------------------------------------------
# 7. Infrastructure: codec round trips, enumeration counts, CLI determinism
# ---------------------------------------------------------------------------


def test_acceptance_7_infrastructure(small_connected_corpus):
    corpus_roundtrip = all(
        parse_graph6(encode_graph6(g)) == g for g in small_connected_corpus
    )
    rng = random.Random(424242)
    random_roundtrip = True
    for _ in range(100):
        g = random_graph(rng, max_n=13)
        if parse_graph6(encode_graph6(g)) != g:
            random_roundtrip = False

    counts = [len(enumerate_connected_graphs(n)) for n in range(1, 7)]
    counts_ok = counts == [1, 1, 2, 6, 21, 112]

    cmd = [
        sys.executable,
        "-m",
        "domlab",
        "sweep",
        "--family",
        "paths:1..5",
        "--format",
        "csv",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    cli_deterministic = first.stdout == second.stdout and first.stdout

    ok = bool(
        corpus_roundtrip and random_roundtrip and counts_ok and cli_deterministic
    )
    report(
        7,
        "infrastructure",
        ok,
        f"round trips {'ok' if corpus_roundtrip and random_roundtrip else 'BROKEN'},"
        f" counts {counts}, CLI bytes"
        f" {'identical' if cli_deterministic else 'DIFFER'}",
    )
    assert corpus_roundtrip
    assert random_roundtrip
    assert counts_ok
    assert cli_deterministic
