"""Pair reports, sweeps, connected-graph enumeration, and the remark search."""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import os
import random
from dataclasses import replace

import networkx as nx
import pytest

import domlab.graphs
import domlab.harness
import domlab.solver
from domlab import (
    CSV_COLUMNS,
    BadParameterError,
    BudgetExhaustedError,
    SolverLimits,
    TooLargeError,
    VertexSet,
    all_pairs,
    cartesian_product,
    check_pair,
    complete,
    cycle,
    encode_graph6,
    enumerate_connected_graphs,
    enumerate_minimum_dominating_sets,
    gamma_bb,
    gamma_oracle,
    grid,
    is_dominating,
    is_minimal_dominating,
    pair_report_dict,
    pair_report_row,
    parse_graph6,
    path,
    project_onto_G,
    remark_search,
    solve_product,
    star,
    sweep,
    zip_pairs,
)
from domlab.cli import main
from helpers import milp_gamma


# ---------------------------------------------------------------------------
# check_pair
# ---------------------------------------------------------------------------


def test_check_pair_p4_p4():
    r = check_pair(path(4), path(4))
    assert (r.gammaG, r.gammaH, r.gammaProduct) == (2, 2, 4)
    assert r.bound_conjecture == 4
    assert r.bound_CS == 2
    assert r.bound_ST_half == 3
    assert r.bound_ST_body == 4
    assert r.bound_new == 3
    assert r.slack_new == 1
    assert r.trace_ok is True
    assert r.violated is False
    assert r.verdict is not None and r.verdict.all_passed


def test_check_pair_c5_c5():
    r = check_pair(cycle(5), cycle(5))
    assert (r.gammaG, r.gammaH, r.gammaProduct) == (2, 2, 5)
    assert r.slack_new == 2


def test_check_pair_trivial_pair_has_zero_slack():
    r = check_pair(complete(1), complete(1))
    assert (r.gammaG, r.gammaH, r.gammaProduct) == (1, 1, 1)
    assert (r.bound_CS, r.bound_ST_half, r.bound_new) == (1, 1, 1)
    assert r.bound_ST_body == 2
    assert r.slack_new == 0


def test_check_pair_orientation_free_numbers():
    a = check_pair(path(4), complete(1))
    b = check_pair(complete(1), path(4))
    for field in (
        "gammaProduct",
        "bound_conjecture",
        "bound_new",
        "bound_ST_half",
        "bound_ST_body",
        "bound_CS",
        "slack_new",
        "trace_ok",
    ):
        assert getattr(a, field) == getattr(b, field)
    assert {a.gammaG, a.gammaH} == {b.gammaG, b.gammaH} == {1, 2}


def test_check_pair_asymmetric_gammas():
    r = check_pair(path(7), star(5))
    assert (max(r.gammaG, r.gammaH), min(r.gammaG, r.gammaH)) == (3, 1)
    # gamma(P7 x S5): bound chain must hold and slack must be nonnegative.
    assert r.gammaProduct >= r.bound_new >= r.bound_ST_half >= r.bound_CS
    assert r.slack_new >= 0
    assert not r.violated


def test_check_pair_names_factors_past_graph6():
    # Short-form graph6 stops at 62 vertices; a larger factor is named by
    # its order, as in sweep error rows, and the check still answers.
    r = check_pair(path(70), path(2))
    assert (r.g6_G, r.g6_H) == ("<n=70>", encode_graph6(path(2)))
    assert r.gammaProduct == 36 and r.trace_ok


def test_check_pair_skips_the_witness_pass_on_the_product():
    # With the factors' stabilizer orbits at every depth, minimize takes 41
    # nodes on C6 x P5 (47 with orbits at the root only, 131 without them)
    # and a lexicographic witness pass would take 66 more; the factors need
    # fewer.  So check_pair fits in 41 only when it traces minimize's set and
    # branches on orbits below the root.
    r = check_pair(cycle(6), path(5), SolverLimits(node_budget=41))
    assert r.gammaProduct == 8
    assert r.trace_ok
    with pytest.raises(BudgetExhaustedError):
        check_pair(cycle(6), path(5), SolverLimits(node_budget=40))


def product_partition(a, b, picks=()):
    """The classes the product search branches on at a node with `picks`
    (None: every class is one vertex)."""
    cls = domlab.harness._product_classes(a, b)(sum(1 << p for p in picks))
    if cls is None:
        return None
    n = a.n * b.n
    return {tuple(VertexSet(n, cls(v))) for v in range(n)}


def test_check_pair_classes_lie_in_orbits_of_the_product():
    # O_G(u) x O_H(v), and on a diagonal pair its swap joined in: P3 x P3
    # has the corner, edge-middle and centre orbits of the 3 x 3 grid.
    assert product_partition(path(3), path(3)) == {(0, 2, 6, 8), (1, 3, 5, 7), (4,)}
    assert product_partition(path(3), path(2)) == {(0, 1, 4, 5), (2, 3)}


def test_check_pair_classes_below_the_root_come_from_stabilizers():
    # With the centre (1, 1) of P3 x P3 picked, each coordinate keeps P3's
    # flip but the swap is gone; a corner pick fixes everything.  On P3 x P2
    # the pick (1, 0) leaves P3's flip and fixes P2.
    assert product_partition(path(3), path(3), [4]) == {
        (0, 2, 6, 8), (1, 7), (3, 5), (4,)
    }
    assert product_partition(path(3), path(3), [0]) is None
    assert product_partition(path(3), path(2), [2]) == {(0, 4), (1, 5), (2,), (3,)}


@pytest.mark.parametrize(
    "graph, budget, first, then",
    [
        (cycle(12), 70, {7}, {1, 7}),
        (cycle(8), 70, {4}, {0, 4}),
        (cycle(10), 150, {5}, {0, 5}),
        (grid(3, 3), 100, {8}, {0, 8}),
    ],
)
def test_stabilizer_orbits_depend_only_on_the_fixed_set(
    monkeypatch, graph, budget, first, then
):
    # With too few orbit steps, fixing `first` leaves every class a
    # singleton, but fixing the larger `then` from scratch finds merged
    # classes.  A memo that has answered `first` must still answer `then`
    # as an uncached call does, so no search depends on the ones before it.
    # The memo is cleared after, so no answer found under the patched
    # budget reaches a later test.
    monkeypatch.setattr(domlab.graphs, "ORBIT_STEP_BUDGET", budget)
    first_mask, then_mask = (sum(1 << v for v in s) for s in (first, then))
    orbits = domlab.harness._stabilizer_orbits
    orbits.cache_clear()
    try:
        orbits(graph, first_mask)
        assert orbits(graph, then_mask) == orbits.__wrapped__(graph, then_mask)
    finally:
        orbits.cache_clear()


def test_orbits_below_the_root_keep_the_product_gamma(small_connected_corpus):
    # The product search with stabilizer orbits at every depth against the
    # same search with no symmetry: every pair of the <= 5 sweep, and larger
    # products with deeper searches, a diagonal one among them.
    pairs = all_pairs(small_connected_corpus) + [
        (cycle(8), path(5)),
        (path(5), cycle(8)),
        (grid(2, 3), cycle(7)),
        (cycle(7), cycle(7)),
    ]
    for a, b in pairs:
        g = cartesian_product(a, b).graph
        r = gamma_bb(g, lexmin=False, symmetry=domlab.harness._product_classes(a, b))
        assert r.gamma == gamma_bb(g, lexmin=False).gamma
        assert len(r.witness) == r.gamma and is_dominating(g, r.witness)


def test_check_pair_matches_the_oracle_on_small_products():
    # Every ordered pair of connected graphs with a product on <= 12
    # vertices, diagonal pairs (where the swap joins classes) included.
    connected = [f for n in range(1, 7) for f in enumerate_connected_graphs(n)]
    pairs = [(g, h) for g in connected for h in connected if g.n * h.n <= 12]
    assert len(pairs) == 596
    for g, h in pairs:
        r = check_pair(g, h)
        assert r.gammaProduct == gamma_oracle(cartesian_product(g, h).graph).gamma
        assert r.trace_ok


def test_check_pair_matches_milp_on_36_vertex_products():
    # gamma_oracle stops at 16 vertices; the MILP answer is independent of
    # the search.  One pair in ten is diagonal, where the swap joins classes.
    six = enumerate_connected_graphs(6)
    rng = random.Random(3636)
    pairs = [
        (g, g) if i % 10 == 0 else (g, rng.choice(six))
        for i, g in enumerate(rng.choice(six) for _ in range(200))
    ]
    for g, h in pairs:
        r = check_pair(g, h)
        assert len(milp_gamma(cartesian_product(g, h).graph)) == r.gammaProduct
        assert r.trace_ok


def _hypercube(k):
    cube = path(2)
    for _ in range(k - 1):
        cube = cartesian_product(cube, path(2)).graph
    return cube


@pytest.mark.parametrize("a, b, gamma", [(2, 3, 7), (3, 3, 12), (2, 4, 12), (3, 4, 16)])
def test_hypercube_products_match_the_covering_codes(a, b, gamma):
    # Q_a x Q_b is Q_{a+b}, whose gamma is the least binary covering code
    # of radius 1 (OEIS A000983): 7, 12 and 16 at n = 5, 6 and 7.  Their
    # groups are the largest of any anchor, so the stabilizers and the root
    # swap of the orbit rule all act; the plain search must agree.
    pg = cartesian_product(_hypercube(a), _hypercube(b))
    assert solve_product(pg).gamma == gamma
    assert gamma_bb(pg.graph, lexmin=False).gamma == gamma


@pytest.mark.parametrize("a, b", [(3, 3), (3, 4)])
def test_check_pair_traces_hypercube_products(a, b):
    r = check_pair(_hypercube(a), _hypercube(b))
    assert r.trace_ok and not r.violated


def test_check_pair_traces_a_minimum_set(full_sweep):
    # check_eq2 reads |C| <= |D|, so its rhs is the size of the traced set.
    reports = full_sweep.result.reports
    assert len(reports) == 496
    for r in reports:
        assert r.trace_ok
        assert r.verdict.check("check_eq2").rhs == r.gammaProduct


def test_product_search_finds_the_same_sets(small_connected_corpus):
    # The minimum set that check_pair traces on each product of the <= 5
    # sweep, pinned by digest: a cut that drops only subtrees without a
    # solution leaves the depth-first search's first set where it was.
    digest = hashlib.sha256()
    for g, h in all_pairs(small_connected_corpus):
        a, b = (g, h) if gamma_bb(g).gamma >= gamma_bb(h).gamma else (h, g)
        r = gamma_bb(
            cartesian_product(a, b).graph,
            lexmin=False,
            symmetry=domlab.harness._product_classes(a, b),
        )
        digest.update(f"{r.gamma} {list(r.witness.members)}\n".encode())
    assert digest.hexdigest() == (
        "d392c1b32dfbfc73ecf9df4c9de7c4853ee2643bf225b4aaad680576b340c763"
    )


def test_check_pair_node_total_is_pinned(small_connected_corpus, monkeypatch):
    # Every search node check_pair visits over the 496 pairs of the <= 5
    # sweep (factors, product and the trace's solves).  A change that
    # weakens pruning moves it on any machine, however fast.  Plain solves
    # are memoized for the process; the memo is emptied before and after,
    # so the count does not depend on other tests, and each distinct factor
    # and projection solve counts once.
    nodes = 0
    tick = domlab.solver._BranchAndBound._tick

    def counted(engine):
        nonlocal nodes
        nodes += 1
        tick(engine)

    monkeypatch.setattr(domlab.solver._BranchAndBound, "_tick", counted)
    plain = domlab.solver._plain_solve
    plain.cache_clear()
    try:
        for g, h in all_pairs(small_connected_corpus):
            check_pair(g, h)
    finally:
        plain.cache_clear()
    assert nodes == 4_858


def test_bound_definitions():
    r = check_pair(cycle(9), path(5))
    gg, gh = max(r.gammaG, r.gammaH), min(r.gammaG, r.gammaH)
    prod = gg * gh
    assert r.bound_conjecture == prod
    assert r.bound_CS == -(-prod // 2)
    assert r.bound_ST_half == -(-(prod + gh) // 2)
    assert r.bound_ST_body == -(-prod // 2) + gh
    assert r.bound_new == -(-(prod + gg) // 2)


# ---------------------------------------------------------------------------
# Pairings and sweeps
# ---------------------------------------------------------------------------


def test_all_pairs_includes_diagonal():
    gs = [path(2), path(3), path(4)]
    pairs = all_pairs(gs)
    assert len(pairs) == 6
    assert (gs[0], gs[0]) == pairs[0]


def test_zip_pairs_consecutive():
    gs = [path(2), path(3), path(4), path(5)]
    assert zip_pairs(gs) == [(gs[0], gs[1]), (gs[2], gs[3])]
    with pytest.raises(BadParameterError):
        zip_pairs(gs[:3])


def test_sweep_small_family():
    gs = [path(n) for n in range(1, 5)]
    res = sweep(all_pairs(gs))
    assert len(res.reports) == 10
    assert res.ok
    assert res.violations == ()
    assert res.errors == ()
    assert res.min_slack == 0
    assert sum(res.slack_counts.values()) == 10


def test_sweep_parallel_matches_serial():
    gs = [path(n) for n in range(1, 5)] + [cycle(3), cycle(4)]
    pairs = all_pairs(gs)
    serial = sweep(pairs, jobs=1)
    parallel = sweep(pairs, jobs=2)
    assert [pair_report_row(r) for r in serial.reports] == [
        pair_report_row(r) for r in parallel.reports
    ]
    assert serial.slack_counts == parallel.slack_counts


def test_sweep_caps_jobs_at_cpu_count(monkeypatch):
    workers = []

    class InlinePool:
        # Runs the work in this process and records the requested pool size.
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    pairs = all_pairs([path(n) for n in range(1, 4)])
    cpus = os.cpu_count() or 1
    capped = sweep(pairs, jobs=cpus + 1)
    # With one CPU the cap is one job, which runs serially without a pool.
    assert workers == ([cpus] if cpus > 1 else [])
    assert [pair_report_row(r) for r in capped.reports] == [
        pair_report_row(r) for r in sweep(pairs).reports
    ]


def test_sweep_records_errors_and_moves_on():
    ok_pair = (path(2), path(2))
    too_big = (complete(64), complete(65))
    res = sweep([ok_pair, too_big, ok_pair])
    assert res.errors == (1,)
    assert res.reports[1].error is not None
    assert "SizeOverflowError" in res.reports[1].error
    assert res.reports[1].violated is False
    assert res.reports[0].gammaProduct == 2
    assert res.ok


def test_sweep_records_unexpected_exceptions_as_errors(monkeypatch):
    pairs = [(path(2), path(2)), (path(2), path(3)), (path(2), path(4))]
    clean = sweep(pairs)
    real_check_pair = domlab.harness.check_pair

    def check_pair_failing_on_p3(g, h, limits, *, floor):
        if h == path(3):
            raise RecursionError("maximum recursion depth exceeded")
        return real_check_pair(g, h, limits, floor=floor)

    monkeypatch.setattr(domlab.harness, "check_pair", check_pair_failing_on_p3)
    res = sweep(pairs)
    assert res.errors == (1,)
    assert res.reports[1].error == "RecursionError: maximum recursion depth exceeded"
    assert res.reports[1].g6_H == encode_graph6(path(3))
    for i in (0, 2):
        assert pair_report_row(res.reports[i]) == pair_report_row(clean.reports[i])


def test_sweep_budget_error_is_per_pair():
    res = sweep([(path(6), path(6))], limits=SolverLimits(node_budget=3))
    assert res.errors == (0,)
    assert "BudgetExhaustedError" in res.reports[0].error


def test_sweep_floors_never_exceed_the_exact_gamma(small_connected_corpus, full_sweep):
    # Each side of a pair's floor is the exact gamma of G x K_|H| or
    # K_|G| x H, which every dominating set of G x H dominates too.  Both
    # stay at or below the product's gamma, checked here by the oracle (or
    # gamma_bb past its 16 vertices), and so does the sweep's own answer.
    # On 473 of the 496 pairs the floor is exact: a weaker one moves that.
    budget = SolverLimits().node_budget
    exact = 0
    pairs = all_pairs(small_connected_corpus)
    for (g, h), r in zip(pairs, full_sweep.result.reports):
        pg = cartesian_product(g, h).graph
        gamma = (gamma_oracle if pg.n <= 16 else gamma_bb)(pg).gamma
        sides = (
            domlab.harness._complete_floor(g, h.n, budget),
            domlab.harness._complete_floor(h, g.n, budget),
        )
        floor = domlab.harness._pair_floor(g, h, SolverLimits())
        assert floor == max(sides) <= gamma == r.gammaProduct, (g, h)
        exact += floor == r.gammaProduct
    assert exact == 473


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_with_floors_reports_what_check_pair_reports(
    small_connected_corpus, full_sweep, jobs
):
    # The floor skips only the product's proof call, which fails without
    # touching the set found: every row, record and trace check is the one
    # check_pair gives without a floor, serial or through the worker pool.
    pairs = all_pairs(small_connected_corpus)
    alone = [check_pair(g, h) for g, h in pairs]
    swept = full_sweep.result if jobs == 1 else sweep(pairs, jobs=jobs)
    assert [pair_report_row(r) for r in swept.reports] == [
        pair_report_row(r) for r in alone
    ]
    assert [pair_report_dict(r, with_verdict=True) for r in swept.reports] == [
        pair_report_dict(r, with_verdict=True) for r in alone
    ]


def test_sweep_floor_is_zero_when_its_solve_runs_out_of_nodes():
    # Three nodes are too few for the K_m solves: the floor falls back to 0
    # and each row is the one of a sweep without floors.
    limits = SolverLimits(node_budget=3)
    pairs = all_pairs([path(1), path(2), path(6)])
    assert domlab.harness._pair_floor(path(6), path(6), limits) == 0
    res = sweep(pairs, limits=limits)
    assert [pair_report_row(r) for r in res.reports] == [
        pair_report_row(domlab.harness._checked_pair((g, h, limits, 0)))
        for g, h in pairs
    ]
    assert res.errors


# ---------------------------------------------------------------------------
# Violation status
# ---------------------------------------------------------------------------


def test_corrupted_report_is_violated():
    r = check_pair(path(3), path(3))
    assert not r.violated
    assert replace(r, slack_new=-1, trace_ok=False).violated
    assert replace(r, trace_ok=False).violated
    assert replace(r, gammaProduct=r.bound_new - 1).violated


# ---------------------------------------------------------------------------
# Connected-graph enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts():
    assert [len(enumerate_connected_graphs(n)) for n in range(1, 7)] == [
        1,
        1,
        2,
        6,
        21,
        112,
    ]


def test_class_counts_include_the_disconnected_classes():
    # Every isomorphism class on n vertices, connected or not (OEIS A000088),
    # ascending by least mask.  A class whose complement's orbit the closure
    # ran on is recorded without a closure of its own, some of them
    # disconnected (K3 + K1, the star K1,3's complement, at n = 4), and each
    # such mask is its class's least.
    counts = []
    for n in range(1, 8):
        pairs, masks = domlab.harness._least_masks(n)
        counts.append(len(masks))
        assert masks == sorted(set(masks))
        if n > 6:
            continue
        images = [
            [1 << pairs.index((min(p[i], p[j]), max(p[i], p[j]))) for i, j in pairs]
            for p in itertools.permutations(range(n))
        ]
        for mask in masks:
            edges = [e for e in range(len(pairs)) if mask >> e & 1]
            assert mask == min(sum(image[e] for e in edges) for image in images)
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


def test_enumeration_guards():
    with pytest.raises(TooLargeError):
        enumerate_connected_graphs(8)
    with pytest.raises(BadParameterError):
        enumerate_connected_graphs(0)


def test_each_representative_is_the_least_mask_of_its_orbit():
    # The kept graph is the least edge mask of its class under all n!
    # vertex permutations (bit e is the e-th pair i < j in lexicographic
    # order), and the masks ascend: that fixes the labelling and the order
    # of every graph6 line.
    for n in range(1, 7):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        index = {pair: e for e, pair in enumerate(pairs)}
        images = [
            [1 << index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
            for p in itertools.permutations(range(n))
        ]
        masks = []
        for g in enumerate_connected_graphs(n):
            edges = [index[e] for e in g.edges()]
            mask = sum(1 << e for e in edges)
            assert mask == min(sum(image[e] for e in edges) for image in images)
            masks.append(mask)
        assert masks == sorted(masks) and len(set(masks)) == len(masks)


def test_seven_vertex_enumeration_matches_the_atlas(capsys):
    # The stdout of `domlab enumerate 7`; the brute force over all 7!
    # permutations printed the same lines.
    assert main(["enumerate", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "81bdd915a6b27e71ebb9fcfaace4d6731d8edf64553453dc146edac2548b68fb"
    )
    lines = out.splitlines()
    assert len(lines) == 853
    atlas = {}
    for x in nx.graph_atlas_g():
        if x.number_of_nodes() == 7 and nx.is_connected(x):
            atlas.setdefault(tuple(sorted(d for _, d in x.degree())), []).append(x)
    matched = set()
    for line in lines:
        g = parse_graph6(line)
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(range(7))
        hits = [
            id(x)
            for x in atlas.get(tuple(sorted(d for _, d in nxg.degree())), [])
            if nx.is_isomorphic(nxg, x)
        ]
        assert len(hits) == 1, line
        matched.add(hits[0])
    assert len(matched) == 853


def test_enumeration_yields_connected_graphs():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            assert g.n == n
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(n))
            assert nx.is_connected(nxg)


def test_enumeration_is_isomorphism_free():
    for n in range(1, 6):
        gs = enumerate_connected_graphs(n)
        nxg = [nx.Graph(list(g.edges())) for g in gs]
        for x in nxg:
            x.add_nodes_from(range(n))
        for a, b in itertools.combinations(nxg, 2):
            assert not nx.is_isomorphic(a, b)


def test_enumeration_is_deterministic():
    a = [encode_graph6(g) for g in enumerate_connected_graphs(5)]
    b = [encode_graph6(g) for g in enumerate_connected_graphs(5)]
    assert a == b
    assert len(set(a)) == len(a)


# ---------------------------------------------------------------------------
# Remark search
# ---------------------------------------------------------------------------


def test_remark_search_grid_exhausts_without_a_hit():
    rep = remark_search(path(4), path(4))
    assert rep.gamma_product == 4
    assert rep.count_min_sets == 2
    assert rep.found is None
    assert rep.truncated is False


def test_remark_search_trivial_pairs_find_hits():
    rep = remark_search(complete(1), complete(1))
    assert rep.found is not None and rep.found.members == (0,)
    rep2 = remark_search(path(3), complete(1))
    assert rep2.found is not None and rep2.found.members == (1,)
    assert rep2.count_min_sets == 1


@pytest.mark.parametrize(
    "g, h, expected",
    [
        (path(4), path(4), (4, 2, None, False)),
        (path(5), path(5), (7, 5, 0x905809, False)),
        (star(6), star(6), (6, 1, 0x3F, False)),
        (cycle(6), cycle(5), (7, 60, None, False)),
    ],
    ids=["P4xP4", "P5xP5", "S6xS6", "C6xC5"],
)
def test_remark_search_pinned_pairs(g, h, expected):
    # (gamma, sets examined, found as a vertex mask, truncated), as the
    # exhaustive enumeration over all C(n, gamma) subsets answered.
    rep = remark_search(g, h)
    found = rep.found.mask if rep.found is not None else None
    assert (rep.gamma_product, rep.count_min_sets, found, rep.truncated) == expected


def test_remark_search_respects_cap():
    # C4 x K1 has four minimum dominating sets, all with full projection
    # equal to an antipodal pair, which is minimal; the first one wins.
    rep = remark_search(cycle(4), complete(1), cap=3)
    assert rep.found is not None
    # A pair with no hit and more minimum sets than the cap must truncate.
    assert remark_search(path(4), path(4), cap=1).truncated


def remark_walk_without_memo(g, h, cap=domlab.harness.DEFAULT_REMARK_CAP):
    """remark_search's walk with every listed set's projection tested:
    (count, found mask, truncated, gamma, distinct projections seen)."""
    pg = cartesian_product(g, h)
    enum = enumerate_minimum_dominating_sets(pg.graph, cap)
    examined = 0
    found = None
    seen = set()
    for d in enum.sets:
        examined += 1
        q = project_onto_G(pg, d)
        seen.add(q.mask)
        if is_minimal_dominating(g, q):
            found = d.mask
            break
    return examined, found, enum.truncated and found is None, enum.gamma, len(seen)


@pytest.mark.parametrize(
    "g, h, cap, expected",
    [
        (path(4), complete(4), 100_000, (256, None, False, 4, 1)),
        (path(2), path(4), 5, (5, None, True, 3, 1)),
    ],
    ids=["P4xK4", "P2xP4-cap5"],
)
def test_remark_search_tests_each_projection_once(monkeypatch, g, h, cap, expected):
    # (sets examined, found, truncated, gamma, distinct projections): the
    # walk with its projection memo answers as the walk that tests every
    # set, and calls is_minimal_dominating once per projection.  All 256
    # minimum sets of P4 x K4 project onto {0, ..., 3}.
    assert remark_walk_without_memo(g, h, cap) == expected
    calls = 0
    real = domlab.harness.is_minimal_dominating

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(domlab.harness, "is_minimal_dominating", counted)
    rep = remark_search(g, h, cap=cap)
    mask = rep.found.mask if rep.found is not None else None
    got = (rep.count_min_sets, mask, rep.truncated, rep.gamma_product, calls)
    assert got == expected


def test_remark_search_agrees_with_a_walk_without_memo():
    # Every ordered pair of connected graphs on <= 4 vertices.
    corpus = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
    for g, h in itertools.product(corpus, repeat=2):
        rep = remark_search(g, h)
        mask = rep.found.mask if rep.found is not None else None
        got = (rep.count_min_sets, mask, rep.truncated, rep.gamma_product)
        assert got == remark_walk_without_memo(g, h)[:4], (g, h)


# ---------------------------------------------------------------------------
# Serialization of reports
# ---------------------------------------------------------------------------


def test_csv_columns_frozen():
    assert CSV_COLUMNS == [
        "g6_G",
        "g6_H",
        "gammaG",
        "gammaH",
        "gammaProd",
        "bound_CS",
        "bound_ST_half",
        "bound_ST_body",
        "bound_new",
        "slack_new",
        "trace_ok",
    ]


def test_pair_report_row_values():
    r = check_pair(path(4), path(4))
    row = pair_report_row(r)
    assert row == ["Ch", "Ch", "2", "2", "4", "2", "3", "4", "3", "1", "true"]


def test_pair_report_row_error_blanks():
    res = sweep([(complete(64), complete(65))])
    row = pair_report_row(res.reports[0])
    assert row[2:] == [""] * (len(CSV_COLUMNS) - 2)


def test_pair_report_dict_with_verdict():
    r = check_pair(path(3), complete(2))
    d = pair_report_dict(r, with_verdict=True)
    assert d["gammaProduct"] == r.gammaProduct
    assert d["trace_all_passed"] is True
    assert len(d["trace_checks"]) == 10
    plain = pair_report_dict(r)
    assert "trace_checks" not in plain
