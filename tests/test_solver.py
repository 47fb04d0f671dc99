"""Exact solver, oracle agreement, witnesses, minimality, and enumeration."""

from __future__ import annotations

import ast
import functools
import hashlib
import inspect
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from domlab import (
    BadParameterError,
    BudgetExhaustedError,
    NotDominatingError,
    SolverLimits,
    TooLargeError,
    VertexSet,
    cartesian_product,
    complete,
    cycle,
    enumerate_connected_graphs,
    enumerate_minimum_dominating_sets,
    gamma_bb,
    gamma_oracle,
    gamma_restricted,
    grid,
    is_dominating,
    is_minimal_dominating,
    make_graph,
    path,
    random_gnp,
    shrink_to_minimal,
    star,
    vertex_orbits,
)
import domlab.harness
from domlab.solver import _BranchAndBound, _greedy_cover, _plain_solve, _solve
from helpers import (
    milp_gamma,
    naive_closed_neighborhoods,
    naive_cover_size,
    naive_gamma,
    naive_gamma_restricted,
    naive_greedy_cover,
    naive_minimum_dominating_sets,
    random_dominating_set,
    random_graph,
    root_symmetry,
)


# ---------------------------------------------------------------------------
# Known values
# ---------------------------------------------------------------------------


def test_paths_and_cycles_closed_form():
    # gamma = ceil(n/3), cross-checked by the exhaustive oracle below.
    for n in range(1, 13):
        expect = -(-n // 3)
        assert gamma_bb(path(n)).gamma == expect
        if n >= 3:
            assert gamma_bb(cycle(n)).gamma == expect


def test_complete_and_star_are_gamma_one():
    for n in [1, 2, 5, 9]:
        assert gamma_bb(complete(n)).gamma == 1
    assert gamma_bb(star(7)).gamma == 1


def test_grid_values():
    assert gamma_bb(grid(2, 2)).gamma == 2
    assert gamma_bb(grid(3, 3)).gamma == 3
    assert gamma_bb(grid(4, 4)).gamma == 4
    assert gamma_bb(grid(6, 6)).gamma == 10
    assert gamma_bb(grid(7, 7)).gamma == 12
    assert gamma_bb(grid(8, 8)).gamma == 16


def test_grid_4x4_witness():
    r = gamma_bb(grid(4, 4))
    assert r.witness.members == (1, 7, 8, 14)


def test_edgeless_graph_needs_every_vertex():
    g = make_graph(5, [])
    assert gamma_bb(g).gamma == 5
    assert gamma_bb(g).witness.members == (0, 1, 2, 3, 4)


def test_search_depth_does_not_use_the_call_stack():
    # Every one of the 150 vertices is a pick, so a search that recursed once
    # per pick would need 150 frames above the caller's; allow only 50.
    g = make_graph(150, [])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        r = gamma_bb(g)
    finally:
        sys.setrecursionlimit(saved)
    assert r.gamma == 150
    assert r.witness == VertexSet.full(150)


# ---------------------------------------------------------------------------
# Witness contracts
# ---------------------------------------------------------------------------


def test_witness_dominates_and_matches_gamma():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, max_n=10)
        r = gamma_bb(g)
        assert is_dominating(g, r.witness)
        assert len(r.witness) == r.gamma


def test_witness_is_lexicographically_smallest():
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng, max_n=9)
        r = gamma_bb(g)
        assert r.witness.members == naive_gamma(g)[1]


def test_oracle_witness_is_lex_first_too():
    assert gamma_oracle(path(4)).witness.members == (0, 2)
    assert gamma_bb(path(4)).witness.members == (0, 2)


# ---------------------------------------------------------------------------
# Two independent routes agree
# ---------------------------------------------------------------------------


def test_solver_agrees_with_oracle_on_random_graphs():
    rng = random.Random(7)
    graphs = [random_graph(rng, max_n=11) for _ in range(80)]
    # Products of connected factors with at most 12 vertices, the shape the
    # sweep solves.
    connected = [f for n in range(1, 7) for f in enumerate_connected_graphs(n)]
    graphs += [
        cartesian_product(f, h).graph
        for f in connected
        for h in connected
        if f.n * h.n <= 12
    ]
    for g in graphs:
        a = gamma_oracle(g)
        b = gamma_bb(g)
        assert a.gamma == b.gamma
        assert a.witness == b.witness


def test_search_witness_agrees_with_oracle():
    # lexmin=False returns minimize's own set: some minimum dominating set,
    # not necessarily the oracle's.
    rng = random.Random(11)
    graphs = [random_graph(rng, max_n=12) for _ in range(60)]
    connected = [f for n in range(2, 7) for f in enumerate_connected_graphs(n)]
    graphs += [
        cartesian_product(f, h).graph
        for i, f in enumerate(connected)
        for h in connected[i:]
        if f.n * h.n <= 16
    ]
    for g in graphs:
        r = gamma_bb(g, lexmin=False)
        assert r.gamma == gamma_oracle(g).gamma
        assert is_dominating(g, r.witness)
        assert len(r.witness) == r.gamma


def test_solver_agrees_with_naive_reference():
    rng = random.Random(8)
    for _ in range(40):
        g = random_graph(rng, max_n=9)
        assert gamma_bb(g).gamma == naive_gamma(g)[0]


def test_complete_agrees_with_brute_force_below_the_root():
    # `complete(covered, allowed, slots)` from arbitrary covered and allowed
    # masks, as the witness pass and gamma_restricted call it below the
    # root: one slot short of the brute-force minimum finds nothing and the
    # minimum finds a cover, so the counting bound cuts no node or child
    # whose subtree holds a solution.
    rng = random.Random(1010)
    for _ in range(300):
        g = random_graph(rng, max_n=9)
        closed = naive_closed_neighborhoods(g)
        covered = [v for v in range(g.n) if rng.random() < 0.3]
        allowed = [v for v in range(g.n) if rng.random() < 0.7]
        targets = set(range(g.n)) - set(covered)
        best = naive_cover_size(g, targets, allowed)
        top = g.n if best is None else best
        engine = _BranchAndBound(g, 10**6)
        covered_mask = VertexSet.from_members(g.n, covered).mask
        allowed_mask = VertexSet.from_members(g.n, allowed).mask
        for slots in sorted({0, max(top - 1, 0), top, rng.randint(0, g.n)}):
            found = engine.complete(covered_mask, allowed_mask, slots)
            if best is None or slots < best:
                assert found is None
                continue
            picks = VertexSet(g.n, found).members
            assert set(picks) <= set(allowed) and len(picks) <= slots
            assert targets <= set().union(*(closed[v] for v in picks))


def test_complete_takes_slots_above_n():
    # n picks cover any graph, so more slots than vertices search as n do:
    # the same cover from the same nodes, at the root and below it.
    g = path(4)
    engine = _BranchAndBound(g, 10**6)
    assert engine.complete(0, g.full_mask, 6) == engine.complete(0, g.full_mask, 4)
    rng = random.Random(1717)
    for _ in range(100):
        g = random_graph(rng, max_n=8)
        root = rng.random() < 0.4
        covered = 0 if root else rng.getrandbits(g.n)
        allowed = g.full_mask if root else rng.getrandbits(g.n)
        runs = []
        for slots in (g.n, g.n + 1, g.n + 2, 2 * g.n + 5):
            engine = _BranchAndBound(g, 10**6)
            runs.append((engine.complete(covered, allowed, slots), engine.nodes))
        assert runs == [runs[0]] * 4


def test_complete_finds_the_same_sets():
    # The set `complete` returns from 300 seeded nodes, pinned by digest:
    # which set a depth-first search finds first depends on its child order
    # and its cuts, which the node-count pins see only when the count moves.
    # Two graphs in five are products of connected graphs, whose orbits are
    # not trivial, and two nodes in five are root calls (nothing covered,
    # every vertex allowed), where the root orbit rule runs.  Slots go one
    # below, at and one above the brute-force minimum, plus one at random.
    rng = random.Random(1515)
    connected = [f for n in range(1, 5) for f in enumerate_connected_graphs(n)]
    digest = hashlib.sha256()
    for _ in range(300):
        if rng.random() < 0.4:
            a = rng.choice(connected)
            b = rng.choice([h for h in connected if a.n * h.n <= 9])
            g = cartesian_product(a, b).graph
        else:
            g = random_graph(rng, max_n=9)
        root = rng.random() < 0.4
        covered = [] if root else [v for v in range(g.n) if rng.random() < 0.3]
        allowed = [v for v in range(g.n) if root or rng.random() < 0.7]
        targets = set(range(g.n)) - set(covered)
        best = naive_cover_size(g, targets, allowed)
        top = g.n if best is None else best
        covered_mask = VertexSet.from_members(g.n, covered).mask
        allowed_mask = VertexSet.from_members(g.n, allowed).mask
        tries = {max(top - 1, 0), top, min(top + 1, g.n), rng.randint(0, g.n)}
        for slots in sorted(tries):
            for symmetry in (None, root_symmetry(g)):
                engine = _BranchAndBound(g, 10**6, symmetry)
                found = engine.complete(covered_mask, allowed_mask, slots)
                digest.update(f"{slots} {found}\n".encode())
    assert digest.hexdigest() == (
        "43901e22a1b8b4e74d16832c6dc56569d416b48859123c864f8a7919d4c5f620"
    )


def test_greedy_start_matches_a_naive_greedy():
    # The set minimize starts from, on random candidate masks, against a
    # set-based greedy with the same lowest-id tie-break; an empty mask or
    # one that leaves a vertex undominated gives None.
    rng = random.Random(1616)
    undominated = 0
    for _ in range(200):
        g = random_graph(rng, max_n=10)
        some = [v for v in range(g.n) if rng.random() < 0.6]
        for allowed in ([], some, range(g.n)):
            mask = VertexSet.from_members(g.n, allowed).mask
            got = _greedy_cover(g.closed, g.full_mask, mask)
            want = naive_greedy_cover(g, allowed)
            assert (None if got is None else VertexSet(g.n, got).members) == want
            undominated += want is None
    assert undominated > 200  # the 200 empty masks, and some others


def test_greedy_set_is_the_product_witness_when_it_is_minimum():
    # minimize keeps its greedy start until `complete` finds a smaller set,
    # so with lexmin=False a greedy set of size gamma is the witness.  It is
    # on 424 of the 496 products of the <= 5 sweep.
    connected = [f for n in range(1, 6) for f in enumerate_connected_graphs(n)]
    optimal = 0
    for i, a in enumerate(connected):
        for b in connected[i:]:
            g = cartesian_product(a, b).graph
            greedy = naive_greedy_cover(g, range(g.n))
            r = gamma_bb(
                g, lexmin=False, symmetry=domlab.harness._product_classes(a, b)
            )
            if len(greedy) == r.gamma:
                assert r.witness.members == greedy
                optimal += 1
    assert optimal == 424


def test_oracle_guard():
    with pytest.raises(TooLargeError):
        gamma_oracle(random_gnp(17, 0.2, seed=1))
    assert gamma_oracle(path(16)).gamma == 6


# ---------------------------------------------------------------------------
# Limits and budgets
# ---------------------------------------------------------------------------


def test_bad_node_budget_rejected():
    with pytest.raises(BadParameterError):
        SolverLimits(node_budget=0)


def test_symmetry_must_be_callable():
    # The search calls its symmetry input with each node's picks; a sequence
    # of classes is refused up front, not by a TypeError mid-search.
    with pytest.raises(BadParameterError, match="symmetry must map picks"):
        gamma_bb(path(3), symmetry=list(vertex_orbits(path(3))))


def test_orbits_keep_gamma_and_cut_nodes():
    # The root orbit rule on Aut(g)'s own orbits: the same gamma as the
    # oracle on random graphs, and on C6 x P5 a minimize of 47 nodes, not
    # 131 (test_enumerate_charges_gamma_and_listing_to_one_budget).
    rng = random.Random(21)
    for g in [random_graph(rng, max_n=11) for _ in range(80)]:
        r = gamma_bb(g, lexmin=False, symmetry=root_symmetry(g))
        assert r.gamma == gamma_oracle(g).gamma
        assert is_dominating(g, r.witness) and len(r.witness) == r.gamma
        assert gamma_bb(g, symmetry=root_symmetry(g)) == gamma_oracle(g)
    g = cartesian_product(cycle(6), path(5)).graph
    limits = SolverLimits(node_budget=47)
    assert gamma_bb(g, limits, lexmin=False, symmetry=root_symmetry(g)).gamma == 8
    with pytest.raises(BudgetExhaustedError):
        gamma_bb(g, SolverLimits(46), lexmin=False, symmetry=root_symmetry(g))


def test_budget_exhaustion_carries_a_usable_bound():
    g = random_gnp(40, 0.08, seed=12)
    with pytest.raises(BudgetExhaustedError) as exc:
        gamma_bb(g, SolverLimits(node_budget=5))
    assert exc.value.upper_bound is not None
    assert exc.value.witness is not None
    assert is_dominating(g, exc.value.witness)
    assert len(exc.value.witness) == exc.value.upper_bound


@pytest.mark.parametrize(
    "g, nodes",
    [
        (grid(7, 7), 684),
        (grid(8, 8), 4_010),
        (cartesian_product(cycle(6), path(5)).graph, 197),
    ],
    ids=["grid7x7", "grid8x8", "C6xP5"],
)
def test_node_counts_are_pinned(g, nodes):
    # The search's exact node count (minimize plus the witness pass): a
    # change to pruning, branching or child order moves it.
    result = gamma_bb(g, SolverLimits(node_budget=nodes))
    with pytest.raises(BudgetExhaustedError) as exc:
        gamma_bb(g, SolverLimits(node_budget=nodes - 1))
    witness = exc.value.witness
    assert isinstance(witness, VertexSet)
    assert is_dominating(g, witness)
    assert len(witness) == exc.value.upper_bound == result.gamma


def test_plain_solves_equal_a_fresh_search():
    # gamma_bb's plain calls and gamma_restricted go through the process's
    # solve memo; asked twice, each answers as a search of its own does.
    rng = random.Random(35)
    budget = SolverLimits().node_budget
    for seed in range(40):
        g = random_gnp(rng.randint(1, 12), rng.choice((0.2, 0.4)), seed)
        for _ in range(2):
            assert gamma_bb(g) == _solve(g, g.full_mask, budget)
        for _ in range(3):
            candidates = rng.getrandbits(g.n)
            try:
                fresh = _solve(g, candidates, budget)
            except NotDominatingError:
                for _ in range(2):
                    with pytest.raises(NotDominatingError):
                        gamma_restricted(g, VertexSet(g.n, candidates))
                continue
            for _ in range(2):
                assert gamma_restricted(g, VertexSet(g.n, candidates)) == fresh


def test_plain_solve_memo_keys_on_the_budget():
    # A search that needs exactly `nodes` nodes: the success found under
    # that budget is served again under it, never under one node less, and
    # a budget that runs out raises on every call.
    g = cartesian_product(cycle(6), path(4)).graph
    candidates = VertexSet(g.n, g.full_mask & ~0b101)
    engine = _BranchAndBound(g, 10**6)
    engine.minimize(g.full_mask)
    engine.lexmin_witness(g.full_mask)
    restricted = _BranchAndBound(g, 10**6)
    restricted.minimize(candidates.mask)
    restricted.lexmin_witness(candidates.mask)
    _plain_solve.cache_clear()
    try:
        for call, nodes in (
            (lambda b: gamma_bb(g, SolverLimits(b)), engine.nodes),
            (
                lambda b: gamma_restricted(g, candidates, SolverLimits(b)),
                restricted.nodes,
            ),
        ):
            first = call(nodes)
            assert call(nodes) is first
            for _ in range(2):
                with pytest.raises(BudgetExhaustedError):
                    call(nodes - 1)
            assert call(nodes) is first
    finally:
        _plain_solve.cache_clear()


def test_grid_10x10_is_changs_value():
    # gamma(P10 x P10) = 24 (Chang's formula for grids); about 186,000
    # nodes, minimize and witness pass together.
    r = gamma_bb(grid(10, 10), SolverLimits(node_budget=250_000))
    assert r.gamma == 24
    assert is_dominating(grid(10, 10), r.witness)
    assert len(milp_gamma(grid(10, 10))) == 24


def test_gnp_pool_of_the_benchmark_matches_milp():
    # 30 seeded entries of the `grid_solve` pool in bench/reference.json
    # (G(n, p) on 40 to 60 vertices; entries are [n, p, seed, gamma,
    # witness mask in hex, ms]): gamma_bb, the pool and the MILP solver
    # agree on gamma, and the pool's witness is gamma_bb's and dominates.
    reference = Path(__file__).parents[1] / "bench" / "reference.json"
    pool = json.loads(reference.read_text())["grid_solve"]["pool"]
    for n, p, seed, gamma, witness, _ in random.Random(2000).sample(pool, 30):
        g = random_gnp(n, p, seed)
        r = gamma_bb(g)
        assert r.gamma == gamma == len(milp_gamma(g))
        assert r.witness == VertexSet(n, int(witness, 16))
        assert is_dominating(g, r.witness)


def test_solver_does_not_assume_the_theorem_it_checks():
    # The search that verifies bound_new must not be pruned with it, or
    # with anything built on the counting argument: the solver imports
    # neither the harness nor the trace, and never names bound_new.
    source = (Path(__file__).parents[1] / "src" / "domlab" / "solver.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert not {"harness", "trace"} & set(name.split(".")), name
    assert "bound_new" not in source


def test_sweep_floor_does_not_assume_the_theorem_it_checks():
    # The floor a sweep hands the product's search is the exact gamma of
    # another product, G x K_m, found by its own complete search: its
    # helpers name no bound, no factor's gamma and no slack.
    for fn in (domlab.harness._complete_floor, domlab.harness._pair_floor):
        source = inspect.getsource(fn)
        assert not re.search(r"bound_|gammaG|gammaH|slack_new", source), fn
    assert "cartesian_product(g, complete(m))" in inspect.getsource(
        domlab.harness._complete_floor
    )


def test_floor_skips_only_the_proof_call():
    # A floor at gamma stops minimize at its first set of that size, so the
    # failing proof call is skipped (grid 6x6: 221 nodes down to 19); gamma
    # and the set found stay those of the full search, as they do under
    # every lower floor and with the witness pass.
    g = grid(6, 6)
    found = gamma_bb(g, lexmin=False)
    assert found.gamma == 10
    with pytest.raises(BudgetExhaustedError):
        gamma_bb(g, SolverLimits(node_budget=220), lexmin=False)
    for floor in range(11):
        assert gamma_bb(g, lexmin=False, floor=floor) == found
    assert gamma_bb(g, SolverLimits(node_budget=19), lexmin=False, floor=10) == found
    with pytest.raises(BudgetExhaustedError):
        gamma_bb(g, SolverLimits(node_budget=18), lexmin=False, floor=10)
    assert gamma_bb(g, floor=10) == gamma_bb(g)


def test_long_path_witness_pass_starts_from_the_minimum_set():
    # The vertices of minimize's set are taken without a search, so the
    # witness pass only rules out the 799 other vertices it passes, one
    # node each: 800 nodes with minimize's one.
    r = gamma_bb(path(1200), SolverLimits(node_budget=1_000))
    assert r.gamma == 400
    assert r.witness.members == tuple(range(1, 1200, 3))


def test_large_budget_is_never_hit_on_small_graphs():
    g = grid(4, 4)
    assert gamma_bb(g, SolverLimits(node_budget=10_000_000)).gamma == 4


# ---------------------------------------------------------------------------
# Restricted candidates
# ---------------------------------------------------------------------------


def test_restricted_to_dominating_candidates():
    g = path(4)
    r = gamma_restricted(g, VertexSet.from_members(4, [1, 2, 3]))
    assert r.gamma == 2
    assert r.witness.members == (1, 2)


def test_restricted_can_be_worse_than_global():
    g = star(6)
    r = gamma_restricted(g, VertexSet.from_members(6, [1, 2, 3, 4, 5]))
    assert r.gamma == 5


def test_restricted_rejects_insufficient_candidates():
    with pytest.raises(NotDominatingError):
        gamma_restricted(path(4), VertexSet.from_members(4, [0, 1]))


def test_restricted_agrees_with_brute_force_on_random_candidates():
    # The search drops dominated children among the eligible candidates, so
    # check it on candidate sets that cut the graph's vertices at random.
    rng = random.Random(11)
    graphs = [random_graph(rng, max_n=10) for _ in range(120)]
    connected = [f for n in range(2, 5) for f in enumerate_connected_graphs(n)]
    graphs += [
        cartesian_product(rng.choice(connected), rng.choice(connected)).graph
        for _ in range(40)
    ]
    refused = 0
    for g in graphs:
        density = rng.choice([0.5, 0.7, 0.9])
        members = [v for v in range(g.n) if rng.random() < density]
        candidates = VertexSet.from_members(g.n, members)
        expected = naive_gamma_restricted(g, members)
        if expected is None:
            refused += 1
            with pytest.raises(NotDominatingError):
                gamma_restricted(g, candidates)
            continue
        r = gamma_restricted(g, candidates)
        assert (r.gamma, r.witness.members) == expected
    assert 0 < refused < len(graphs)


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


def test_is_minimal_dominating_examples():
    g = path(4)
    assert is_minimal_dominating(g, VertexSet.from_members(4, [0, 2]))
    assert is_minimal_dominating(g, VertexSet.from_members(4, [1, 2]))
    assert not is_minimal_dominating(g, VertexSet.full(4))
    assert not is_minimal_dominating(g, VertexSet.from_members(4, [0, 1]))


def test_shrink_complete_graph_keeps_lowest_vertex():
    assert shrink_to_minimal(complete(3), VertexSet.full(3)).members == (0,)


def test_shrink_path_keeps_low_pair():
    assert shrink_to_minimal(path(4), VertexSet.full(4)).members == (0, 2)


def test_shrink_output_is_minimal_subset():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, max_n=10)
        s = random_dominating_set(rng, g)
        t = shrink_to_minimal(g, s)
        assert t.issubset(s)
        assert is_minimal_dominating(g, t)


def test_shrink_rejects_non_dominating_input():
    with pytest.raises(NotDominatingError):
        shrink_to_minimal(path(4), VertexSet.from_members(4, [0]))


# ---------------------------------------------------------------------------
# Enumeration of minimum sets
# ---------------------------------------------------------------------------


def test_enumerate_p4_minimum_sets():
    enum = enumerate_minimum_dominating_sets(path(4), cap=10)
    assert enum.gamma == 2
    assert not enum.truncated
    assert [s.members for s in enum.sets] == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_enumerate_truncation_flag():
    enum = enumerate_minimum_dominating_sets(path(4), cap=2)
    assert enum.truncated
    assert [s.members for s in enum.sets] == [(0, 2), (0, 3)]
    exact = enumerate_minimum_dominating_sets(path(4), cap=4)
    assert not exact.truncated
    assert len(exact.sets) == 4


def test_enumerate_complete_graph():
    enum = enumerate_minimum_dominating_sets(complete(4), cap=10)
    assert enum.gamma == 1
    assert [s.members for s in enum.sets] == [(0,), (1,), (2,), (3,)]


def test_enumerate_cap_must_be_positive():
    with pytest.raises(BadParameterError):
        enumerate_minimum_dominating_sets(path(4), cap=0)


def test_enumerate_is_bounded_by_the_node_budget():
    # C(36, 10) ~ 2.5e8 subsets of size gamma = 10, but the search lists all
    # 288 minimum sets in 12,812 nodes.
    g = grid(6, 6)
    enum = enumerate_minimum_dominating_sets(g, cap=1000)
    assert enum.gamma == 10
    assert len(enum.sets) == 288
    assert not enum.truncated
    engine = _BranchAndBound(g, 10**6)
    engine.minimize(g.full_mask)
    before = engine.nodes
    assert sum(1 for _ in engine.dominating_sets(10)) == 288
    assert engine.nodes - before == 12_812
    with pytest.raises(BudgetExhaustedError) as exc:
        enumerate_minimum_dominating_sets(g, cap=1000, limits=SolverLimits(1000))
    assert len(exc.value.witness) == 10
    assert is_dominating(g, exc.value.witness)


def test_enumerate_all_results_are_minimum_dominating():
    rng = random.Random(4242)
    for _ in range(30):
        g = random_graph(rng, max_n=8)
        enum = enumerate_minimum_dominating_sets(g, cap=1000)
        gamma = gamma_bb(g).gamma
        assert enum.gamma == gamma
        assert not enum.truncated
        members = [s.members for s in enum.sets]
        assert members == sorted(members)
        for s in enum.sets:
            assert len(s) == gamma
            assert is_dominating(g, s)


def test_enumerate_matches_brute_force_order_and_truncation():
    connected = [f for n in range(1, 7) for f in enumerate_connected_graphs(n)]
    graphs = [
        cartesian_product(f, h).graph
        for f in connected
        for h in connected
        if f.n * h.n <= 12
    ]
    assert len(graphs) == 596
    rng = random.Random(4343)
    graphs += [random_graph(rng, max_n=11) for _ in range(30)]
    for g in graphs:
        expected = naive_minimum_dominating_sets(g)
        for cap in (1, 2, len(expected) + 1):
            enum = enumerate_minimum_dominating_sets(g, cap=cap)
            assert enum.gamma == len(expected[0])
            assert [s.members for s in enum.sets] == expected[:cap]
            assert enum.truncated == (len(expected) > cap)


def test_dominating_sets_match_brute_force_at_every_size():
    # Sizes above gamma list every dominating set of that size; they are
    # the only way to reach a last pick with nothing left to cover.  Sizes
    # above n list nothing.
    small = [f for n in range(1, 5) for f in enumerate_connected_graphs(n)]
    graphs = [
        cartesian_product(f, h).graph
        for a, f in enumerate(small)
        for h in small[a:]
    ]
    rng = random.Random(4444)
    seeded = [random_graph(rng, max_n=9) for _ in range(20)]
    assert sum(g.m == 0 for g in seeded) >= 2
    for g in graphs + seeded:
        closed = g.closed
        gamma = gamma_bb(g).gamma
        for size in range(gamma, g.n + 3):
            expected = [
                sum(1 << v for v in combo)
                for combo in itertools.combinations(range(g.n), size)
                if functools.reduce(int.__or__, (closed[v] for v in combo)) == g.full_mask
            ]
            engine = _BranchAndBound(g, 10**7)
            assert list(engine.dominating_sets(size)) == expected, (g, size)


@pytest.mark.parametrize(
    "g, sets, nodes",
    [
        (cartesian_product(path(4), path(4)).graph, 2, 23),
        (cartesian_product(path(5), path(5)).graph, 22, 724),
        (cartesian_product(star(6), star(6)).graph, 2, 136),
        (cartesian_product(cycle(6), cycle(5)).graph, 60, 1_224),
    ],
    ids=["P4xP4", "P5xP5", "S6xS6", "C6xC5"],
)
def test_enumerator_nodes_on_the_remark_pairs_are_pinned(g, sets, nodes):
    # The four fixed pairs of the benchmark's `remark` workload: the minimum
    # sets each lists and the enumerator's nodes after `minimize`.
    engine = _BranchAndBound(g, 10**6)
    gamma = engine.minimize(g.full_mask)
    before = engine.nodes
    assert sum(1 for _ in engine.dominating_sets(gamma)) == sets
    assert engine.nodes - before == nodes


def test_enumerate_charges_gamma_and_listing_to_one_budget():
    # gamma takes 131 nodes here and listing up to the second set (which
    # sets the truncation flag) 244 more; the lexicographic witness pass
    # that gamma_bb adds is not run.
    g = cartesian_product(cycle(6), path(5)).graph
    res = enumerate_minimum_dominating_sets(g, 1, SolverLimits(node_budget=375))
    assert res.gamma == 8
    assert [tuple(s) for s in res.sets] == [(0, 1, 3, 4, 12, 15, 19, 22)]
    assert res.truncated
    with pytest.raises(BudgetExhaustedError) as exc:
        enumerate_minimum_dominating_sets(g, 1, SolverLimits(node_budget=374))
    assert isinstance(exc.value.witness, VertexSet)
    assert is_dominating(g, exc.value.witness)
    assert len(exc.value.witness) == 8


def test_enumerate_does_not_use_the_call_stack():
    # The one minimum set holds all 150 vertices; allow 50 frames, as in
    # test_search_depth_does_not_use_the_call_stack.
    g = make_graph(150, [])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        enum = enumerate_minimum_dominating_sets(g, cap=2)
    finally:
        sys.setrecursionlimit(saved)
    assert enum.gamma == 150
    assert enum.sets == (VertexSet.full(150),)
    assert not enum.truncated
