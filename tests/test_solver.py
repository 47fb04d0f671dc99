"""Exact solver, oracle agreement, witnesses, minimality, and enumeration."""

from __future__ import annotations

import random

import pytest

from domlab import (
    BadParameterError,
    BudgetExhaustedError,
    NotDominatingError,
    SolverLimits,
    TooLargeError,
    VertexSet,
    complete,
    cycle,
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
)
from helpers import naive_gamma, random_dominating_set, random_graph


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
    for _ in range(80):
        g = random_graph(rng, max_n=11)
        a = gamma_oracle(g)
        b = gamma_bb(g)
        assert a.gamma == b.gamma
        assert a.witness == b.witness


def test_solver_agrees_with_naive_reference():
    rng = random.Random(8)
    for _ in range(40):
        g = random_graph(rng, max_n=9)
        assert gamma_bb(g).gamma == naive_gamma(g)[0]


def test_oracle_guard():
    with pytest.raises(TooLargeError):
        gamma_oracle(random_gnp(17, 0.2, seed=1))
    assert gamma_oracle(random_gnp(17, 0.2, seed=1), guard=17).gamma >= 1


# ---------------------------------------------------------------------------
# Limits and budgets
# ---------------------------------------------------------------------------


def test_bad_node_budget_rejected():
    with pytest.raises(BadParameterError):
        SolverLimits(node_budget=0)


def test_budget_exhaustion_carries_a_usable_bound():
    g = random_gnp(40, 0.08, seed=12)
    with pytest.raises(BudgetExhaustedError) as exc:
        gamma_bb(g, SolverLimits(node_budget=5))
    assert exc.value.upper_bound is not None
    assert exc.value.witness is not None
    assert is_dominating(g, exc.value.witness)
    assert len(exc.value.witness) == exc.value.upper_bound


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


def test_enumerate_combination_budget():
    # C(36, 10) ~ 2.5e8 subsets of size gamma = 10, above the default budget.
    with pytest.raises(TooLargeError):
        enumerate_minimum_dominating_sets(grid(6, 6), cap=10)


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
