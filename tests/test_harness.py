"""Pair reports, sweeps, connected-graph enumeration, and the remark search."""

from __future__ import annotations

import itertools
from dataclasses import replace

import networkx as nx
import pytest

from domlab import (
    CSV_COLUMNS,
    BadParameterError,
    SolverLimits,
    TooLargeError,
    all_pairs,
    check_pair,
    complete,
    cycle,
    encode_graph6,
    enumerate_connected_graphs,
    gamma_bb,
    is_connected,
    pair_report_dict,
    pair_report_row,
    path,
    remark_search,
    star,
    sweep,
    zip_pairs,
)


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


def test_sweep_budget_error_is_per_pair():
    res = sweep([(path(6), path(6))], limits=SolverLimits(node_budget=3))
    assert res.errors == (0,)
    assert "BudgetExhaustedError" in res.reports[0].error


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


def test_enumeration_guards():
    with pytest.raises(TooLargeError):
        enumerate_connected_graphs(7)
    with pytest.raises(BadParameterError):
        enumerate_connected_graphs(0)


def test_enumeration_yields_connected_graphs():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            assert g.n == n
            assert is_connected(g)


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
    assert a == sorted(a) or len(set(a)) == len(a)


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


def test_remark_search_respects_cap():
    # C4 x K1 has four minimum dominating sets, all with full projection
    # equal to an antipodal pair, which is minimal; the first one wins.
    rep = remark_search(cycle(4), complete(1), cap=3)
    assert rep.found is not None
    # A pair with no hit and more minimum sets than the cap must truncate.
    assert remark_search(path(4), path(4), cap=1).truncated


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
