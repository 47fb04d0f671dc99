"""Counting-argument traces: construction, the ten checks, and the remark path.

The heavyweight test here rebuilds every trace object with the plain
set-and-dict code from helpers.py and demands exact agreement with the
bitmask implementation, across seeded random instances.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from domlab import (
    BadParameterError,
    BadVertexError,
    NotDominatingError,
    ProjectionNotMinimalError,
    VertexSet,
    all_pairs,
    build_partition,
    build_trace,
    cartesian_product,
    check_to_dict,
    complete,
    contradiction_witness,
    cycle,
    format_check,
    gamma_bb,
    grid,
    is_dominating,
    make_graph,
    parse_graph6,
    path,
    project_onto_G,
    remark_search,
    remark_trace,
    star,
    trace_report,
    verify_trace,
)
from domlab.graphs import _project
from helpers import (
    random_graph,
    random_minimal_dominating_set,
    recompute_from_U,
)

CHECK_NAMES = (
    "check_T",
    "check_Pdom",
    "check_Pineq",
    "check_disjoint",
    "check_membership",
    "check_L",
    "check_eq1",
    "check_R",
    "check_eq2",
    "check_final",
)


def product_ids_to_pairs(n_h: int, s: VertexSet) -> set[tuple[int, int]]:
    return {(x // n_h, x % n_h) for x in s.members}


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def test_partition_smallest_block_wins():
    # P4 with U = (0, 2): vertex 1 is adjacent to both 0 and 2; block 0 wins.
    assert build_partition(path(4), (0, 2)) == (0, 0, 1, 1)


def test_partition_self_rule_beats_earlier_neighbor():
    # C4 with U = (0, 1): vertex 1 is in N[0] but must land in its own block.
    assert build_partition(cycle(4), (0, 1)) == (0, 1, 1, 0)


def test_partition_is_a_partition():
    rng = random.Random(314)
    for _ in range(50):
        g = random_graph(rng, max_n=9)
        U = gamma_bb(g).witness.members
        pi = build_partition(g, U)
        assert len(pi) == g.n
        assert all(0 <= b < len(U) for b in pi)
        for i, u in enumerate(U):
            assert pi[u] == i


def test_partition_duplicate_rejected():
    with pytest.raises(BadParameterError):
        build_partition(path(4), (0, 0))


def test_partition_out_of_range_rejected():
    with pytest.raises(BadVertexError):
        build_partition(path(4), (0, 4))


def test_partition_must_dominate():
    with pytest.raises(NotDominatingError):
        build_partition(path(4), (0,))


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_projections_match_pairs():
    rng = random.Random(271)
    for _ in range(40):
        g = random_graph(rng, max_n=6)
        h = random_graph(rng, max_n=6)
        pg = cartesian_product(g, h)
        s = VertexSet.from_members(
            pg.graph.n, rng.sample(range(pg.graph.n), k=min(5, pg.graph.n))
        )
        pairs = product_ids_to_pairs(h.n, s)
        assert set(project_onto_G(pg, s).members) == {u for u, _ in pairs}
        us, vs = _project(s.mask, h.n)
        assert (set(VertexSet(g.n, us)), set(VertexSet(h.n, vs))) == (
            {u for u, _ in pairs},
            {v for _, v in pairs},
        )


# ---------------------------------------------------------------------------
# Frozen worked instances
# ---------------------------------------------------------------------------


def test_trace_path_times_single_vertex():
    g, h = path(4), complete(1)
    D = gamma_bb(cartesian_product(g, h).graph).witness
    t = build_trace(g, h, D)
    assert D.members == (0, 2)
    assert t.Q.members == (0, 2)
    assert t.U == (0, 2)
    assert t.k == 2
    assert t.pi == (0, 0, 1, 1)
    assert sorted(t.C) == [(0, 0), (1, 0)]
    assert t.Lsizes == (1, 1)
    assert t.Rsizes == (2,)
    v = verify_trace(t)
    assert v.all_passed
    final = v.check("check_final")
    assert final.lhs == 4
    assert final.rhs == 4
    assert final.rhs2 == 4


def test_trace_with_caller_chosen_dominating_set():
    # D = {(1,0), (2,0)} in P4 x K1: projection is the middle pair {1, 2}.
    g, h = path(4), complete(1)
    t = build_trace(g, h, VertexSet.from_members(4, [1, 2]))
    assert t.Q.members == (1, 2)
    assert t.U == (1, 2)
    assert t.k == 2
    assert len(t.C) == 2
    v = verify_trace(t)
    assert v.all_passed
    final = v.check("check_final")
    assert (final.lhs, final.rhs) == (4, 4)


def test_trace_four_by_four_grid_instance():
    g = path(4)
    pg = cartesian_product(g, g)
    D = gamma_bb(pg.graph).witness
    t = build_trace(g, g, D, product=pg)
    assert D.members == (1, 7, 8, 14)
    assert t.Q.members == (0, 1, 2, 3)
    assert t.U == (0, 2)
    assert t.k == 2
    assert [p.members for p in t.P] == [(1, 3), (0, 2)]
    assert sorted(t.C) == [(0, 1), (0, 3), (1, 0), (1, 2)]
    assert t.Lsizes == (2, 2)
    assert t.Rsizes == (1, 1, 1, 1)
    v = verify_trace(t)
    assert v.all_passed
    eq1, eq2, final = (v.check(n) for n in ("check_eq1", "check_eq2", "check_final"))
    assert (eq1.lhs, eq1.rhs) == (4, 2)
    assert (eq2.lhs, eq2.rhs) == (4, 4)
    assert (final.lhs, final.rhs, final.rhs2) == (8, 6, 6)


def test_trace_gamma_values_stored():
    t = build_trace(cycle(5), path(3), VertexSet.full(15))
    assert t.gammaG == 2
    assert t.gammaH == 1


# ---------------------------------------------------------------------------
# Construction contracts
# ---------------------------------------------------------------------------


def test_trace_rejects_non_dominating_set():
    g, h = path(4), path(4)
    with pytest.raises(NotDominatingError):
        build_trace(g, h, VertexSet.from_members(16, [0]))


def test_trace_rejects_wrong_universe():
    with pytest.raises(BadVertexError):
        build_trace(path(4), path(4), VertexSet.from_members(4, [0]))


def test_trace_rejects_mismatched_product():
    pg = cartesian_product(path(3), path(3))
    with pytest.raises(BadParameterError):
        build_trace(path(4), path(4), VertexSet.full(16), product=pg)


def test_trace_refuses_the_product_of_other_factors_of_the_same_orders():
    # Dlo and D^o both have 5 vertices, so D^o x C4 has the size of
    # Dlo x C4.  Its minimum set D does not dominate Dlo x C4 (gamma 5),
    # yet a trace built on the wrong product would pass all ten checks.
    g, other, h = parse_graph6("Dlo"), parse_graph6("D^o"), cycle(4)
    foreign = cartesian_product(other, h)
    D = gamma_bb(foreign.graph).witness
    assert len(D) == 4
    assert not is_dominating(cartesian_product(g, h).graph, D)
    with pytest.raises(BadParameterError, match="not built from these factors"):
        build_trace(g, h, D, product=foreign)
    own = cartesian_product(g, h)
    t = build_trace(g, h, gamma_bb(own.graph).witness, product=own)
    assert len(t.D) == 5 and verify_trace(t).all_passed


def test_trace_gamma_hint_witness_is_verified():
    g, h = path(4), path(3)
    D = VertexSet.full(12)
    from domlab import DominationResult

    bad = DominationResult(2, VertexSet.from_members(4, [0, 1]))
    with pytest.raises(NotDominatingError):
        build_trace(g, h, D, gamma_g=bad)
    wrong_size = DominationResult(1, VertexSet.from_members(4, [0, 2]))
    with pytest.raises(BadParameterError):
        build_trace(g, h, D, gamma_g=wrong_size)


# ---------------------------------------------------------------------------
# Agreement with the naive reference, and the ten checks
# ---------------------------------------------------------------------------


def test_trace_objects_match_naive_recomputation():
    rng = random.Random(1618)
    for _ in range(60):
        g = random_graph(rng, max_n=6)
        h = random_graph(rng, max_n=6)
        pg = cartesian_product(g, h)
        D = random_minimal_dominating_set(rng, pg.graph)
        t = build_trace(g, h, D, product=pg)
        ref = recompute_from_U(g, h, set(D.members), t.U)

        assert set(t.Q.members) == ref["Q"]
        assert list(t.pi) == [ref["pi"][w] for w in range(g.n)]
        for i in range(t.k):
            assert product_ids_to_pairs(h.n, t.S[i]) == ref["S"][i]
            assert set(t.T[i].members) == ref["T"][i]
            assert product_ids_to_pairs(h.n, t.Dparts[i]) == ref["Dparts"][i]
            assert set(t.P[i].members) == ref["P"][i]
        for v in range(h.n):
            assert product_ids_to_pairs(h.n, t.Qv[v]) == {
                (u, v) for u in ref["Qv"][v]
            }
        assert set(t.C) == ref["C"]
        assert list(t.Lsizes) == ref["L"]
        assert list(t.Rsizes) == ref["R"]


def test_ten_checks_pass_on_random_valid_instances():
    rng = random.Random(906)
    for _ in range(150):
        g = random_graph(rng, max_n=8)
        h = random_graph(rng, max_n=8)
        pg = cartesian_product(g, h)
        D = random_minimal_dominating_set(rng, pg.graph)
        t = build_trace(g, h, D, product=pg)
        v = verify_trace(t)
        assert v.all_passed, [c.name for c in v.checks if not c.passed]
        assert tuple(c.name for c in v.checks) == CHECK_NAMES


def _corrupt(rng: random.Random, t, kind: str):
    """`t` with one object of the argument falsified, as `kind` names."""
    i = rng.randrange(t.k)
    if kind == "T_i emptied":
        return replace(t, T=t.T[:i] + (VertexSet(t.h.n),) + t.T[i + 1 :])
    if kind == "T_i full":
        return replace(t, T=t.T[:i] + (VertexSet.full(t.h.n),) + t.T[i + 1 :])
    if kind == "half of C dropped":
        cells = sorted(t.C)
        return replace(t, C=t.C - set(rng.sample(cells, len(cells) // 2)))
    if kind == "Lsizes - 2":
        return replace(t, Lsizes=tuple(x - 2 for x in t.Lsizes))
    if kind == "Rsizes + 2":
        return replace(t, Rsizes=tuple(x + 2 for x in t.Rsizes))
    if kind == "gammaH + 3":
        return replace(t, gammaH=t.gammaH + 3)
    if kind == "every P_i emptied":
        return replace(t, P=tuple(VertexSet(t.h.n) for _ in t.P))
    assert kind == "D emptied"
    return replace(t, D=VertexSet(t.D.universe))


CORRUPTIONS = (
    "T_i emptied",
    "T_i full",
    "half of C dropped",
    "Lsizes - 2",
    "Rsizes + 2",
    "gammaH + 3",
    "every P_i emptied",
    "D emptied",
)


def test_corrupted_traces_fail_their_checks_as_pinned():
    # Every check but check_Pdom, which verify_trace makes true by
    # construction, fails on some corrupted trace, and every check of every
    # verdict is pinned by digest, so a check that stops reporting a
    # violation (or reports it differently) moves the digest.
    rng = random.Random(2020)
    digest = hashlib.sha256()
    failed = set()
    for _ in range(400):
        g = random_graph(rng, max_n=5)
        h = random_graph(rng, max_n=5)
        pg = cartesian_product(g, h)
        D = random_minimal_dominating_set(rng, pg.graph)
        t = _corrupt(rng, build_trace(g, h, D, product=pg), rng.choice(CORRUPTIONS))
        for c in verify_trace(t).checks:
            digest.update(json.dumps(check_to_dict(c)).encode() + b"\n")
            if not c.passed:
                failed.add(c.name)
    assert failed == set(CHECK_NAMES) - {"check_Pdom"}
    assert digest.hexdigest() == (
        "45a99f9d7127ee2204b187513d20440d8058fe4af851aa075173fecc2213bed2"
    )


def test_checks_pass_with_non_minimal_dominating_sets():
    # The argument never needs D to be minimal; the whole vertex set works.
    for g, h in [(path(4), path(4)), (cycle(5), star(4)), (grid(2, 3), complete(2))]:
        pg = cartesian_product(g, h)
        t = build_trace(g, h, VertexSet.full(pg.graph.n), product=pg)
        assert verify_trace(t).all_passed


def test_verdict_statements_carry_numbers():
    t = build_trace(path(4), path(4), gamma_bb(grid(4, 4)).witness)
    v = verify_trace(t)
    for c in v.checks:
        assert isinstance(c.statement, str) and c.statement
    # Scalar inequalities substitute the computed numbers into the text.
    for c in (v.check(n) for n in ("check_eq1", "check_eq2", "check_final")):
        assert c.lhs is not None and c.rhs is not None
        assert f"{c.lhs} " in c.statement
    assert "4 >= 2" in v.check("check_eq1").statement
    assert "4 <= 4" in v.check("check_eq2").statement


# ---------------------------------------------------------------------------
# Contradiction scan
# ---------------------------------------------------------------------------


def test_contradiction_witness_empty_on_valid_traces():
    rng = random.Random(111)
    for _ in range(60):
        g = random_graph(rng, max_n=6)
        h = random_graph(rng, max_n=6)
        pg = cartesian_product(g, h)
        D = random_minimal_dominating_set(rng, pg.graph)
        t = build_trace(g, h, D, product=pg)
        for v in range(h.n):
            assert contradiction_witness(t, v) is None


def _trace_on_all_of_Q(t):
    """Trace t with U = Q in place of a minimum dominating subset of Q, and
    everything downstream of U recomputed naively."""
    g, h = t.g, t.h
    ref = recompute_from_U(g, h, set(t.D.members), t.Q.members)

    def on_product(pairs):
        return VertexSet.from_members(t.D.universe, {u * h.n + v for u, v in pairs})

    def on_h(vs):
        return VertexSet.from_members(h.n, vs)

    return replace(
        t,
        U=t.Q.members,
        k=len(t.Q),
        pi=tuple(ref["pi"][w] for w in range(g.n)),
        S=tuple(map(on_product, ref["S"])),
        T=tuple(map(on_h, ref["T"])),
        Dparts=tuple(map(on_product, ref["Dparts"])),
        P=tuple(map(on_h, ref["P"])),
        C=frozenset(ref["C"]),
        Lsizes=tuple(ref["L"]),
        Rsizes=tuple(ref["R"]),
    )


def test_contradiction_witness_finds_a_smaller_dominating_subset_of_Q():
    # With U = Q dominating but not minimum, the bound |R_v| <= |Q_v| rests
    # on nothing, and where it fails the scan must produce the smaller
    # dominating subset of Q that U's minimality would have ruled out.
    rng = random.Random(3)
    hits = 0
    for _ in range(8):
        g = random_graph(rng, max_n=5)
        h = random_graph(rng, max_n=5)
        D = random_minimal_dominating_set(rng, cartesian_product(g, h).graph)
        t = build_trace(g, h, D)
        if t.k == len(t.Q):
            continue  # Q is itself minimum
        t = _trace_on_all_of_Q(t)
        check_R = verify_trace(t).check("check_R")
        for v in range(h.n):
            w = contradiction_witness(t, v)
            if w is None:
                continue
            hits += 1
            assert any(x.startswith(f"v={v}:") for x in check_R.violations)
            assert is_dominating(g, w)
            assert w.issubset(t.Q)
            assert len(w) < len(t.U)
    assert hits == 14


def test_contradiction_witness_layer_bounds():
    t = build_trace(path(3), path(3), VertexSet.full(9))
    with pytest.raises(BadVertexError):
        contradiction_witness(t, 3)
    with pytest.raises(BadVertexError):
        contradiction_witness(t, -1)


# ---------------------------------------------------------------------------
# Remark path (minimal projection)
# ---------------------------------------------------------------------------


def test_remark_single_vertex_pair():
    rv = remark_trace(complete(1), complete(1), VertexSet.from_members(1, [0]))
    assert rv.all_passed
    assert len(rv.checks) == 13
    assert rv.check("check_remark_sum").lhs == 1
    assert rv.check("check_remark_product").rhs == 1
    conjecture = rv.check("check_remark_conjecture")
    assert conjecture.statement == "2|D| >= 2*gammaG*gammaH: 2 >= 2"


def test_remark_path_graph_with_single_vertex_factor():
    rv = remark_trace(path(3), complete(1), VertexSet.from_members(3, [1]))
    assert rv.all_passed
    statement = rv.check("check_remark_sum").statement
    assert statement == "|C| >= sum_i(gammaH - |P_i| + |D_i|): 1 >= 1"


def test_remark_verdict_is_the_ten_checks_then_its_three():
    g = h = star(6)
    rv = remark_trace(g, h, remark_search(g, h).found)
    assert rv.checks[:10] == verify_trace(rv.trace).checks
    assert tuple(c.name for c in rv.checks[10:]) == (
        "check_remark_sum",
        "check_remark_product",
        "check_remark_conjecture",
    )


def test_verdict_check_reads_a_check_by_name():
    t = build_trace(path(4), complete(1), VertexSet.from_members(4, [0, 2]))
    v = verify_trace(t)
    assert tuple(v.check(name) for name in CHECK_NAMES) == v.checks
    with pytest.raises(KeyError):
        v.check("nope")


def test_remark_rejects_non_minimal_projection():
    # The full 4x4 grid minimum set projects onto all of P4, which is not
    # minimal dominating, so the sharpened argument does not apply.
    g = path(4)
    D = gamma_bb(cartesian_product(g, g).graph).witness
    with pytest.raises(ProjectionNotMinimalError):
        remark_trace(g, g, D)


def test_remark_rejects_non_dominating_set():
    with pytest.raises(NotDominatingError):
        remark_trace(path(3), path(3), VertexSet.from_members(9, [0]))


def test_remark_chain_on_qualifying_random_instances():
    rng = random.Random(117)
    found = 0
    for _ in range(200):
        g = random_graph(rng, max_n=5)
        h = random_graph(rng, max_n=4)
        pg = cartesian_product(g, h)
        D = random_minimal_dominating_set(rng, pg.graph)
        from domlab import is_minimal_dominating

        if not is_minimal_dominating(g, project_onto_G(pg, D)):
            continue
        found += 1
        rv = remark_trace(g, h, D)
        assert rv.all_passed
        assert len(D) >= rv.trace.gammaG * rv.trace.gammaH
    assert found >= 10


def test_remark_verdicts_are_pinned(small_connected_corpus):
    # Every check of every remark verdict over the <= 5 corpus, pinned by
    # digest: 221 of the 496 pairs have a minimum set with minimal
    # projection.  On those the argument runs with U = Q.
    digest = hashlib.sha256()
    hits = 0
    for g, h in all_pairs(small_connected_corpus):
        found = remark_search(g, h).found
        if found is None:
            continue
        hits += 1
        rv = remark_trace(g, h, found)
        assert rv.trace.U == rv.trace.Q.members
        line = json.dumps([check_to_dict(c) for c in rv.checks])
        digest.update(line.encode() + b"\n")
    assert hits == 221
    assert digest.hexdigest() == (
        "8fecd380327103b65735c6997ac88fbae8d1a6ccb893d5639b00127799e4b9a2"
    )


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------


def test_check_to_dict_shape():
    t = build_trace(path(4), complete(1), VertexSet.from_members(4, [0, 2]))
    v = verify_trace(t)
    d = check_to_dict(v.check("check_final"))
    assert d["name"] == "check_final"
    assert d["passed"] is True
    assert d["lhs"] == 4


def test_format_check_text():
    t = build_trace(path(4), complete(1), VertexSet.from_members(4, [0, 2]))
    v = verify_trace(t)
    line = format_check(v.check("check_T"))
    assert line.startswith("check_T")
    assert "PASS" in line


def test_trace_report_shape():
    g, h = path(4), path(4)
    t = build_trace(g, h, VertexSet.full(16))
    v = verify_trace(t)
    rep = trace_report(t, v)
    assert rep["all_passed"] is True
    assert rep["k"] == t.k
    assert len(rep["checks"]) == 10
    assert rep["gammaG"] == 2 and rep["gammaH"] == 2


def test_trace_report_remark_shape():
    rv = remark_trace(path(3), complete(1), VertexSet.from_members(3, [1]))
    rep = trace_report(rv.trace, rv)
    assert rep["all_passed"] is True
    assert len(rep["checks"]) == 13
