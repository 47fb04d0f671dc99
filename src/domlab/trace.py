"""Mechanical verification of the product-domination counting argument.

Given graphs G, H and a dominating set D of the Cartesian product G x H,
this module instantiates every object the counting argument names and then
checks each of its inequalities on the concrete instance:

  Q        projection of D onto V(G); always dominates G.
  U        minimum dominating subset of Q, u_1 < ... < u_k, so k >= gamma(G).
  pi_i     blocks of a partition of V(G) with u_i in pi_i and pi_i inside N[u_i].
  S_i      D restricted to the column {u_i} x V(H); T_i its projection to H.
  D_i      D restricted to pi_i x V(H); P_i its projection to H.
  Q_v      D restricted to the layer V(G) x {v}.
  C        pairs (i, v) whose block-layer pi_i x {v} lies inside N[Q_v],
           taken in the product graph.
  L_i, R_v row and column counts of C, so |C| = sum |L_i| = sum |R_v|.

The ten checks, tested in one pass over the blocks and one over the layers:

  check_T           |T_i| >= 1 for every i
  check_Pdom        P_i together with V(H) - N_H[P_i] dominates H (by construction)
  check_Pineq       |V(H) - N_H[P_i]| >= gamma(H) - |P_i|
  check_disjoint    (V(H) - N_H[P_i]) and T_i are disjoint
  check_membership  v in (V(H) - N_H[P_i]) union T_i  implies  (i, v) in C
  check_L           |L_i| >= |V(H) - N_H[P_i]| + |T_i|
  check_eq1         |C| >= k*gamma(H) - |D| + k
  check_R           |R_v| <= |Q_v| for every v
  check_eq2         |C| <= |D|
  check_final       2|D| >= k*gamma(H) + k  and
                    2|D| >= gamma(G)*gamma(H) + max(gamma(G), gamma(H))

Chaining eq1 and eq2 gives 2|D| >= k*gamma(H) + k, and since k >= gamma(G)
this proves gamma(G x H) >= (gamma(G)*gamma(H) + gamma(G)) / 2 whenever the
caller orients the factors so gamma(G) >= gamma(H).  build_trace never swaps
factors itself; orientation is the caller's contract.

C membership is evaluated literally against closed neighborhoods in the
product graph, not through any shortcut, so a passing verdict really is a
line-by-line replay of the argument on this instance.

A verdict is its ordered checks: verify_trace returns the ten above in the
order listed, remark_trace the same ten followed by its three, and one check
is read with `verdict.check(name)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadParameterError,
    BadVertexError,
    NotDominatingError,
    ProjectionNotMinimalError,
)
from .graph6 import graph_name
from .graphs import (
    Graph,
    ProductGraph,
    VertexSet,
    _check_universe,
    _iter_bits,
    _project,
    _spread,
    cartesian_product,
    closed_neighborhood_set,
    is_dominating,
)
from .solver import (
    DominationResult,
    SolverLimits,
    gamma_bb,
    gamma_restricted,
    is_minimal_dominating,
)


@dataclass(frozen=True)
class ProofTrace:
    """Every named object of the counting argument, fully materialized.

    Index conventions: blocks are numbered 0..k-1 by position in the
    ascending list U; `pi[w]` is the block index of G-vertex w.  Members of
    D, S, Dparts and Qv are product-vertex ids (u * n_H + v).
    """

    g: Graph
    h: Graph
    D: VertexSet
    Q: VertexSet
    U: tuple[int, ...]
    k: int
    pi: tuple[int, ...]
    S: tuple[VertexSet, ...]
    T: tuple[VertexSet, ...]
    Dparts: tuple[VertexSet, ...]
    P: tuple[VertexSet, ...]
    Qv: tuple[VertexSet, ...]
    C: frozenset[tuple[int, int]]
    Lsizes: tuple[int, ...]
    Rsizes: tuple[int, ...]
    gammaG: int
    gammaH: int


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    `statement` is a human-readable rendering with the computed numbers
    substituted in.  Scalar inequalities also expose lhs/rhs (and rhs2 for
    the two-part final check); quantified checks list their violations.
    """

    name: str
    passed: bool
    statement: str
    lhs: int | None = None
    rhs: int | None = None
    rhs2: int | None = None
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class TraceVerdict:
    """The checks of one trace, in the order the argument makes them."""

    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        """The check called `name`; KeyError when there is none."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class RemarkVerdict(TraceVerdict):
    """Verdict for the minimal-projection special case.

    When the projection Q of D onto G is itself a minimal dominating set,
    the argument is rerun with U = Q, and the per-block counting sharpens to
    |C| >= sum_i (gamma(H) - |P_i| + |D_i|) >= gamma(G)*gamma(H), which
    forces |D| >= gamma(G)*gamma(H) through eq2.  Its checks are the ten of
    verify_trace followed by check_remark_sum, check_remark_product and
    check_remark_conjecture.  `trace` is D's build_trace trace, whose U is Q:
    a minimal dominating set has no smaller dominating subset.
    """

    trace: ProofTrace


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_partition(g: Graph, U: Sequence[int]) -> tuple[int, ...]:
    """Assign every vertex of g to a block of the U-indexed partition.

    Vertex w goes to the smallest block index i with w in N[u_i], except
    that each u_j claims itself for block j, which guarantees u_i in pi_i.
    Returns the block index per vertex.  Raises NotDominatingError when some
    vertex has no dominator in U.
    """
    U = list(U)
    if len(set(U)) != len(U):
        raise BadParameterError(f"U has repeated vertices: {U}")
    for u in U:
        if not 0 <= u < g.n:
            raise BadVertexError(f"vertex {u} outside 0..{g.n - 1}")
    position = {u: i for i, u in enumerate(U)}
    assignment = []
    for w in range(g.n):
        if w in position:
            assignment.append(position[w])
            continue
        for i, u in enumerate(U):
            if (g.closed[u] >> w) & 1:
                assignment.append(i)
                break
        else:
            raise NotDominatingError(f"vertex {w} has no dominator in U={U}")
    return tuple(assignment)


def project_onto_G(pg: ProductGraph, s: VertexSet) -> VertexSet:
    """First-factor vertices that own at least one member of s."""
    _check_universe(pg.graph, s)
    return VertexSet(pg.g.n, _project(s.mask, pg.h.n)[0])


def _resolve_gamma(
    graph: Graph, hint: DominationResult | None, limits: SolverLimits | None
) -> int:
    """Use a supplied gamma only after re-checking its witness."""
    if hint is None:
        return gamma_bb(graph, limits).gamma
    if not is_dominating(graph, hint.witness):
        raise NotDominatingError("gamma hint witness does not dominate its graph")
    if len(hint.witness) != hint.gamma:
        raise BadParameterError(
            f"gamma hint {hint.gamma} disagrees with its witness of size"
            f" {len(hint.witness)}"
        )
    return hint.gamma


def build_trace(
    g: Graph,
    h: Graph,
    D: VertexSet,
    gamma_g: DominationResult | None = None,
    gamma_h: DominationResult | None = None,
    limits: SolverLimits | None = None,
    product: ProductGraph | None = None,
) -> ProofTrace:
    """Materialize the counting argument for a dominating set D of g x h.

    U is the minimum dominating subset of the projection Q, computed with a
    lexicographic tie-break so traces are reproducible.  Factors are used
    exactly as given; callers wanting the sharp final bound must pass them
    with gamma(g) >= gamma(h).  Optional gamma hints must carry witnesses,
    which are re-checked before being trusted; anything else is recomputed.
    `product`, if given, must be `cartesian_product(g, h)` of these very factors.
    """
    pg = cartesian_product(g, h) if product is None else product
    if pg.g != g or pg.h != h:
        raise BadParameterError("supplied product was not built from these factors")
    if not is_dominating(pg.graph, D):
        raise NotDominatingError("D does not dominate the product graph")
    Q = project_onto_G(pg, D)
    U = gamma_restricted(g, Q, limits).witness.members
    gammaG = _resolve_gamma(g, gamma_g, limits)
    gammaH = _resolve_gamma(h, gamma_h, limits)

    n_h = h.n
    N = pg.graph.n
    k = len(U)
    pi = build_partition(g, U)

    block_masks = [0] * k
    for w, i in enumerate(pi):
        block_masks[i] |= 1 << w

    col0 = _spread(g.full_mask, n_h)
    block_spread = [_spread(bm, n_h) for bm in block_masks]

    dmask = D.mask
    S = []
    T = []
    Dparts = []
    P = []
    for i, u in enumerate(U):
        # {u_i} x V(H) and pi_i x V(H) as product masks.
        S.append(VertexSet(N, dmask & _spread(1 << u, n_h) * h.full_mask))
        T.append(VertexSet(n_h, _project(S[-1].mask, n_h)[1]))
        Dparts.append(VertexSet(N, dmask & block_spread[i] * h.full_mask))
        P.append(VertexSet(n_h, _project(Dparts[-1].mask, n_h)[1]))

    Qv = []
    C = set()
    Lsizes = [0] * k
    Rsizes = [0] * n_h
    for v in range(n_h):
        Qv.append(VertexSet(N, dmask & (col0 << v)))
        covered = closed_neighborhood_set(pg.graph, Qv[-1]).mask
        for i in range(k):
            layer = block_spread[i] << v
            if layer & ~covered == 0:
                C.add((i, v))
                Lsizes[i] += 1
                Rsizes[v] += 1

    return ProofTrace(
        g=g,
        h=h,
        D=D,
        Q=Q,
        U=U,
        k=k,
        pi=pi,
        S=tuple(S),
        T=tuple(T),
        Dparts=tuple(Dparts),
        P=tuple(P),
        Qv=tuple(Qv),
        C=frozenset(C),
        Lsizes=tuple(Lsizes),
        Rsizes=tuple(Rsizes),
        gammaG=gammaG,
        gammaH=gammaH,
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _quantified(name: str, statement: str, violations: list[str]) -> CheckResult:
    return CheckResult(
        name=name,
        passed=not violations,
        statement=statement,
        violations=tuple(violations),
    )


def _at_least(name: str, claim: str, lhs: int, rhs: int) -> CheckResult:
    """The scalar check `claim`, which reads lhs >= rhs."""
    return CheckResult(
        name=name,
        passed=lhs >= rhs,
        statement=f"{claim}: {lhs} >= {rhs}",
        lhs=lhs,
        rhs=rhs,
    )


def verify_trace(t: ProofTrace) -> TraceVerdict:
    """Evaluate the ten checks on a finished trace.

    One pass over the blocks derives V(H) - N_H[P_i] from P_i once a block,
    which makes check_Pdom hold by construction, and tests the six per-block
    claims on it; one pass over the layers tests check_R.  Pure inspection:
    gamma values stored in the trace are taken as given and nothing is
    re-solved.  Failures are reported in the verdict, never thrown.
    """
    h = t.h
    dsize = len(t.D)
    csize = len(t.C)
    v_T, v_Pdom, v_Pineq, v_disj, v_member, v_L = [], [], [], [], [], []
    for i, (T_i, P_i) in enumerate(zip(t.T, t.P)):
        # V(H) - N_H[P_i]: the vertices of H that P_i leaves undominated.
        rest = h.full_mask & ~closed_neighborhood_set(h, P_i).mask
        rest_size = rest.bit_count()
        if len(T_i) < 1:
            v_T.append(f"i={i}: |T_i|={len(T_i)}")
        if not is_dominating(h, VertexSet(h.n, P_i.mask | rest)):
            v_Pdom.append(f"i={i}: P_i with its non-dominated rest misses H")
        pineq_rhs = t.gammaH - len(P_i)
        if rest_size < pineq_rhs:
            v_Pineq.append(f"i={i}: {rest_size} < {pineq_rhs}")
        overlap = rest & T_i.mask
        if overlap:
            v_disj.append(f"i={i}: overlap {VertexSet(h.n, overlap).members}")
        for v in _iter_bits(rest | T_i.mask):
            if (i, v) not in t.C:
                v_member.append(f"(i={i}, v={v}) missing from C")
        L_rhs = rest_size + len(T_i)
        if t.Lsizes[i] < L_rhs:
            v_L.append(f"i={i}: {t.Lsizes[i]} < {L_rhs}")
    v_R = []
    for v in range(h.n):
        if t.Rsizes[v] > len(t.Qv[v]):
            v_R.append(f"v={v}: {t.Rsizes[v]} > {len(t.Qv[v])}")
    eq1_rhs = t.k * t.gammaH - dsize + t.k
    final_lhs = 2 * dsize
    final_rhs = t.k * t.gammaH + t.k
    final_rhs2 = t.gammaG * t.gammaH + max(t.gammaG, t.gammaH)
    return TraceVerdict((
        _quantified("check_T", "every |T_i| >= 1", v_T),
        _quantified("check_Pdom", "every P_i + (V(H) - N_H[P_i]) dominates H", v_Pdom),
        _quantified(
            "check_Pineq", "every |V(H) - N_H[P_i]| >= gammaH - |P_i|", v_Pineq
        ),
        _quantified(
            "check_disjoint", "every (V(H) - N_H[P_i]) is disjoint from T_i", v_disj
        ),
        _quantified(
            "check_membership",
            "v in (V(H) - N_H[P_i]) + T_i implies (i, v) in C",
            v_member,
        ),
        _quantified("check_L", "every |L_i| >= |V(H) - N_H[P_i]| + |T_i|", v_L),
        _at_least("check_eq1", "|C| >= k*gammaH - |D| + k", csize, eq1_rhs),
        _quantified("check_R", "every |R_v| <= |Q_v|", v_R),
        CheckResult(
            name="check_eq2",
            passed=csize <= dsize,
            statement=f"|C| <= |D|: {csize} <= {dsize}",
            lhs=csize,
            rhs=dsize,
        ),
        CheckResult(
            name="check_final",
            passed=final_lhs >= final_rhs and final_lhs >= final_rhs2,
            statement=(
                f"2|D| >= k*gammaH + k: {final_lhs} >= {final_rhs};"
                f" 2|D| >= gammaG*gammaH + max(gammaG, gammaH):"
                f" {final_lhs} >= {final_rhs2}"
            ),
            lhs=final_lhs,
            rhs=final_rhs,
            rhs2=final_rhs2,
        ),
    ))


def contradiction_witness(t: ProofTrace, v: int) -> VertexSet | None:
    """Diagnostic for the |R_v| <= |Q_v| claim at layer v.

    Builds U' = (projection of Q_v onto G) + {u_j : (j, v) not in C}.  U'
    always dominates G and sits inside Q; if |R_v| exceeded |Q_v| it would
    be a dominating subset of Q smaller than U, contradicting U's minimality.
    Returns U' only in that impossible case, so on every valid trace this
    returns None for every layer.
    """
    if not 0 <= v < t.h.n:
        raise BadVertexError(f"layer {v} outside 0..{t.h.n - 1}")
    if t.Rsizes[v] <= len(t.Qv[v]):
        return None
    mask = _project(t.Qv[v].mask, t.h.n)[0]
    for j, u in enumerate(t.U):
        if (j, v) not in t.C:
            mask |= 1 << u
    witness = VertexSet(t.g.n, mask)
    assert is_dominating(t.g, witness), "U' must dominate G"
    assert witness.issubset(t.Q), "U' must stay inside Q"
    assert len(witness) < t.k, "U' must be smaller than U"
    return witness


def remark_trace(
    g: Graph,
    h: Graph,
    D: VertexSet,
    limits: SolverLimits | None = None,
) -> RemarkVerdict:
    """Rerun the argument with U = Q for a minimal-projection dominating set.

    Requires D to dominate g x h and its projection onto g to be a minimal
    dominating set (ProjectionNotMinimalError otherwise, raised after the
    trace is built).  The trace is build_trace's: its U, the minimum
    dominating subset of Q, is then Q itself.  On top of the ten base
    checks, verifies the sharpened chain
    |C| >= sum_i (gammaH - |P_i| + |D_i|) >= gammaG*gammaH and the resulting
    2|D| >= 2*gammaG*gammaH.
    """
    trace = build_trace(g, h, D, limits=limits)
    if not is_minimal_dominating(g, trace.Q):
        raise ProjectionNotMinimalError(
            f"projection {trace.Q.members} is not a minimal dominating set"
        )
    sum_rhs = sum(
        trace.gammaH - len(P_i) + len(D_i) for P_i, D_i in zip(trace.P, trace.Dparts)
    )
    product_rhs = trace.gammaG * trace.gammaH
    sum_claim = "sum_i(gammaH - |P_i| + |D_i|)"
    remark_checks = (
        _at_least("check_remark_sum", f"|C| >= {sum_claim}", len(trace.C), sum_rhs),
        _at_least(
            "check_remark_product",
            f"{sum_claim} >= gammaG*gammaH",
            sum_rhs,
            product_rhs,
        ),
        _at_least(
            "check_remark_conjecture",
            "2|D| >= 2*gammaG*gammaH",
            2 * len(trace.D),
            2 * product_rhs,
        ),
    )
    return RemarkVerdict(verify_trace(trace).checks + remark_checks, trace)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def check_to_dict(c: CheckResult) -> dict:
    """CheckResult's fields in order, with the violations as a list."""
    # vars() keeps declaration order; `asdict` would deep-copy at ten times the cost.
    return {**vars(c), "violations": list(c.violations)}


def format_check(c: CheckResult) -> str:
    status = "PASS" if c.passed else "FAIL"
    line = f"{c.name:<18} {status}  {c.statement}"
    if c.violations:
        line += "".join(f"\n    {v}" for v in c.violations)
    return line


def trace_report(t: ProofTrace, verdict: TraceVerdict) -> dict:
    """Structured JSON-ready report: cardinalities plus per-check verdicts."""
    eq1 = verdict.check("check_eq1")
    eq2 = verdict.check("check_eq2")
    final = verdict.check("check_final")
    return {
        "g6_G": graph_name(t.g),
        "g6_H": graph_name(t.h),
        "n_G": t.g.n,
        "n_H": t.h.n,
        "gammaG": t.gammaG,
        "gammaH": t.gammaH,
        "D_size": len(t.D),
        "Q_size": len(t.Q),
        "k": t.k,
        "U": list(t.U),
        "block_sizes": [t.pi.count(i) for i in range(t.k)],
        "S_sizes": [len(s) for s in t.S],
        "T_sizes": [len(s) for s in t.T],
        "Dpart_sizes": [len(s) for s in t.Dparts],
        "P_sizes": [len(s) for s in t.P],
        "Qv_sizes": [len(s) for s in t.Qv],
        "C_size": len(t.C),
        "L_sizes": list(t.Lsizes),
        "R_sizes": list(t.Rsizes),
        "eq1": {"lhs": eq1.lhs, "rhs": eq1.rhs},
        "eq2": {"lhs": eq2.lhs, "rhs": eq2.rhs},
        "final": {"lhs": final.lhs, "rhs_chain": final.rhs, "rhs_bound": final.rhs2},
        "checks": [check_to_dict(c) for c in verdict.checks],
        "all_passed": verdict.all_passed,
    }
