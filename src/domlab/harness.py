"""Pair checking, corpus sweeps, small-graph enumeration, and reporting.

For each factor pair this computes the exact domination numbers, the known
lower bounds for the product, and a fully verified trace of the counting
argument on a solver-found minimum dominating set.  The bounds reported:

  bound_conjecture  gammaG * gammaH                      (open conjecture)
  bound_new         ceil((gammaG*gammaH + max(gG, gH)) / 2)
  bound_ST_half     ceil((gammaG*gammaH + min(gG, gH)) / 2)
  bound_ST_body     ceil(gammaG*gammaH / 2) + min(gG, gH)
  bound_CS          ceil(gammaG*gammaH / 2)

bound_ST_half is the form Suen and Tarr prove.  bound_ST_body is not a lower
bound: it exceeds gammaProduct on 19 of the 496 pairs of the sweep over
connected graphs on <= 5 vertices (K1 x K1 has gamma 1 and bound_ST_body 2).
It is kept only as a CSV column until the benchmark reference is
regenerated.  Ceilings are taken because domination numbers are integers.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadParameterError, TooLargeError
from .graph6 import encode_graph6
from .graphs import Graph, VertexSet, cartesian_product, make_graph
from .solver import (
    SolverLimits,
    enumerate_minimum_dominating_sets,
    gamma_bb,
    is_minimal_dominating,
)
from .trace import (
    TraceVerdict,
    build_trace,
    check_to_dict,
    project_onto_G,
    verify_trace,
)

CSV_COLUMNS = [
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


def _ceil_half(x: int) -> int:
    return -(-x // 2)


@dataclass(frozen=True)
class PairReport:
    """All computed facts about one factor pair.

    When a pair fails (budget, size guard, ...), `error` holds the message
    and every numeric field is None; sweeps record such rows and move on.
    """

    g6_G: str
    g6_H: str
    gammaG: int | None = None
    gammaH: int | None = None
    gammaProduct: int | None = None
    bound_conjecture: int | None = None
    bound_new: int | None = None
    bound_ST_half: int | None = None
    bound_ST_body: int | None = None
    bound_CS: int | None = None
    slack_new: int | None = None
    trace_ok: bool | None = None
    verdict: TraceVerdict | None = None
    error: str | None = None

    @property
    def violated(self) -> bool:
        """True when this pair falsifies a verified bound or its trace.

        Only the proven chain (bound_CS, bound_ST_half, bound_new) counts.
        bound_conjecture is open, and bound_ST_body is not a lower bound (the
        <= 5 sweep refutes it on 19 of 496 pairs), so neither participates.
        """
        if self.error is not None:
            return False
        assert self.gammaProduct is not None
        return (
            self.gammaProduct < self.bound_CS
            or self.gammaProduct < self.bound_ST_half
            or self.gammaProduct < self.bound_new
            or not self.trace_ok
        )


@dataclass(frozen=True)
class RemarkReport:
    """Outcome of searching minimum dominating sets for a minimal projection."""

    count_min_sets: int
    found: VertexSet | None
    truncated: bool
    gamma_product: int


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[PairReport, ...]
    violations: tuple[int, ...]  # indices into reports
    errors: tuple[int, ...]
    min_slack: int | None
    slack_counts: dict[int, int]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pair(g: Graph, h: Graph, limits: SolverLimits | None = None) -> PairReport:
    """Solve one pair exactly and verify the counting argument on it.

    Both domination numbers and the product's are exact.  The trace is built
    on the solver's minimum dominating set of the product, with the factors
    oriented so the first has the larger domination number (the orientation
    the final chain needs).  Reported bounds use max/min, so they do not
    depend on the orientation, and gammaProduct is orientation-free because
    the two orders give isomorphic products.
    """
    limits = limits or SolverLimits()
    rg = gamma_bb(g, limits)
    rh = gamma_bb(h, limits)
    if rg.gamma >= rh.gamma:
        a, b, ra, rb = g, h, rg, rh
    else:
        a, b, ra, rb = h, g, rh, rg
    pg = cartesian_product(a, b)
    rprod = gamma_bb(pg.graph, limits)
    tr = build_trace(
        a, b, rprod.witness, gamma_g=ra, gamma_h=rb, limits=limits, product=pg
    )
    verdict = verify_trace(tr)
    # check_R fails exactly when some layer has a contradiction witness.
    trace_ok = verdict.all_passed

    gg, gh = rg.gamma, rh.gamma
    prod_term = gg * gh
    hi, lo = max(gg, gh), min(gg, gh)
    bound_new = _ceil_half(prod_term + hi)
    return PairReport(
        g6_G=encode_graph6(g),
        g6_H=encode_graph6(h),
        gammaG=gg,
        gammaH=gh,
        gammaProduct=rprod.gamma,
        bound_conjecture=prod_term,
        bound_new=bound_new,
        bound_ST_half=_ceil_half(prod_term + lo),
        bound_ST_body=_ceil_half(prod_term) + lo,
        bound_CS=_ceil_half(prod_term),
        slack_new=rprod.gamma - bound_new,
        trace_ok=trace_ok,
        verdict=verdict,
    )


def _checked_pair(args: tuple[Graph, Graph, SolverLimits]) -> PairReport:
    g, h, limits = args
    try:
        return check_pair(g, h, limits)
    except Exception as exc:
        # One failed pair, even RecursionError or MemoryError, becomes an
        # error row; the rest of the sweep goes on.
        return PairReport(
            g6_G=encode_graph6(g) if g.n <= 62 else f"<n={g.n}>",
            g6_H=encode_graph6(h) if h.n <= 62 else f"<n={h.n}>",
            error=f"{type(exc).__name__}: {exc}",
        )


def all_pairs(graphs: Sequence[Graph]) -> list[tuple[Graph, Graph]]:
    """Unordered pairs including the diagonal, in input order."""
    return [
        (graphs[i], graphs[j])
        for i in range(len(graphs))
        for j in range(i, len(graphs))
    ]


def zip_pairs(graphs: Sequence[Graph]) -> list[tuple[Graph, Graph]]:
    """Consecutive pairs of an already-paired stream: (g0, g1), (g2, g3), ..."""
    if len(graphs) % 2 != 0:
        raise BadParameterError(
            f"paired mode needs an even number of graphs, got {len(graphs)}"
        )
    return [(graphs[i], graphs[i + 1]) for i in range(0, len(graphs), 2)]


def sweep(
    pairs: Iterable[tuple[Graph, Graph]],
    limits: SolverLimits | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Run check_pair over many pairs, recording per-pair errors.

    Output order always matches input order; `jobs` is capped at the CPU count.
    """
    limits = limits or SolverLimits()
    jobs = min(jobs, os.cpu_count() or 1)
    work = [(g, h, limits) for g, h in pairs]
    if jobs <= 1:
        reports = [_checked_pair(w) for w in work]
    else:
        # Resolved on use: concurrent.futures loads the process pool, and
        # with it multiprocessing, on first access, so serial sweeps and the
        # other commands never pay for that import.
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_checked_pair, work))
    violations = tuple(i for i, r in enumerate(reports) if r.violated)
    errors = tuple(i for i, r in enumerate(reports) if r.error is not None)
    slacks = [r.slack_new for r in reports if r.slack_new is not None]
    counts: dict[int, int] = {}
    for s in sorted(slacks):
        counts[s] = counts.get(s, 0) + 1
    return SweepResult(
        reports=tuple(reports),
        violations=violations,
        errors=errors,
        min_slack=min(slacks) if slacks else None,
        slack_counts=counts,
    )


# ---------------------------------------------------------------------------
# Connected-graph enumeration (n <= 6, brute-force canonical orbits)
# ---------------------------------------------------------------------------


def _mask_connected(mask: int, pairs: list[tuple[int, int]], n: int) -> bool:
    rows = [0] * n
    m = mask
    while m:
        bit = m & -m
        i, j = pairs[bit.bit_length() - 1]
        m ^= bit
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    visited = 1
    frontier = 1
    while frontier:
        step = 0
        f = frontier
        while f:
            b = f & -f
            step |= rows[b.bit_length() - 1]
            f ^= b
        frontier = step & ~visited
        visited |= frontier
    return visited == (1 << n) - 1


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Classes are deduplicated exhaustively: each newly seen connected edge
    mask has its entire orbit under all n! vertex permutations marked, so
    the representative kept is exactly the orbit's smallest edge mask.
    Guarded to n <= 6 (class counts 1, 1, 2, 6, 21, 112).
    """
    if n < 1:
        raise BadParameterError(f"need n >= 1, got {n}")
    if n > 6:
        raise TooLargeError(f"connected-graph enumeration is guarded to n <= 6, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: e for e, pair in enumerate(pairs)}
    # Edge-index permutation table per vertex permutation.
    tables = []
    for p in itertools.permutations(range(n)):
        tables.append(
            [index[tuple(sorted((p[i], p[j])))] for i, j in pairs]
        )
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        if not _mask_connected(mask, pairs, n):
            continue
        reps.append(mask)
        for table in tables:
            pm = 0
            m = mask
            while m:
                bit = m & -m
                pm |= 1 << table[bit.bit_length() - 1]
                m ^= bit
            seen[pm] = 1
    return [
        make_graph(n, [pairs[e] for e in range(len(pairs)) if (mask >> e) & 1])
        for mask in reps
    ]


def remark_search(
    g: Graph,
    h: Graph,
    cap: int = 100_000,
    limits: SolverLimits | None = None,
) -> RemarkReport:
    """Look for a minimum dominating set of g x h with minimal g-projection.

    Walks every minimum dominating set of the product in lexicographic order
    and returns the first whose projection onto g is a minimal dominating
    set.  `count_min_sets` is the number examined; `truncated` reports
    whether the enumeration hit `cap` before being exhausted.
    """
    pg = cartesian_product(g, h)
    enum = enumerate_minimum_dominating_sets(pg.graph, cap, limits=limits)
    examined = 0
    for d in enum.sets:
        examined += 1
        if is_minimal_dominating(g, project_onto_G(pg, d)):
            return RemarkReport(
                count_min_sets=examined,
                found=d,
                truncated=False,
                gamma_product=enum.gamma,
            )
    return RemarkReport(
        count_min_sets=examined,
        found=None,
        truncated=enum.truncated,
        gamma_product=enum.gamma,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def pair_report_row(r: PairReport) -> list[str]:
    """CSV row in CSV_COLUMNS order; errored pairs leave numeric cells blank."""

    def cell(x) -> str:
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        return str(x)

    return [
        r.g6_G,
        r.g6_H,
        cell(r.gammaG),
        cell(r.gammaH),
        cell(r.gammaProduct),
        cell(r.bound_CS),
        cell(r.bound_ST_half),
        cell(r.bound_ST_body),
        cell(r.bound_new),
        cell(r.slack_new),
        cell(r.trace_ok),
    ]


def pair_report_dict(r: PairReport, with_verdict: bool = False) -> dict:
    """JSON-ready dict; verdict checks are embedded when requested."""
    out = {
        "g6_G": r.g6_G,
        "g6_H": r.g6_H,
        "gammaG": r.gammaG,
        "gammaH": r.gammaH,
        "gammaProduct": r.gammaProduct,
        "bound_conjecture": r.bound_conjecture,
        "bound_CS": r.bound_CS,
        "bound_ST_half": r.bound_ST_half,
        "bound_ST_body": r.bound_ST_body,
        "bound_new": r.bound_new,
        "slack_new": r.slack_new,
        "trace_ok": r.trace_ok,
        "error": r.error,
    }
    if with_verdict and r.verdict is not None:
        out["trace_checks"] = [check_to_dict(c) for c in r.verdict.checks]
        out["trace_all_passed"] = r.verdict.all_passed
    return out
