"""Pair checking, corpus sweeps, small-graph enumeration, and reporting.

For each factor pair this computes the exact domination numbers, the known
lower bounds for the product, and a fully verified trace of the counting
argument on a solver-found minimum dominating set.  The bounds reported:

  bound_conjecture  gammaG * gammaH                      (open conjecture)
  bound_CS          ceil(gammaG*gammaH / 2)
  bound_ST_half     ceil((gammaG*gammaH + min(gG, gH)) / 2)
  bound_ST_body     ceil(gammaG*gammaH / 2) + min(gG, gH)
  bound_new         ceil((gammaG*gammaH + max(gG, gH)) / 2)

bound_CS, bound_ST_half (the form Suen and Tarr prove) and bound_new are
proven.  bound_ST_body is not a lower bound: it exceeds gammaProduct on 19 of
the 496 pairs of the sweep over connected graphs on <= 5 vertices (K1 x K1
has gamma 1 and bound_ST_body 2).  It stays a CSV column, a JSONL key and a
human field until the benchmark reference is regenerated.  Ceilings are taken
because domination numbers are integers.

A sweep solves each product with a floor: the larger of gamma(G x K_|H|)
and gamma(K_|G| x H), exact domination numbers of two other products.  H
is a spanning subgraph of K_|H|, so a dominating set of G x H dominates
G x K_|H| too, and each is at most gamma(G x H).  gamma(G x K_m) is the
m-rainbow domination number of G (Bresar, Henning and Rall, Taiwanese J.
Math. 2008) and depends only on G and m, so one solve per (graph, order)
serves every pair, cached for the process.  The floor lets the product's
search skip its proof call (see `solver`), which leaves every report as
`check_pair` alone gives it.  It reads no factor's gamma, no bound and no
report, so the check stays non-circular: each side is the exact gamma of
another product, found by its own complete search (for |H| = 1 that
product is G x K_1, G itself).

A report's schema is `PairReport`'s field order.  A JSONL record is every
field but the verdict, in order; a CSV row also drops bound_conjecture and
error, and heads gammaProduct `gammaProd`.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

from .errors import BadParameterError, DomLabError, TooLargeError
from .graph6 import graph_name
from .graphs import (
    Graph,
    ProductGraph,
    VertexSet,
    _project,
    _spread,
    cartesian_product,
    complete,
    make_graph,
    vertex_orbits,
)
from .solver import (
    DominationResult,
    SolverLimits,
    Symmetry,
    _solve,
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

# Minimum dominating sets `remark_search` examines before it gives up.
DEFAULT_REMARK_CAP = 100_000


def _ceil_half(x: int) -> int:
    return -(-x // 2)


@dataclass(frozen=True)
class PairReport:
    """All computed facts about one factor pair, in report order.

    When a pair fails (budget, size guard, ...), `error` holds the message
    and every numeric field is None; sweeps record such rows and move on.
    """

    g6_G: str
    g6_H: str
    gammaG: int | None = None
    gammaH: int | None = None
    gammaProduct: int | None = None
    bound_conjecture: int | None = None
    bound_CS: int | None = None
    bound_ST_half: int | None = None
    bound_ST_body: int | None = None
    bound_new: int | None = None
    slack_new: int | None = None
    trace_ok: bool | None = None
    error: str | None = None
    verdict: TraceVerdict | None = None

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
    slack_counts: dict[int, int]  # pairs per slack_new, by increasing slack

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pair(
    g: Graph, h: Graph, limits: SolverLimits | None = None, *, floor: int = 0
) -> PairReport:
    """Solve one pair exactly and verify the counting argument on it.

    Both domination numbers and the product's are exact.  The trace is built
    on the minimum set `solve_product` finds: the counting argument holds
    for every dominating set D, and with |D| = gamma its chain bounds
    gammaProduct itself, so any minimum set checks the theorem (only |C| and
    k depend on which).  The factors are oriented so the first has the
    larger domination number, as the final chain needs.  Reported bounds use
    max/min, so they do not depend on the orientation, and gammaProduct is
    orientation-free because the two orders give isomorphic products.  A
    factor past graph6's 62 vertices is named `<n=N>`.  `floor`, a proven
    lower bound on gammaProduct, goes to `solve_product` (`sweep` passes
    one; see the module docstring).
    """
    limits = limits or SolverLimits()
    rg = gamma_bb(g, limits)
    rh = gamma_bb(h, limits)
    if rg.gamma >= rh.gamma:
        a, b, ra, rb = g, h, rg, rh
    else:
        a, b, ra, rb = h, g, rh, rg
    pg = cartesian_product(a, b)
    rprod = solve_product(pg, limits, floor=floor)
    tr = build_trace(
        a, b, rprod.witness, gamma_g=ra, gamma_h=rb, limits=limits, product=pg
    )
    verdict = verify_trace(tr)

    gg, gh = rg.gamma, rh.gamma
    prod_term = gg * gh
    hi, lo = max(gg, gh), min(gg, gh)
    bound_new = _ceil_half(prod_term + hi)
    return PairReport(
        g6_G=graph_name(g),
        g6_H=graph_name(h),
        gammaG=gg,
        gammaH=gh,
        gammaProduct=rprod.gamma,
        bound_conjecture=prod_term,
        bound_CS=_ceil_half(prod_term),
        bound_ST_half=_ceil_half(prod_term + lo),
        bound_ST_body=_ceil_half(prod_term) + lo,
        bound_new=bound_new,
        slack_new=rprod.gamma - bound_new,
        trace_ok=verdict.all_passed,
        verdict=verdict,
    )


def solve_product(
    pg: ProductGraph, limits: SolverLimits | None = None, *, floor: int = 0
) -> DominationResult:
    """The product's gamma and the minimum set that its traces replay: the
    search's own set (no lexmin pass), found by branching on the orbit
    classes of `_product_classes`, which change the set, never gamma.  A
    `floor` skips the proof call and changes neither (see `solver`)."""
    symmetry = _product_classes(pg.g, pg.h)
    return gamma_bb(pg.graph, limits, lexmin=False, symmetry=symmetry, floor=floor)


# 858 entries serve the <= 6 corpus, 6,972 the <= 7 one.
@functools.lru_cache(maxsize=8192)
def _complete_floor(g: Graph, m: int, node_budget: int) -> int:
    """gamma(g x K_m), a lower bound on gamma(g x H) for every H on m
    vertices (module docstring), or 0 when its solve raises a DomLabError
    (budget or size guard).  The engine's own search, with the product's
    symmetry and no witness pass; it calls `_solve` rather than `gamma_bb`,
    so the factor and product solves stay the three `gamma_bb` calls of
    each pair."""
    try:
        pg = cartesian_product(g, complete(m))
        symmetry = _product_classes(pg.g, pg.h)
        result = _solve(
            pg.graph, pg.graph.full_mask, node_budget, lexmin=False, symmetry=symmetry
        )
    except DomLabError:
        return 0
    return result.gamma


def _pair_floor(g: Graph, h: Graph, limits: SolverLimits) -> int:
    """The floor a sweep passes to `check_pair` for the pair (g, h)."""
    budget = limits.node_budget
    return max(_complete_floor(g, h.n, budget), _complete_floor(h, g.n, budget))


def _product_classes(a: Graph, b: Graph) -> Symmetry:
    """The symmetry input of the search on a x b (see `solver`).  At a node
    whose picks have a-coordinates U and b-coordinates V, the group
    Stab_Aut(a)(U) x Stab_Aut(b)(V) fixes every pick, and the class of
    (x, y) is its orbit O_U(x) x O_V(y).  At the root, when a and b are the
    same graph, the coordinates may also trade places, and the class is
    joined with the swapped O(y) x O(x)."""
    n_b = b.n
    table_a = _orbit_table(a)
    table_b = _orbit_table(b)
    swap = a.adj == b.adj
    points_a = tuple([1 << x for x in range(a.n)])
    points_b = tuple([1 << y for y in range(n_b)])

    def classes(picks: int) -> Callable[[int], int] | None:
        us, vs = _project(picks, n_b)
        oa = _stabilizer_orbits(a, table_a, us)
        ob = _stabilizer_orbits(b, table_b, vs)
        root_swap = swap and not us
        if not (oa or ob or root_swap):
            return None  # every class is one vertex
        oa = oa or points_a
        ob = ob or points_b

        def cls(c: int) -> int:
            u, v = divmod(c, n_b)
            out = _spread(oa[u], n_b) * ob[v]
            if root_swap:
                out |= _spread(oa[v], n_b) * ob[u]
            return out

        return cls

    return classes


@functools.lru_cache(maxsize=1024)
def _orbit_table(g: Graph) -> dict[int, tuple[int, ...]]:
    # Stabilizer orbits of g by fixed-vertex mask, filled on use.  Sweeps meet
    # the same factors again and again: with a fresh table per pair, checking
    # pairs of 6-vertex graphs took ~1.7 times as long.  The cache holds all
    # 996 connected graphs on <= 7 vertices.
    return {}


def _stabilizer_orbits(
    g: Graph, table: dict[int, tuple[int, ...]], fixed: int
) -> tuple[int, ...]:
    """Each vertex's orbit mask under the automorphisms of g that fix
    `fixed`, or () when every orbit is a single vertex."""
    orbits = table.get(fixed)
    if orbits is None:
        # Fixing more vertices only splits orbits, so a superset of a set
        # that leaves every vertex alone does too.  The search asks at a
        # node after its parent, whose fixed set lacks at most one vertex.
        m = fixed
        while m:
            bit = m & -m
            m ^= bit
            if table.get(fixed ^ bit) == ():
                orbits = ()
                break
        else:
            masks = [cls.mask for cls in vertex_orbits(g, VertexSet(g.n, fixed))]
            orbits = () if len(set(masks)) == g.n else tuple(masks)
        table[fixed] = orbits
    return orbits


def _checked_pair(args: tuple[Graph, Graph, SolverLimits, int]) -> PairReport:
    g, h, limits, floor = args
    try:
        return check_pair(g, h, limits, floor=floor)
    except Exception as exc:
        # One failed pair, even RecursionError or MemoryError, becomes an
        # error row; the rest of the sweep goes on.
        return PairReport(
            g6_G=graph_name(g),
            g6_H=graph_name(h),
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

    Each pair's product is solved with the floor max(gamma(G x K_|H|),
    gamma(K_|G| x H)) (module docstring).  Floors are computed in this
    process before the first pair is checked, never in a worker, and each
    side is cached per (graph, order, node budget); a side whose solve
    fails is 0.  The floor skips only the product's proof call, so every
    report is the one `check_pair` gives alone, except that a pair whose
    proof call would have run out of nodes may now finish.
    Output order always matches input order; `jobs` is capped at the CPU
    count.  BadParameterError when `jobs` is less than 1.
    """
    if jobs < 1:
        raise BadParameterError(f"jobs must be at least 1, got {jobs}")
    limits = limits or SolverLimits()
    jobs = min(jobs, os.cpu_count() or 1)
    work = [(g, h, limits, _pair_floor(g, h, limits)) for g, h in pairs]
    if jobs <= 1:
        reports = [_checked_pair(w) for w in work]
    else:
        # Imported on use, like the process pool and multiprocessing that it
        # loads on first access: serial sweeps and the other commands need
        # none of them (the import alone holds about 0.5 MB).
        import concurrent.futures

        # A few chunks per worker: with one pair per round trip, the sweep
        # of the <= 6 corpus took 10.4 s at jobs=2 against 7.3 s (two cores).
        chunk = max(1, len(work) // (4 * jobs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_checked_pair, work, chunksize=chunk))
    violations = tuple(i for i, r in enumerate(reports) if r.violated)
    errors = tuple(i for i, r in enumerate(reports) if r.error is not None)
    slacks = Counter(r.slack_new for r in reports if r.slack_new is not None)
    return SweepResult(
        reports=tuple(reports),
        violations=violations,
        errors=errors,
        min_slack=min(slacks, default=None),
        slack_counts=dict(sorted(slacks.items())),
    )


# ---------------------------------------------------------------------------
# Connected-graph enumeration (n <= 7, orbits closed under two generators of S_n)
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


def _chunk_tables(
    p: tuple[int, ...], pairs: list[tuple[int, int]]
) -> tuple[list[int], ...]:
    """The action of vertex permutation p on edge masks, as three tables:
    the image of mask m is t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16]."""
    index = {pair: e for e, pair in enumerate(pairs)}
    image = [1 << index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
    tables = []
    for lo in (0, 8, 16):
        table = [0]
        for b in image[lo:lo + 8]:  # table[x | 1 << k] = table[x] | image of bit k
            table += [t | b for t in table]
        tables.append(table)
    return tuple(tables)


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Edge masks are scanned in ascending order.  The first one not yet marked
    starts a new class: its whole orbit under vertex permutations is marked
    by a breadth-first closure under the transposition (0 1) and the
    rotation i -> i+1 mod n, which generate S_n.  The orbit's first mask is
    its least, so the representative kept is exactly the orbit's smallest
    edge mask; connectivity is tested on it alone.  Guarded to n <= 7 (class
    counts 1, 1, 2, 6, 21, 112, 853), where the mark array is 2 MB; n = 8
    would need 256 MB.
    """
    if n < 1:
        raise BadParameterError(f"need n >= 1, got {n}")
    if n > 7:
        raise TooLargeError(f"connected-graph enumeration is guarded to n <= 7, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    swap = (1, 0, *range(2, n))
    rotate = tuple((i + 1) % n for i in range(n))
    # At n = 2 the rotation is the swap, and n = 1 needs no generator.
    gens = [_chunk_tables(p, pairs) for p in (swap, rotate)[: min(n - 1, 2)]]
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        seen[mask] = 1
        orbit = [mask]
        for m in orbit:  # grows as the closure runs
            lo, mid, hi = m & 255, m >> 8 & 255, m >> 16
            for t0, t1, t2 in gens:
                pm = t0[lo] | t1[mid] | t2[hi]
                if not seen[pm]:
                    seen[pm] = 1
                    orbit.append(pm)
        if _mask_connected(mask, pairs, n):
            reps.append(mask)
    return [
        make_graph(n, [pairs[e] for e in range(len(pairs)) if (mask >> e) & 1])
        for mask in reps
    ]


def remark_search(
    g: Graph,
    h: Graph,
    cap: int = DEFAULT_REMARK_CAP,
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


# Read once at import: `fields()` per report would cost half a row again.
_JSONL_FIELDS = tuple(f.name for f in fields(PairReport) if f.name != "verdict")
_CSV_FIELDS = tuple(f for f in _JSONL_FIELDS if f not in ("bound_conjecture", "error"))
CSV_COLUMNS = ["gammaProd" if f == "gammaProduct" else f for f in _CSV_FIELDS]


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else str(x)


def pair_report_row(r: PairReport) -> list[str]:
    """CSV row in CSV_COLUMNS order; errored pairs leave numeric cells blank."""
    return [_cell(getattr(r, f)) for f in _CSV_FIELDS]


def pair_report_dict(r: PairReport, with_verdict: bool = False) -> dict:
    """Every field but the verdict; with_verdict adds its checks, null on an error row."""
    out = {f: getattr(r, f) for f in _JSONL_FIELDS}
    if with_verdict:
        v = r.verdict
        out["trace_checks"] = None if v is None else [check_to_dict(c) for c in v.checks]
        out["trace_all_passed"] = None if v is None else v.all_passed
    return out
