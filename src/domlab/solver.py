"""Exact domination-number computation.

Two independent routes are provided on purpose.  `gamma_oracle` enumerates
vertex subsets by increasing size and is obviously correct but guarded to
small graphs.  `gamma_bb` is a branch-and-bound search that must agree with
the oracle wherever both run; the test suite holds it to that.

Branch-and-bound design:
  * branch on the uncovered vertex with the fewest eligible dominators;
  * children are eligible dominators, ordered by descending fresh coverage
    with index as the tie-break;
  * a child already explored is removed from the eligible set of its later
    siblings (every solution containing it was covered by its own subtree);
  * lower bound: greedy packing of uncovered vertices whose eligible
    dominator sets are pairwise disjoint;
  * initial upper bound: greedy maximum-coverage dominating set.

Witnesses are always the lexicographically smallest minimum solution, so
every caller sees one reproducible answer.  The lexicographic witness is
extracted after the minimum size is known, by fixing vertices in ascending
order and keeping each one whose fixation still admits a completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BadParameterError,
    BudgetExhaustedError,
    NotDominatingError,
    TooLargeError,
)
from .graphs import Graph, VertexSet, _check_universe, is_dominating

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_ORACLE_GUARD = 16
DEFAULT_COMBINATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class DominationResult:
    """Exact domination number plus one dominating set that attains it."""

    gamma: int
    witness: VertexSet


@dataclass(frozen=True)
class SolverLimits:
    """Resource limits for the branch-and-bound solver.

    `node_budget` caps the number of search nodes across one public call.
    """

    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.node_budget <= 0:
            raise BadParameterError(
                f"node_budget must be positive, got {self.node_budget}"
            )


def _greedy_cover(closed: tuple[int, ...], full: int, allowed: int) -> list[int] | None:
    """Max-coverage greedy dominating set from `allowed`, or None if impossible."""
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best_v = -1
        best_gain = 0
        m = allowed
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            gain = (closed[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        if best_gain == 0:
            return None
        chosen.append(best_v)
        covered |= closed[best_v]
    return chosen


def _packing_bound(closed: tuple[int, ...], full: int, covered: int, allowed: int) -> int | None:
    """Lower bound on how many further vertices any completion needs.

    Greedily packs uncovered vertices whose eligible dominator sets are
    pairwise disjoint; each packed vertex forces one distinct pick.  Returns
    None when some uncovered vertex has no eligible dominator at all.
    """
    count = 0
    used = 0
    m = full & ~covered
    while m:
        bit = m & -m
        w = bit.bit_length() - 1
        m ^= bit
        dom = closed[w] & allowed
        if dom == 0:
            return None
        if dom & used == 0:
            used |= dom
            count += 1
    return count


class _BranchAndBound:
    """One search context: shared node budget, best solution so far."""

    __slots__ = ("closed", "full", "budget", "nodes", "best_size", "best_mask")

    def __init__(self, g: Graph, node_budget: int):
        self.closed = g.closed
        self.full = g.full_mask
        self.budget = node_budget
        self.nodes = 0
        self.best_size = 0
        self.best_mask = 0

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhaustedError(
                f"node budget {self.budget} exhausted",
                upper_bound=self.best_size,
                witness=self.best_mask,
            )

    def _branch_vertex(self, covered: int, allowed: int) -> int:
        # Uncovered vertex with the fewest eligible dominators, lowest id wins ties.
        best_v = -1
        best_count = 1 << 30
        m = self.full & ~covered
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            c = (self.closed[v] & allowed).bit_count()
            if c < best_count:
                best_count = c
                best_v = v
        return best_v

    def _children(self, w: int, covered: int, allowed: int) -> list[int]:
        cands = []
        m = self.closed[w] & allowed
        while m:
            bit = m & -m
            c = bit.bit_length() - 1
            m ^= bit
            cands.append(c)
        cands.sort(key=lambda c: (-(self.closed[c] & ~covered).bit_count(), c))
        return cands

    def minimize(self, allowed: int) -> int:
        """Exact minimum dominating-set size over the `allowed` candidates."""
        greedy = _greedy_cover(self.closed, self.full, allowed)
        if greedy is None:
            raise NotDominatingError("candidate set does not dominate the graph")
        self.best_size = len(greedy)
        mask = 0
        for v in greedy:
            mask |= 1 << v
        self.best_mask = mask
        self._minimize_from(0, 0, allowed, [])
        return self.best_size

    def _minimize_from(self, count: int, covered: int, allowed: int, chosen: list[int]) -> None:
        self._tick()
        if covered == self.full:
            if count < self.best_size:
                self.best_size = count
                mask = 0
                for v in chosen:
                    mask |= 1 << v
                self.best_mask = mask
            return
        bound = _packing_bound(self.closed, self.full, covered, allowed)
        if bound is None or count + bound >= self.best_size:
            return
        w = self._branch_vertex(covered, allowed)
        for c in self._children(w, covered, allowed):
            allowed &= ~(1 << c)
            chosen.append(c)
            self._minimize_from(count + 1, covered | self.closed[c], allowed, chosen)
            chosen.pop()

    def feasible(self, covered: int, allowed: int, slots: int) -> bool:
        """Can `slots` further picks from `allowed` finish covering the graph?"""
        self._tick()
        if covered == self.full:
            return True
        if slots == 0:
            return False
        bound = _packing_bound(self.closed, self.full, covered, allowed)
        if bound is None or bound > slots:
            return False
        w = self._branch_vertex(covered, allowed)
        for c in self._children(w, covered, allowed):
            allowed &= ~(1 << c)
            if self.feasible(covered | self.closed[c], allowed, slots - 1):
                return True
        return False

    def lexmin_witness(self, gamma: int, candidates: int) -> int:
        """Lexicographically smallest dominating set of size `gamma`.

        Scans candidate vertices in ascending order; a vertex joins the
        witness exactly when fixing it still leaves a feasible completion
        among the strictly larger candidates.
        """
        covered = 0
        remaining = candidates
        mask = 0
        slots = gamma
        while slots:
            # gamma is exact, so a feasible completion always exists and the
            # candidate pool cannot run dry before every slot is filled.
            assert remaining, "no candidates left with slots unfilled"
            bit = remaining & -remaining
            v = bit.bit_length() - 1
            remaining ^= bit
            if self.feasible(covered | self.closed[v], remaining, slots - 1):
                mask |= bit
                covered |= self.closed[v]
                slots -= 1
        return mask


def _solve(g: Graph, candidates: int, node_budget: int) -> DominationResult:
    engine = _BranchAndBound(g, node_budget)
    try:
        gamma = engine.minimize(candidates)
        witness = engine.lexmin_witness(gamma, candidates)
    except BudgetExhaustedError as exc:
        # Re-raise with the best-so-far witness in public VertexSet form.
        raise BudgetExhaustedError(
            str(exc),
            upper_bound=exc.upper_bound,
            witness=VertexSet(g.n, exc.witness) if exc.witness else None,
        ) from None
    return DominationResult(gamma, VertexSet(g.n, witness))


def gamma_oracle(g: Graph, guard: int = DEFAULT_ORACLE_GUARD) -> DominationResult:
    """Reference solver: try every vertex subset by increasing size.

    The witness is the lexicographically first minimum dominating set, which
    `itertools.combinations` yields for free.  Refuses graphs with more than
    `guard` vertices; raise the guard explicitly if you mean it.
    """
    if g.n > guard:
        raise TooLargeError(
            f"gamma_oracle guard is {guard} vertices, graph has {g.n}"
        )
    closed = g.closed
    full = g.full_mask
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            mask = 0
            for v in combo:
                mask |= closed[v]
            if mask == full:
                return DominationResult(k, VertexSet.from_members(g.n, combo))
    raise AssertionError("unreachable: V(G) always dominates")


def gamma_bb(g: Graph, limits: SolverLimits | None = None) -> DominationResult:
    """Exact domination number via branch-and-bound.

    Raises BudgetExhaustedError, carrying the best upper bound seen, if the
    node budget runs out.  gamma_restricted solves over a subset of vertices.
    """
    limits = limits or SolverLimits()
    return _solve(g, g.full_mask, limits.node_budget)


def gamma_restricted(
    g: Graph, candidates: VertexSet, limits: SolverLimits | None = None
) -> DominationResult:
    """Minimum dominating set drawn only from `candidates`.

    The witness is the lexicographically smallest among the minimum-size
    solutions.  Raises NotDominatingError when the candidates cannot
    dominate g at all.
    """
    limits = limits or SolverLimits()
    _check_universe(g, candidates)
    if not is_dominating(g, candidates):
        raise NotDominatingError("candidate set does not dominate the graph")
    return _solve(g, candidates.mask, limits.node_budget)


def is_minimal_dominating(g: Graph, s: VertexSet) -> bool:
    """True when s dominates g and no proper subset of s does."""
    _check_universe(g, s)
    if not is_dominating(g, s):
        return False
    for v in s:
        if is_dominating(g, s.discard(v)):
            return False
    return True


def shrink_to_minimal(g: Graph, s: VertexSet) -> VertexSet:
    """Greedily delete redundant vertices from a dominating set.

    Deletion attempts run from the highest vertex id down, so low ids are
    kept whenever possible and the result is reproducible (for example the
    all-vertex set of a complete graph shrinks to {0}).
    """
    _check_universe(g, s)
    if not is_dominating(g, s):
        raise NotDominatingError("cannot shrink a set that does not dominate")
    current = s
    for v in sorted(s, reverse=True):
        smaller = current.discard(v)
        if is_dominating(g, smaller):
            current = smaller
    return current


@dataclass(frozen=True)
class MinimumSetEnumeration:
    """All minimum dominating sets (possibly truncated at a cap)."""

    gamma: int
    sets: tuple[VertexSet, ...]
    truncated: bool


def enumerate_minimum_dominating_sets(
    g: Graph,
    cap: int,
    limits: SolverLimits | None = None,
) -> MinimumSetEnumeration:
    """Every dominating set of size exactly gamma(g), in lexicographic order.

    Stops after `cap` sets and flags truncation if at least one more exists.
    Raises TooLargeError when the size-gamma subset space itself exceeds
    DEFAULT_COMBINATION_BUDGET.
    """
    if cap <= 0:
        raise BadParameterError(f"cap must be positive, got {cap}")
    gamma = gamma_bb(g, limits).gamma
    if math.comb(g.n, gamma) > DEFAULT_COMBINATION_BUDGET:
        raise TooLargeError(
            f"enumerating C({g.n}, {gamma}) subsets exceeds the budget of"
            f" {DEFAULT_COMBINATION_BUDGET}"
        )
    closed = g.closed
    full = g.full_mask
    found: list[VertexSet] = []
    truncated = False
    for combo in combinations(range(g.n), gamma):
        mask = 0
        for v in combo:
            mask |= closed[v]
        if mask != full:
            continue
        if len(found) == cap:
            truncated = True
            break
        found.append(VertexSet.from_members(g.n, combo))
    return MinimumSetEnumeration(gamma, tuple(found), truncated)
