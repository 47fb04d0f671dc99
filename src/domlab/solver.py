"""Exact domination-number computation.

Two independent routes are provided on purpose.  `gamma_oracle` enumerates
vertex subsets by increasing size and is obviously correct but guarded to
small graphs.  `gamma_bb` is a branch-and-bound search that must agree with
the oracle wherever both run; the test suite holds it to that.

Branch-and-bound design: one depth-first search, `complete(covered,
allowed, slots)`, finds some set of at most `slots` picks from `allowed`
that covers what `covered` leaves, or reports that none exists.
  * one walk over the uncovered vertices (`_scan`) prunes the node when a
    vertex has no eligible dominator, or when a greedy packing of vertices
    with pairwise disjoint eligible dominator sets (each forces its own
    pick) passes `slots`; else it branches on the vertex with the fewest
    eligible dominators;
  * children are eligible dominators, ordered by descending fresh coverage
    with index as the tie-break; an explored child leaves the eligible set
    of its later siblings (its own subtree covered every solution with it);
  * the search keeps its own stack and pushes children in reverse, so it
    visits nodes in recursion order without using Python's call stack.

gamma starts at a greedy maximum-coverage dominating set and falls while
`complete` finds a set one smaller.  The witness is the lexicographically
smallest minimum solution, so every caller sees one reproducible answer:
vertices are fixed in ascending order, each kept when `complete` still
finds the rest.

Minimum-set enumeration is a second explicit-stack search over the same
`_scan`.  It picks vertices in ascending order, so it yields the size-gamma
dominating sets in the order `itertools.combinations` would test them, but
it drops a branch as soon as the vertices not yet passed over cannot finish
a cover: `_scan` finds the node dead, or the next pick would come after the
last eligible dominator of some uncovered vertex (the walk's second answer)
or leave too few vertices to fill the slots.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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


def _greedy_cover(closed: tuple[int, ...], full: int, allowed: int) -> int | None:
    """Max-coverage greedy dominating set from `allowed`, or None if impossible."""
    covered = 0
    chosen = 0
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
        chosen |= 1 << best_v
        covered |= closed[best_v]
    return chosen


def _scan(
    closed: tuple[int, ...], full: int, covered: int, allowed: int, slots: int
) -> tuple[int, int] | None:
    """Walk a search node's uncovered vertices once.  None when the node is
    dead: an uncovered vertex has no eligible dominator, or the packing bound
    (module docstring) exceeds `slots`.  Else `(branch, last)`: the uncovered
    vertex with the fewest eligible dominators, lowest id on ties, and the
    smallest highest eligible dominator of an uncovered vertex."""
    count = 0
    used = 0
    branch = -1
    fewest = 1 << 30
    last = full.bit_length()
    m = full & ~covered
    while m:
        bit = m & -m
        w = bit.bit_length() - 1
        m ^= bit
        dom = closed[w] & allowed
        if dom == 0:
            return None
        if dom & used == 0:
            count += 1
            if count > slots:
                return None
            used |= dom
        k = dom.bit_count()
        if k < fewest:
            fewest = k
            branch = w
        h = dom.bit_length() - 1
        if h < last:
            last = h
    return branch, last


class _BranchAndBound:
    """One search context: shared node budget, best solution so far."""

    __slots__ = ("n", "closed", "full", "budget", "nodes", "best_mask")

    def __init__(self, g: Graph, node_budget: int):
        self.n = g.n
        self.closed = g.closed
        self.full = g.full_mask
        self.budget = node_budget
        self.nodes = 0
        self.best_mask = 0

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhaustedError(
                f"node budget {self.budget} exhausted",
                upper_bound=self.best_mask.bit_count(),
                witness=VertexSet(self.n, self.best_mask),
            )

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
        best = _greedy_cover(self.closed, self.full, allowed)
        if best is None:
            raise NotDominatingError("candidate set does not dominate the graph")
        self.best_mask = best
        while (found := self.complete(0, allowed, best.bit_count() - 1)) is not None:
            self.best_mask = best = found
        return best.bit_count()

    def complete(self, covered: int, allowed: int, slots: int) -> int | None:
        """Mask of at most `slots` picks from `allowed` that cover the rest
        of the graph beyond `covered`, or None if no such picks exist."""
        closed = self.closed
        full = self.full
        stack = [(covered, allowed, slots, 0)]
        while stack:
            covered, allowed, slots, picks = stack.pop()
            self._tick()
            if covered == full:
                return picks
            scan = _scan(closed, full, covered, allowed, slots)
            if scan is None:
                continue
            children = []
            for c in self._children(scan[0], covered, allowed):
                allowed &= ~(1 << c)
                children.append(
                    (covered | closed[c], allowed, slots - 1, picks | 1 << c)
                )
            stack.extend(reversed(children))
        return None

    def lexmin_witness(self, gamma: int, candidates: int) -> int:
        """Lexicographically smallest dominating set of size `gamma`.

        Scans candidate vertices in ascending order; a vertex joins the
        witness exactly when fixing it still leaves a completion among the
        strictly larger candidates.
        """
        covered = 0
        remaining = candidates
        mask = 0
        slots = gamma
        while slots:
            # gamma is exact, so a completion always exists and the
            # candidate pool cannot run dry before every slot is filled.
            assert remaining, "no candidates left with slots unfilled"
            bit = remaining & -remaining
            v = bit.bit_length() - 1
            remaining ^= bit
            fixed = covered | self.closed[v]
            if self.complete(fixed, remaining, slots - 1) is not None:
                mask |= bit
                covered = fixed
                slots -= 1
        return mask


def _dominating_sets_of_size(
    closed: tuple[int, ...], full: int, size: int
) -> Iterator[int]:
    """Masks of the dominating sets with exactly `size` members.

    They come in the lexicographic order of their sorted members, which is
    the order of `itertools.combinations`.
    """
    n = len(closed)
    stack = [(0, 0, size, 0)]
    while stack:
        covered, i, slots, picks = stack.pop()
        if slots == 0:
            if covered == full:
                yield picks
            continue
        scan = _scan(closed, full, covered, full & ~((1 << i) - 1), slots)
        if scan is None:
            continue
        # Picks ascend, so the next one must leave room for the rest and must
        # not pass any uncovered vertex's highest dominator.
        last = min(n - slots, scan[1])
        stack.extend(
            (covered | closed[v], v + 1, slots - 1, picks | 1 << v)
            for v in range(last, i - 1, -1)
        )


def _solve(g: Graph, candidates: int, node_budget: int) -> DominationResult:
    engine = _BranchAndBound(g, node_budget)
    gamma = engine.minimize(candidates)
    witness = engine.lexmin_witness(gamma, candidates)
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

    The sets come from a branch-and-bound search that never visits a subset
    unable to complete a cover (see the module docstring), in the order of
    `itertools.combinations(range(g.n), gamma)`.  Stops after `cap` sets and
    flags truncation if at least one more exists.  Raises TooLargeError when
    the size-gamma subset space C(n, gamma) exceeds
    DEFAULT_COMBINATION_BUDGET, although the search does not visit it all.
    """
    if cap <= 0:
        raise BadParameterError(f"cap must be positive, got {cap}")
    limits = limits or SolverLimits()
    gamma = _BranchAndBound(g, limits.node_budget).minimize(g.full_mask)
    if math.comb(g.n, gamma) > DEFAULT_COMBINATION_BUDGET:
        raise TooLargeError(
            f"enumerating C({g.n}, {gamma}) subsets exceeds the budget of"
            f" {DEFAULT_COMBINATION_BUDGET}"
        )
    found: list[VertexSet] = []
    truncated = False
    for mask in _dominating_sets_of_size(g.closed, g.full_mask, gamma):
        if len(found) == cap:
            truncated = True
            break
        found.append(VertexSet(g.n, mask))
    return MinimumSetEnumeration(gamma, tuple(found), truncated)
