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
  * a counting bound (the classic gamma >= n / (Delta + 1); Haynes,
    Hedetniemi and Slater, "Fundamentals of Domination in Graphs", 1998):
    s picks cover at most `reach[s]`, the sum of the s largest closed
    neighbourhood sizes.  A child is kept only when its fresh coverage
    leaves at most `reach[slots - 1]` vertices for the other picks, and
    `_children` drops the others before it sorts, so a child that cannot
    finish is never sorted or compared with its siblings.  Every pushed
    child meets the bound, so the node test (more than `reach[slots]`
    uncovered: dead before the walk) fires only on the first node of a
    call, where it saves the walk and keeps a call with no slots from
    reading `reach[-1]`.  Both cuts drop only subtrees that hold no
    solution, so the search finds the same first set.  `reach` reads only
    the graph's degrees, never a factor's gamma or a bound under test, so
    a search that checks such a bound does not assume it;
  * children are eligible dominators, ordered by descending fresh coverage
    with index as the tie-break; an explored child leaves the eligible set
    of its later siblings (its own subtree covered every solution with it);
  * a child whose fresh coverage is a subset of a kept earlier sibling's
    is dominated and skipped (Fomin, Grandoni and Kratsch, J. ACM 2009;
    van Rooij and Bodlaender, DAM 2011), and it too leaves the eligible
    set of its later siblings: swapping it for the sibling turns any
    solution that uses it into one the sibling's subtree covers.  The
    ordering puts every dominating sibling first (equal sets: the earlier
    one is kept);
  * the search keeps its own stack and pushes children in reverse, so it
    visits nodes in recursion order without using Python's call stack.

With `gamma_bb(..., symmetry=...)` `complete` also branches on orbits.  The
symmetry input maps the picks of a node to classes: each class lies in one
orbit of a group of automorphisms that fixes every pick, and the group of a
child's picks is a subgroup of its parent's (`solve_product` builds the
product's classes from stabilizers in its factors).  The rule runs only in
a call over every vertex (nothing covered, every vertex allowed): at each
node that expands, once child c has been explored or skipped as dominated,
c's whole class leaves the eligible set of the later siblings, and a
sibling that has left this way is not pushed (a node asks for its classes
only once a child survives the counting bound).  c's own subtree keeps c's
class-mates, since a solution may hold c and a class-mate.  Call a
solution of a node a set of at most `slots` further picks that covers what
the picks leave, and let the node's group be the one its classes come
from.  The rule is sound by induction down the tree, on two facts about
every node: the node's group maps each solution inside `allowed` to a
solution inside `allowed`, and when the node's search fails, no solution
lies inside `allowed`.
  * The group maps solutions to solutions because it fixes the picks, and
    so `covered`.  At the root `allowed` is every vertex.
  * Over a node's children, in order: when c's turn ends without a
    solution, no solution inside the current `allowed` contains c.  For an
    explored c that is the second fact at c's node; a skipped c swaps for
    its kept sibling.  If such a solution met class(c) in x, an element of
    the group taking x to c would map it to a solution that contains c.
    By the first fact that image lies inside the node's `allowed`, and each
    earlier sibling removed only vertices that no solution there uses, so
    it lies inside the current `allowed` too.  So no solution meets
    class(c), and the later siblings lose nothing.
  * A child c inherits the first fact: a solution of c's node, with c
    added, is a solution of the parent.  The parent's group maps it inside
    the parent's `allowed`, so by the step above inside the current one,
    and c's group fixes c.  So the image, without c, lies inside c's
    `allowed`.
The argument needs only that each class lies in one orbit of the node's
group, so any finer partition is safe too (Ostrowski, Linderoth, Rossi and
Smriglio, "Orbital branching", Math. Programming 2011; Margot, "Symmetry
in integer linear programming", 2010).  The rule stays out of
`lexmin_witness`, whose `complete` calls start from fixed picks and whose
answer must be the canonical smallest set; out of `gamma_restricted`,
whose candidate set need not be invariant under the group; and out of the
enumerator, which must list every minimum set rather than one per orbit.

gamma starts at a greedy maximum-coverage dominating set and falls while
`complete` finds a set one smaller; the last set found is a minimum set.
By default the witness is the lexicographically smallest minimum solution,
so every caller sees one reproducible answer: vertices are fixed in
ascending order, each kept when `complete` still finds the rest.  The pass
starts from `minimize`'s minimum set and keeps one that agrees with the
picks so far (after a successful `complete`, the picks plus its answer), so
a vertex in that set is kept without a search.  A caller that needs only
some minimum set (`gamma_bb(..., lexmin=False)`) gets `minimize`'s own set
and skips the pass.

With a `floor` (`gamma_bb(..., floor=k)`), `minimize` also stops once its
set has `floor` members.  The call it skips is the last one, the proof
call that fails and so shows no smaller set exists; a failed call never
touches the set found, so gamma, the set and everything read from it stay
as they were, and only the nodes of that call are saved (a search whose
proof call would run out of nodes may so finish).  The caller
vouches for the floor: it must be a proven lower bound on gamma, found
without the theorem under test (`harness.sweep` takes the exact gamma of
another product), or the answer is wrong.

Minimum-set enumeration is a second explicit-stack search over the same
`_scan`, run by the engine that found gamma and charged to the same node
budget.  It picks vertices in ascending order, so it yields the size-gamma
dominating sets in the order `itertools.combinations` would test them, but
it drops a branch as soon as the vertices not yet passed over cannot finish
a cover: `_scan` finds the node dead, or the next pick would come after the
last eligible dominator of some uncovered vertex or leave too few vertices
to fill the slots.  The eligible vertices are always those from the next
pick position on, so a vertex's last eligible dominator is its highest
dominator outright: a table built once per call (`upto[t]`, the vertices
whose highest dominator is at most t) gives that bound without the walk.
The counting bound takes the suffix's form: `widest[i]` is the largest
closed neighbourhood among vertices i..n-1, and a pick v is pushed only
when the slots - 1 picks after it, all above v, can cover what v leaves,
that is at most (slots - 1) * widest[v + 1] vertices.  A pick that fails
this has no dominating set in its subtree, so the search yields the same
sets in the same order and only visits fewer nodes.  The last pick is
listed in closed form, without a walk: at a node with one slot left from
position i on, the sets are the picks plus each x >= i whose closed
neighbourhood covers what is left, in ascending order.  Each such x
dominates the lowest uncovered vertex, so only its dominators are tried;
when nothing is left, every x >= i completes a set (sizes above gamma
reach this).  These are exactly the picks that `_scan`, the `upto` bound
and the counting cut would keep there (with no slot after it, a pick must
cover everything), and each listed set costs one node, as a pushed pick
would.  A size above n lists nothing.

A plain solve keeps every default: the lexmin witness, no symmetry, no
floor.  `gamma_bb`'s plain calls and every `gamma_restricted` call go
through one process-wide memo, `_plain_solve`, keyed by (graph, candidate
mask, node budget); a sweep asks for the same factor and projection
solves again and again, and each is searched once.  The search reads
nothing else (graphs compare by their rows, never by name), so a key
always has one answer: a memoized answer is the one a fresh search gives.
The budget is part of the key, since a search that finishes under one
budget may run out under a smaller one; a call that raises is not
memoized and searches again next time.  Callers share the answer object,
which is safe because a `DominationResult` and its `VertexSet` are never
changed after they are built.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate, combinations, islice

from .errors import (
    BadParameterError,
    BudgetExhaustedError,
    NotDominatingError,
    TooLargeError,
)
from .graphs import Graph, VertexSet, _check_universe, is_dominating

DEFAULT_NODE_BUDGET = 5_000_000
ORACLE_GUARD = 16

# The symmetry input of a search (module docstring): `symmetry(picks)` gives,
# for a node with the pick mask `picks`, a map from each vertex to the mask
# of its class, or None when every class is one vertex (the search then
# asks no node below it).
Symmetry = Callable[[int], Callable[[int], int] | None]


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
    """Max-coverage greedy dominating set from `allowed`, or None if impossible.
    Each round is one pass over the candidates; ties go to the lowest id."""
    cands = [(v, closed[v]) for v in range(len(closed)) if allowed >> v & 1]
    covered = 0
    chosen = 0
    while covered != full:
        best = 0
        for v, row in cands:
            gain = (row & ~covered).bit_count()
            if gain > best:
                best = gain
                pick = v
        if best == 0:
            return None
        chosen |= 1 << pick
        covered |= closed[pick]
    return chosen


def _scan(
    closed: tuple[int, ...], full: int, covered: int, allowed: int, slots: int
) -> int:
    """Walk a search node's uncovered vertices once.  -1 when the node is
    dead: an uncovered vertex has no eligible dominator, or the packing bound
    (module docstring) exceeds `slots`.  Else the vertex to branch on: the
    uncovered vertex with the fewest eligible dominators, lowest id on ties."""
    count = 0
    used = 0
    branch = -1
    fewest = 1 << 30
    m = full & ~covered
    while m:
        bit = m & -m
        w = bit.bit_length() - 1
        m ^= bit
        dom = closed[w] & allowed
        if dom == 0:
            return -1
        if dom & used == 0:
            count += 1
            if count > slots:
                return -1
            used |= dom
        k = dom.bit_count()
        if k < fewest:
            fewest = k
            branch = w
    return branch


class _BranchAndBound:
    """One search context: shared node budget, best solution so far."""

    __slots__ = (
        "n", "closed", "full", "reach", "budget", "nodes", "best_mask", "symmetry"
    )

    def __init__(self, g: Graph, node_budget: int, symmetry: Symmetry | None = None):
        self.n = g.n
        self.closed = g.closed
        self.full = g.full_mask
        # reach[s]: the most vertices any s picks can cover (module docstring).
        # A list, for the reason `Graph.closed` is built from one.
        sizes = sorted((c.bit_count() for c in g.closed), reverse=True)
        self.reach = list(accumulate(sizes, initial=0))
        self.budget = node_budget
        self.nodes = 0
        self.best_mask = 0
        self.symmetry = symmetry

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            best = self.best_mask.bit_count()
            raise BudgetExhaustedError(
                f"node budget {self.budget} exhausted; "
                f"best dominating set found has {best} vertices",
                upper_bound=best,
                witness=VertexSet(self.n, self.best_mask),
            )

    def _children(
        self, w: int, covered: int, allowed: int, least: int
    ) -> list[tuple[int, int, int]]:
        """`(-k, c, fresh)` for each eligible dominator c of w whose fresh
        coverage `fresh` (what c would newly cover, k its size) holds at
        least `least` vertices: most fresh coverage first, index on ties.
        The cut comes before the sort, so a child that cannot finish is
        never sorted."""
        closed = self.closed
        cands = []
        m = closed[w] & allowed
        while m:
            bit = m & -m
            c = bit.bit_length() - 1
            m ^= bit
            fresh = closed[c] & ~covered
            k = fresh.bit_count()
            if k >= least:
                cands.append((-k, c, fresh))
        cands.sort()
        return cands

    def minimize(self, allowed: int, floor: int = 0) -> int:
        """Exact minimum dominating-set size over the `allowed` candidates,
        given that it is at least `floor` (module docstring)."""
        best = _greedy_cover(self.closed, self.full, allowed)
        if best is None:
            raise NotDominatingError("candidate set does not dominate the graph")
        self.best_mask = best
        while best.bit_count() > floor and (
            found := self.complete(0, allowed, best.bit_count() - 1)
        ) is not None:
            self.best_mask = best = found
        return best.bit_count()

    def complete(self, covered: int, allowed: int, slots: int) -> int | None:
        """Mask of at most `slots` picks from `allowed` that cover the rest
        of the graph beyond `covered`, or None if no such picks exist."""
        slots = min(slots, self.n)  # n picks cover everything; reach ends at n
        closed = self.closed
        full = self.full
        reach = self.reach
        # The orbit rule holds only where the graph's symmetry does: in a
        # call over every vertex.  Below a node without classes, nodes ask
        # for none, since their groups are smaller still.
        symmetry = self.symmetry if covered == 0 and allowed == full else None
        stack = [(covered, allowed, slots, 0, symmetry)]
        while stack:
            covered, allowed, slots, picks, symmetry = stack.pop()
            self._tick()
            if covered == full:
                return picks
            uncovered = (full & ~covered).bit_count()
            if uncovered > reach[slots]:
                continue
            w = _scan(closed, full, covered, allowed, slots)
            if w < 0:
                continue
            # A child must leave at most reach[slots - 1] vertices uncovered.
            children = self._children(
                w, covered, allowed, uncovered - reach[slots - 1]
            )
            if not children:
                continue
            classes = symmetry(picks) if symmetry else None
            if classes is None:
                symmetry = None
            pushed = []
            kept = []
            for _, c, fresh in children:
                if not allowed >> c & 1:
                    continue  # left with an earlier class-mate
                allowed &= ~(1 << c)
                for k in kept:
                    if fresh & ~k == 0:
                        break
                else:
                    kept.append(fresh)
                    pushed.append(
                        (covered | fresh, allowed, slots - 1, picks | 1 << c, symmetry)
                    )
                if classes:
                    allowed &= ~classes(c)
            stack.extend(reversed(pushed))
        return None

    def lexmin_witness(self, candidates: int) -> int:
        """Lexicographically smallest minimum dominating set from `candidates`.

        Call after `minimize`.  Scans candidate vertices in ascending order;
        a vertex joins the witness exactly when fixing it still leaves a
        completion among the strictly larger candidates.  `sol` is a minimum
        set that agrees with the picks below the scan position, so a vertex
        in it is taken without a search.
        """
        sol = self.best_mask
        covered = 0
        remaining = candidates
        mask = 0
        slots = sol.bit_count()
        while slots:
            # `sol` keeps `slots` members in `remaining`, so it is not empty.
            bit = remaining & -remaining
            remaining ^= bit
            fixed = covered | self.closed[bit.bit_length() - 1]
            if not sol & bit:
                found = self.complete(fixed, remaining, slots - 1)
                if found is None:
                    continue
                sol = mask | bit | found
            mask |= bit
            covered = fixed
            slots -= 1
        return mask

    def dominating_sets(self, size: int) -> Iterator[int]:
        """Masks of the dominating sets with exactly `size` members.

        They come in the lexicographic order of their sorted members, which
        is the order of `itertools.combinations`.
        """
        closed = self.closed
        full = self.full
        n = self.n
        # upto[t]: the vertices whose highest dominator is at most t.  The
        # eligible set is always a suffix, so that is the highest eligible
        # one whenever the vertex has any.
        upto = [0] * n
        for v, row in enumerate(closed):
            upto[row.bit_length() - 1] |= 1 << v
        upto = list(accumulate(upto, int.__or__))
        # widest[i]: the largest closed neighbourhood among vertices i..n-1
        # (0 at i = n), so the most any one pick from position i on covers.
        sizes = (row.bit_count() for row in reversed(closed))
        widest = list(accumulate(sizes, max, initial=0))
        widest.reverse()
        stack = [(0, 0, size, 0)] if size <= n else []
        while stack:
            covered, i, slots, picks = stack.pop()
            self._tick()
            rest = full & ~covered
            if slots == 1:
                # The last pick, in closed form: each x >= i whose row covers
                # `rest`, ascending, one node per set.  Such an x dominates
                # the lowest uncovered vertex; with nothing left, any x does.
                if rest:
                    m = closed[(rest & -rest).bit_length() - 1] >> i << i
                    while m:
                        bit = m & -m
                        m ^= bit
                        if rest & ~closed[bit.bit_length() - 1] == 0:
                            self._tick()
                            yield picks | bit
                else:
                    for x in range(i, n):
                        self._tick()
                        yield picks | 1 << x
                continue
            # `_scan` answers -1 on a dead node, and also when nothing is
            # left uncovered, which is not dead here.
            eligible = full & ~((1 << i) - 1)
            if rest and _scan(closed, full, covered, eligible, slots) < 0:
                continue
            # Picks ascend, so the next one must leave room for the rest and
            # must not pass any uncovered vertex's highest dominator.  Every
            # uncovered vertex has one at i or above, or the node is dead.
            last = i
            while last < n - slots and not upto[last] & rest:
                last += 1
            # After pick v the other slots - 1 picks come from v + 1 on, so
            # they cover at most (slots - 1) * widest[v + 1] of what is left.
            room = slots - 1
            for v in range(last, i - 1, -1):
                row = closed[v]
                if (rest & ~row).bit_count() <= room * widest[v + 1]:
                    stack.append((covered | row, v + 1, room, picks | 1 << v))


def _solve(
    g: Graph,
    candidates: int,
    node_budget: int,
    lexmin: bool = True,
    symmetry: Symmetry | None = None,
    floor: int = 0,
) -> DominationResult:
    engine = _BranchAndBound(g, node_budget, symmetry)
    gamma = engine.minimize(candidates, floor)
    witness = engine.lexmin_witness(candidates) if lexmin else engine.best_mask
    return DominationResult(gamma, VertexSet(g.n, witness))


# The plain-solve memo (module docstring).  The sweep of the 10,296 pairs
# of connected graphs on <= 6 vertices leaves 497 entries; the bound caps
# what one process holds when every solve is new.
@functools.lru_cache(maxsize=4096)
def _plain_solve(g: Graph, candidates: int, node_budget: int) -> DominationResult:
    """`_solve` with every default, memoized by (graph, candidates, budget)."""
    return _solve(g, candidates, node_budget)


def gamma_oracle(g: Graph) -> DominationResult:
    """Reference solver: try every vertex subset by increasing size.

    The witness is the lexicographically first minimum dominating set, which
    `itertools.combinations` yields for free.  TooLargeError for graphs with
    more than ORACLE_GUARD vertices, so it never tries more than 2^16 subsets.
    """
    if g.n > ORACLE_GUARD:
        raise TooLargeError(
            f"gamma_oracle guard is {ORACLE_GUARD} vertices, graph has {g.n}"
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


def gamma_bb(
    g: Graph,
    limits: SolverLimits | None = None,
    *,
    lexmin: bool = True,
    symmetry: Symmetry | None = None,
    floor: int = 0,
) -> DominationResult:
    """Exact domination number via branch-and-bound.

    With `lexmin` (the default) the witness is the lexicographically
    smallest minimum dominating set, the same one `gamma_oracle` returns.
    With `lexmin=False` it is the minimum set the search found last, which
    depends on the search order but skips the witness pass; use it when any
    minimum dominating set will do.

    `symmetry` turns on orbital branching (module docstring).  It is a
    `Symmetry`: it maps each node's picks to classes, each inside one orbit
    of a group that fixes those picks and lies inside the parent node's
    group; `harness.solve_product` passes one for the product.  It changes the
    search, never gamma; BadParameterError when it is not callable.  Raises
    BudgetExhaustedError, carrying the best upper bound seen, if the node
    budget runs out.  gamma_restricted solves over a subset of vertices.

    `floor` stops the search once its set has that many members, which
    skips the proof call and changes neither gamma nor the witness.  It
    must be a proven lower bound on gamma (module docstring); a larger one
    makes the answer wrong.

    A call that keeps the defaults of `lexmin`, `symmetry` and `floor` is
    memoized for the process by (graph, node budget), and the result is
    shared between callers (module docstring).
    """
    limits = limits or SolverLimits()
    if symmetry is None and lexmin and not floor:
        return _plain_solve(g, g.full_mask, limits.node_budget)
    if symmetry is not None and not callable(symmetry):
        raise BadParameterError(
            f"symmetry must map picks to classes, got {type(symmetry).__name__}"
        )
    return _solve(g, g.full_mask, limits.node_budget, lexmin, symmetry, floor)


def gamma_restricted(
    g: Graph, candidates: VertexSet, limits: SolverLimits | None = None
) -> DominationResult:
    """Minimum dominating set drawn only from `candidates`.

    The witness is the lexicographically smallest among the minimum-size
    solutions.  Raises NotDominatingError when the candidates cannot
    dominate g at all.  Memoized for the process by (graph, candidate mask,
    node budget), and the result is shared between callers (module
    docstring).
    """
    limits = limits or SolverLimits()
    _check_universe(g, candidates)
    return _plain_solve(g, candidates.mask, limits.node_budget)


def is_minimal_dominating(g: Graph, s: VertexSet) -> bool:
    """True when s dominates g and no proper subset of s does."""
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
    `itertools.combinations(range(g.n), gamma)`.  Its cuts, the suffix
    coverage bound among them, drop only subtrees that hold no dominating
    set, so they change how many nodes the listing takes, never the sets or
    their order.  Stops after `cap` sets and flags truncation if at least
    one more exists.  Finding gamma and listing the sets share one node
    budget; when it runs out, BudgetExhaustedError carries a minimum
    dominating set as its witness.
    """
    if cap <= 0:
        raise BadParameterError(f"cap must be positive, got {cap}")
    limits = limits or SolverLimits()
    engine = _BranchAndBound(g, limits.node_budget)
    gamma = engine.minimize(g.full_mask)
    masks = engine.dominating_sets(gamma)
    found = tuple(VertexSet(g.n, mask) for mask in islice(masks, cap))
    truncated = next(masks, None) is not None
    return MinimumSetEnumeration(gamma, found, truncated)
