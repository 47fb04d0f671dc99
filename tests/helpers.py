"""Shared test utilities: seeded random instances and naive reference code.

The reference implementations here deliberately avoid the package's bitmask
machinery.  They work on plain Python sets and dicts so that agreement with
the library is evidence of correctness rather than shared bugs.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable

from domlab import (
    Graph,
    VertexSet,
    make_graph,
    shrink_to_minimal,
    vertex_orbits,
)
from domlab.solver import Symmetry


def random_graph(rng: random.Random, max_n: int = 8, min_n: int = 1) -> Graph:
    """A random graph with uniformly chosen size and edge density."""
    n = rng.randint(min_n, max_n)
    p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def random_dominating_set(rng: random.Random, g: Graph) -> VertexSet:
    """A dominating set built from a random seed set plus greedy repair."""
    closed = naive_closed_neighborhoods(g)
    s = {v for v in range(g.n) if rng.random() < 0.4}
    covered = set().union(*(closed[v] for v in s))
    for v in range(g.n):
        if v not in covered:
            pick = rng.choice(sorted(closed[v]))
            s.add(pick)
            covered |= closed[pick]
    return VertexSet.from_members(g.n, s)


def root_symmetry(g: Graph) -> Symmetry:
    """The orbits of Aut(g) as a symmetry input of `gamma_bb`: classes at the
    root, where nothing is picked yet, and none below it, where no group
    that fixes the picks is known."""
    classes = tuple(cls.mask for cls in vertex_orbits(g))
    return lambda picks: None if picks else classes.__getitem__


def random_minimal_dominating_set(rng: random.Random, g: Graph) -> VertexSet:
    return shrink_to_minimal(g, random_dominating_set(rng, g))


# ---------------------------------------------------------------------------
# Naive reference implementations (sets and dicts, no bitmasks)
# ---------------------------------------------------------------------------


def naive_closed_neighborhoods(g: Graph) -> dict[int, set[int]]:
    out = {v: {v} for v in range(g.n)}
    for u, v in g.edges():
        out[u].add(v)
        out[v].add(u)
    return out


def naive_is_dominating(g: Graph, members: set[int]) -> bool:
    closed = naive_closed_neighborhoods(g)
    covered: set[int] = set()
    for v in members:
        covered |= closed[v]
    return covered == set(range(g.n))


def naive_gamma(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exhaustive domination number with the first witness in lex order."""
    found = naive_gamma_restricted(g, range(g.n))
    assert found is not None, "every graph is dominated by all of V"
    return found


def naive_gamma_restricted(
    g: Graph, candidates: Iterable[int]
) -> tuple[int, tuple[int, ...]] | None:
    """Smallest dominating set drawn from `candidates`, first in lex order,
    with its size; None when the candidates cannot dominate g."""
    pool = sorted(candidates)
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            if naive_is_dominating(g, set(combo)):
                return k, combo
    return None


def naive_greedy_cover(
    g: Graph, candidates: Iterable[int]
) -> tuple[int, ...] | None:
    """The max-coverage greedy dominating set drawn from `candidates`, sorted:
    each round takes the candidate that covers the most vertices not yet
    covered, the lowest id on ties.  None when the candidates cannot
    dominate g."""
    closed = naive_closed_neighborhoods(g)
    pool = sorted(candidates)
    uncovered = set(range(g.n))
    chosen = []
    while uncovered:
        best = max(pool, key=lambda v: len(closed[v] & uncovered), default=None)
        if best is None or not closed[best] & uncovered:
            return None
        chosen.append(best)
        uncovered -= closed[best]
    return tuple(sorted(chosen))


def naive_cover_size(
    g: Graph, targets: set[int], candidates: Iterable[int]
) -> int | None:
    """Fewest candidates whose closed neighborhoods hold every target, or
    None when all of them together do not."""
    closed = naive_closed_neighborhoods(g)
    pool = sorted(candidates)
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            if targets <= set().union(*(closed[v] for v in combo)):
                return k
    return None


def milp_gamma(g: Graph) -> tuple[int, ...]:
    """A minimum dominating set of g from scipy's MILP solver (HiGHS), an
    answer independent of the package's searches that also reaches past
    gamma_oracle's 16 vertices: minimize the picks subject to every closed
    neighborhood holding one.  The float answer is never taken alone: it is
    rounded, the set checked to dominate and its size to equal the
    objective, so comparing the size with gamma_bb's gamma checks both."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    closed = naive_closed_neighborhoods(g)
    a = np.zeros((g.n, g.n))
    for v, ball in closed.items():
        a[v, sorted(ball)] = 1
    res = milp(
        np.ones(g.n),
        constraints=LinearConstraint(a, lb=1),
        integrality=np.ones(g.n),
        bounds=Bounds(0, 1),
    )
    assert res.success, res.message
    members = tuple(v for v in range(g.n) if round(res.x[v]) == 1)
    assert naive_is_dominating(g, set(members))
    assert len(members) == round(res.fun)
    return members


def naive_minimum_dominating_sets(g: Graph) -> list[tuple[int, ...]]:
    """Every minimum dominating set, in `itertools.combinations` order."""
    gamma = naive_gamma(g)[0]
    return [
        combo
        for combo in itertools.combinations(range(g.n), gamma)
        if naive_is_dominating(g, set(combo))
    ]


def naive_product_edges(g: Graph, h: Graph) -> set[tuple[int, int]]:
    """Cartesian product edges straight from the definition, as id pairs."""
    ng = naive_closed_neighborhoods(g)
    nh = naive_closed_neighborhoods(h)
    edges: set[tuple[int, int]] = set()
    for u1 in range(g.n):
        for v1 in range(h.n):
            for u2 in range(g.n):
                for v2 in range(h.n):
                    # A vertex is in its own closed neighbourhood; a < b
                    # below drops that pair.
                    same_g = u1 == u2 and v2 in nh[v1]
                    same_h = v1 == v2 and u2 in ng[u1]
                    if same_g or same_h:
                        a = u1 * h.n + v1
                        b = u2 * h.n + v2
                        if a < b:
                            edges.add((a, b))
    return edges


def recompute_from_U(
    g: Graph, h: Graph, D: set[int], U: tuple[int, ...]
) -> dict:
    """Every trace object downstream of U, computed naively."""
    ng = naive_closed_neighborhoods(g)
    nh = naive_closed_neighborhoods(h)
    pairs = {(d // h.n, d % h.n) for d in D}

    Q = {u for u, _ in pairs}
    k = len(U)

    pi: dict[int, int] = {}
    for w in range(g.n):
        block = None
        for i, u in enumerate(U):
            if w == u:
                block = i
                break
            if block is None and w in ng[u]:
                block = i
        pi[w] = block
    blocks = [{w for w in range(g.n) if pi[w] == i} for i in range(k)]

    S = [{(u, v) for u, v in pairs if u == U[i]} for i in range(k)]
    T = [{v for _, v in S[i]} for i in range(k)]
    Dparts = [{(u, v) for u, v in pairs if u in blocks[i]} for i in range(k)]
    P = [{v for _, v in Dparts[i]} for i in range(k)]
    Qv = [{u for u, vv in pairs if vv == v} for v in range(h.n)]

    prod_edges = naive_product_edges(g, h)
    prod_closed: dict[int, set[int]] = {
        x: {x} for x in range(g.n * h.n)
    }
    for a, b in prod_edges:
        prod_closed[a].add(b)
        prod_closed[b].add(a)

    C = set()
    for i in range(k):
        for v in range(h.n):
            dominated: set[int] = set()
            for u in Qv[v]:
                dominated |= prod_closed[u * h.n + v]
            column = {w * h.n + v for w in blocks[i]}
            if column <= dominated:
                C.add((i, v))

    L = [sum(1 for (i, v) in C if i == j) for j in range(k)]
    R = [sum(1 for (i, vv) in C if vv == v) for v in range(h.n)]

    return {
        "Q": Q,
        "pi": pi,
        "blocks": blocks,
        "S": S,
        "T": T,
        "Dparts": Dparts,
        "P": P,
        "Qv": Qv,
        "C": C,
        "L": L,
        "R": R,
    }


def as_pair_sets(pg_nh: int, sets: tuple[VertexSet, ...]) -> list[set[tuple[int, int]]]:
    """Convert product-id VertexSets into sets of (u, v) pairs."""
    return [{(x // pg_nh, x % pg_nh) for x in s.members} for s in sets]
