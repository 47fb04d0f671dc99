"""Graph, vertex-set, and Cartesian-product primitives.

Vertices are the integers 0..n-1.  Adjacency is stored as one int bitmask
per vertex, so neighborhood unions and domination tests reduce to word-wise
OR/AND on Python ints.  Everything here is immutable once built, which keeps
the solver and the sweep harness safe to run across worker processes.

Product vertices follow one global convention: the pair (u, v) with
u in V(G), v in V(H) gets id u * n_H + v.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadEdgeError,
    BadParameterError,
    BadVertexError,
    EmptyGraphError,
    SizeOverflowError,
)

# Guard against accidentally huge products; callers can raise it explicitly.
MAX_PRODUCT_VERTICES = 4096


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


class VertexSet:
    """Immutable set of vertex ids drawn from a fixed universe 0..universe-1.

    Backed by a single int bitmask.  Set algebra only combines sets over the
    same universe; mixing universes raises BadVertexError rather than
    silently reinterpreting bits.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: int, mask: int = 0):
        if universe < 0:
            raise BadParameterError(f"universe must be nonnegative, got {universe}")
        if mask < 0 or mask >> universe:
            raise BadVertexError(f"mask {mask:#x} has bits outside 0..{universe - 1}")
        self.universe = universe
        self.mask = mask

    @classmethod
    def from_members(cls, universe: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < universe:
                raise BadVertexError(f"vertex {v} outside 0..{universe - 1}")
            mask |= 1 << v
        return cls(universe, mask)

    @classmethod
    def empty(cls, universe: int) -> "VertexSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        return cls(universe, (1 << universe) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.mask))

    def add(self, v: int) -> "VertexSet":
        if not 0 <= v < self.universe:
            raise BadVertexError(f"vertex {v} outside 0..{self.universe - 1}")
        return VertexSet(self.universe, self.mask | (1 << v))

    def discard(self, v: int) -> "VertexSet":
        if not 0 <= v < self.universe:
            raise BadVertexError(f"vertex {v} outside 0..{self.universe - 1}")
        return VertexSet(self.universe, self.mask & ~(1 << v))

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same_universe(other)
        return self.mask & ~other.mask == 0

    def _check_same_universe(self, other: "VertexSet") -> None:
        if self.universe != other.universe:
            raise BadVertexError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.mask & ~other.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.universe == other.universe and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self)
        return f"VertexSet({self.universe}, {{{inner}}})"


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitmask adjacency rows.

    `adj[v]` holds the open neighborhood of v; `closed[v]` additionally
    includes v itself.  Construction validates symmetry, irreflexivity, and
    n >= 1, so downstream code never re-checks these invariants.
    """

    __slots__ = ("n", "adj", "closed", "full_mask", "m", "name")

    def __init__(self, n: int, adj: Sequence[int], name: str | None = None):
        if n <= 0:
            raise EmptyGraphError(f"graphs must have at least one vertex, got n={n}")
        adj = tuple(adj)
        if len(adj) != n:
            raise BadEdgeError(f"expected {n} adjacency rows, got {len(adj)}")
        for u, row in enumerate(adj):
            if row < 0 or row >> n:
                raise BadEdgeError(f"adjacency row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise BadEdgeError(f"self-loop at vertex {u}")
            for v in _iter_bits(row):
                if not (adj[v] >> u) & 1:
                    raise BadEdgeError(f"asymmetric edge ({u}, {v})")
        self.n = n
        self.adj = adj
        self.closed = tuple(row | (1 << v) for v, row in enumerate(adj))
        self.full_mask = (1 << n) - 1
        self.m = sum(row.bit_count() for row in adj) // 2
        self.name = name

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return (self.adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> VertexSet:
        _check_vertex(self, v)
        return VertexSet(self.n, self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in _iter_bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def __eq__(self, other: object) -> bool:
        # Structural equality; names are labels only.
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.m}{label})"


class ProductGraph:
    """A Cartesian product graph plus the (u, v) <-> id bookkeeping.

    `graph` is the product itself; `n_g` and `n_h` are the factor orders.
    Vertex (u, v) has id u * n_h + v.
    """

    __slots__ = ("graph", "n_g", "n_h")

    def __init__(self, graph: Graph, n_g: int, n_h: int):
        if n_g * n_h != graph.n:
            raise BadParameterError(
                f"product of {n_g} x {n_h} factors cannot have {graph.n} vertices"
            )
        self.graph = graph
        self.n_g = n_g
        self.n_h = n_h

    def index(self, u: int, v: int) -> int:
        if not 0 <= u < self.n_g:
            raise BadVertexError(f"first-factor vertex {u} outside 0..{self.n_g - 1}")
        if not 0 <= v < self.n_h:
            raise BadVertexError(f"second-factor vertex {v} outside 0..{self.n_h - 1}")
        return u * self.n_h + v

    def pair(self, pid: int) -> tuple[int, int]:
        if not 0 <= pid < self.graph.n:
            raise BadVertexError(f"product vertex {pid} outside 0..{self.graph.n - 1}")
        return divmod(pid, self.n_h)

    def __repr__(self) -> str:
        return f"ProductGraph(n_g={self.n_g}, n_h={self.n_h}, n={self.graph.n})"


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise BadVertexError(f"vertex {v} outside 0..{g.n - 1}")


def _check_universe(g: Graph, s: VertexSet) -> None:
    if s.universe != g.n:
        raise BadVertexError(
            f"vertex set over universe {s.universe} used with a graph on {g.n} vertices"
        )


def make_graph(n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> Graph:
    """Build a graph from an edge list.  Duplicate edges collapse silently.

    Raises EmptyGraphError for n <= 0 and BadEdgeError for out-of-range
    endpoints or self-loops.
    """
    if n <= 0:
        raise EmptyGraphError(f"graphs must have at least one vertex, got n={n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadEdgeError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise BadEdgeError(f"self-loop ({u}, {v}) is not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, name)


def closed_neighborhood(g: Graph, v: int) -> VertexSet:
    """N[v]: v together with its neighbors."""
    _check_vertex(g, v)
    return VertexSet(g.n, g.closed[v])


def closed_neighborhood_set(g: Graph, s: VertexSet) -> VertexSet:
    """Union of closed neighborhoods over the members of s."""
    _check_universe(g, s)
    mask = 0
    for v in s:
        mask |= g.closed[v]
    return VertexSet(g.n, mask)


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True when every vertex of g lies in N[x] for some x in s."""
    _check_universe(g, s)
    mask = 0
    for v in s:
        mask |= g.closed[v]
        if mask == g.full_mask:
            return True
    return mask == g.full_mask


def cartesian_product(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product G x H: (u, v) ~ (u', v') iff u == u' and vv' in E(H),
    or v == v' and uu' in E(G).

    Raises SizeOverflowError when the product would exceed MAX_PRODUCT_VERTICES.
    """
    n = g.n * h.n
    if n > MAX_PRODUCT_VERTICES:
        raise SizeOverflowError(
            f"product would have {n} vertices, above the limit of"
            f" {MAX_PRODUCT_VERTICES}"
        )
    n_h = h.n
    # For a fixed u, the G-direction edges of (u, v) land at (w * n_h + v) for
    # each neighbor w of u; precompute the w * n_h bit spread once per u.
    spread_g = []
    for u in range(g.n):
        s = 0
        for w in _iter_bits(g.adj[u]):
            s |= 1 << (w * n_h)
        spread_g.append(s)
    rows = [0] * n
    for u in range(g.n):
        base = u * n_h
        for v in range(n_h):
            rows[base + v] = (h.adj[v] << base) | (spread_g[u] << v)
    name = None
    if g.name and h.name:
        name = f"{g.name} x {h.name}"
    return ProductGraph(Graph(n, rows, name), g.n, n_h)


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0 over bitmask rows."""
    visited = 1
    frontier = 1
    while frontier:
        step = 0
        for v in _iter_bits(frontier):
            step |= g.adj[v]
        frontier = step & ~visited
        visited |= frontier
    return visited == g.full_mask


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def path(n: int) -> Graph:
    """Path on n >= 1 vertices: edges (i, i+1)."""
    if n < 1:
        raise BadParameterError(f"path needs n >= 1, got {n}")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise BadParameterError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return make_graph(n, edges, name=f"C{n}")


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise BadParameterError(f"complete needs n >= 1, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, edges, name=f"K{n}")


def star(n: int) -> Graph:
    """Star on n >= 1 vertices: vertex 0 joined to every other vertex."""
    if n < 1:
        raise BadParameterError(f"star needs n >= 1, got {n}")
    return make_graph(n, [(0, v) for v in range(1, n)], name=f"S{n}")


def grid(m: int, n: int) -> Graph:
    """m x n grid, row-major ids: vertex (i, j) is i * n + j.

    Definitionally the Cartesian product path(m) x path(n), and built that
    way so the id convention matches ProductGraph.
    """
    if m < 1 or n < 1:
        raise BadParameterError(f"grid needs m, n >= 1, got ({m}, {n})")
    pg = cartesian_product(path(m), path(n))
    return Graph(pg.graph.n, pg.graph.adj, name=f"grid{m}x{n}")


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a fixed seed; the same arguments always give the same graph.

    Pairs (u, v) with u < v are visited in lexicographic order and each is
    included independently with probability p.
    """
    if n < 1:
        raise BadParameterError(f"random_gnp needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"random_gnp needs 0 <= p <= 1, got {p}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges, name=f"gnp:{n}:{p}:{seed}")
