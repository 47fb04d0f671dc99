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

# Largest product or CLI family graph, in vertices. A constant: cli copies it.
MAX_PRODUCT_VERTICES = 4096


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


class VertexSet:
    """Immutable set of vertex ids drawn from a fixed universe 0..universe-1.

    Backed by a single int bitmask, which the solver and the trace use
    directly.  `issubset` across universes raises BadVertexError rather than
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
    def full(cls, universe: int) -> "VertexSet":
        return cls(universe, (1 << universe) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.mask))

    def discard(self, v: int) -> "VertexSet":
        if not 0 <= v < self.universe:
            raise BadVertexError(f"vertex {v} outside 0..{self.universe - 1}")
        return VertexSet(self.universe, self.mask & ~(1 << v))

    def issubset(self, other: "VertexSet") -> bool:
        if self.universe != other.universe:
            raise BadVertexError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )
        return self.mask & ~other.mask == 0

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

    __slots__ = ("n", "adj", "closed", "full_mask", "m", "name", "_hash")

    def __init__(self, n: int, adj: Sequence[int], name: str | None = None):
        if n <= 0:
            raise EmptyGraphError(f"graphs must have at least one vertex, got n={n}")
        adj = tuple(adj)
        if len(adj) != n:
            raise BadEdgeError(f"expected {n} adjacency rows, got {len(adj)}")
        if not _rows_symmetric(n, adj):
            _raise_first_bad_row(n, adj)
        self.n = n
        self.adj = adj
        # From a list, not a generator.  A tuple built from a generator is
        # resized to fit, and when it dies it joins CPython's free list for
        # its length (up to 2,000 dead short tuples each), from which tuples
        # built this way never draw: one per graph fills the lists.
        self.closed = tuple([row | (1 << v) for v, row in enumerate(adj)])
        self.full_mask = (1 << n) - 1
        self.m = sum(row.bit_count() for row in adj) // 2
        self.name = name
        # Once per graph: the caches keyed by graphs hash them on every lookup.
        self._hash = hash((n, adj))

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
        return self._hash

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.m}{label})"


def _rows_symmetric(n: int, adj: tuple[int, ...]) -> bool:
    """True when the rows are a valid simple graph: bits in range, no
    self-loops, symmetric.  Each edge above the diagonal is checked against
    its mirror below it; then a bit below the diagonal without a mirror
    above shows as a surplus in the bit counts.  So every edge is walked
    once."""
    upper = 0
    for u, row in enumerate(adj):
        if row < 0 or row >> n or (row >> u) & 1:
            return False
        m = row >> (u + 1)
        upper += m.bit_count()
        while m:
            bit = m & -m
            m ^= bit
            if not (adj[u + bit.bit_length()] >> u) & 1:
                return False
    return 2 * upper == sum(row.bit_count() for row in adj)


def _raise_first_bad_row(n: int, adj: tuple[int, ...]) -> None:
    """Raise BadEdgeError for the first fault in row order."""
    for u, row in enumerate(adj):
        if row < 0 or row >> n:
            raise BadEdgeError(f"adjacency row {u} has bits outside 0..{n - 1}")
        if (row >> u) & 1:
            raise BadEdgeError(f"self-loop at vertex {u}")
        for v in _iter_bits(row):
            if not (adj[v] >> u) & 1:
                raise BadEdgeError(f"asymmetric edge ({u}, {v})")


class ProductGraph:
    """A Cartesian product graph and the factors it was built from.

    `graph` is G x H; `g` and `h` are G and H.  Vertex (u, v) has id
    u * h.n + v.  Only `cartesian_product` builds one.
    """

    __slots__ = ("graph", "g", "h")

    def __init__(self, graph: Graph, g: Graph, h: Graph):
        self.graph = graph
        self.g = g
        self.h = h

    def __repr__(self) -> str:
        return f"ProductGraph(n_g={self.g.n}, n_h={self.h.n}, n={self.graph.n})"


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
    # The G-direction neighbours of (u, v) are (w, v) for each neighbour w of u.
    spread_g = [_spread(row, n_h) for row in g.adj]
    rows = [0] * n
    for u in range(g.n):
        base = u * n_h
        for v in range(n_h):
            rows[base + v] = (h.adj[v] << base) | (spread_g[u] << v)
    return ProductGraph(Graph(n, rows), g, h)


def _spread(mask: int, width: int) -> int:
    """Bit x of `mask` moved to bit x * width: with `width` = n_H, the
    G-vertices of `mask` paired with H-vertex 0.  Times an H-mask m the
    shifted copies of m do not overlap, so the product is `mask` x m."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= 1 << ((bit.bit_length() - 1) * width)
        mask ^= bit
    return out


def _project(mask: int, width: int) -> tuple[int, int]:
    """The G- and H-coordinates of a product mask's members, as two masks,
    with `width` = n_H."""
    row = (1 << width) - 1
    us = vs = 0
    bit = 1
    while mask:
        if mask & row:
            us |= bit
            vs |= mask & row
        mask >>= width
        bit <<= 1
    return us, vs


# ---------------------------------------------------------------------------
# Vertex orbits
# ---------------------------------------------------------------------------

# Work allowed to one `vertex_orbits` call, in steps: a vertex or an edge end
# visited by a refinement round or a breadth-first order, a pair of vertices
# considered, a candidate image tried or a mapped neighbor it is checked
# against, and a fixed charge of n + 2m per permutation found.
ORBIT_STEP_BUDGET = 100_000


def vertex_orbits(g: Graph, fixed: VertexSet | None = None) -> tuple[VertexSet, ...]:
    """The orbit of each vertex under the automorphisms of g that fix every
    vertex of `fixed` (all of Aut(g) by default), or a finer partition when
    the search runs out of steps.

    `orbits[v]` is the class of v.  Vertices are first coloured by degree,
    each fixed vertex in a colour of its own, and the colours refined by
    neighbor colours (no automorphism in the group changes a colour).  Then
    each class representative x, lowest id first, is tried against every
    vertex y of its colour: a backtracking search maps the vertices in
    breadth-first order from x, and a vertex's candidate images are the
    same-coloured neighbors of its parent's image that agree on adjacency
    with everything mapped so far.  Classes merge only along an
    automorphism that fixes every fixed vertex, built as one by `_map_from`;
    a search that fails proves x and y lie in different orbits.  After
    ORBIT_STEP_BUDGET steps the partition found so far is returned: its
    classes lie inside orbits, and any such partition is safe to branch on.
    """
    n = g.n
    adj = g.adj
    full = g.full_mask
    nbrs = [list(_iter_bits(row)) for row in adj]
    ends = n + 2 * g.m
    steps = 0
    budget = ORBIT_STEP_BUDGET

    colour = [row.bit_count() for row in adj]
    if fixed is not None:
        _check_universe(g, fixed)
        for v in fixed:
            colour[v] = n + v  # degrees are below n
    count = len(set(colour))
    # Refinement may spend half the budget; the search gets the rest.
    while steps + ends <= budget // 2:
        steps += ends
        sig = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n)]
        palette = {key: i for i, key in enumerate(sorted(set(sig)))}
        if len(palette) == count:
            break
        colour = [palette[key] for key in sig]
        count = len(palette)
    cells: dict[int, int] = {}
    for v in range(n):
        cells[colour[v]] = cells.get(colour[v], 0) | 1 << v

    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    def classes() -> tuple[VertexSet, ...]:
        masks = [0] * n
        for v in range(n):
            masks[find(v)] |= 1 << v
        return tuple(VertexSet(n, masks[find(v)]) for v in range(n))

    for x in range(n):
        cell = cells[colour[x]]
        # A smaller representative has closed its orbit; x either joined it
        # or is alone in its colour.
        if find(x) != x or cell == 1 << x:
            continue
        steps += ends
        if steps > budget:
            return classes()
        order, parent = _bfs_order(nbrs, full, x)
        failed: set[int] = set()
        for y in _iter_bits(cell & ~((1 << (x + 1)) - 1)):
            steps += 1
            ry = find(y)
            if ry <= x or ry in failed:
                continue
            image, steps = _map_from(adj, cells, colour, order, parent, y, steps, budget)
            if image is None:
                if steps > budget:
                    return classes()
                failed.add(ry)
                continue
            steps += ends
            for v in range(n):
                a, b = find(v), find(image[v])
                if a != b:
                    root[max(a, b)] = min(a, b)
            failed = {find(f) for f in failed}
    return classes()


def _bfs_order(nbrs: list[list[int]], full: int, x: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of every vertex from x, each further component
    from its lowest vertex, and each vertex's parent (-1 at a root)."""
    order: list[int] = []
    parent = [-1] * len(nbrs)
    seen = 0
    r = x
    while True:
        seen |= 1 << r
        order.append(r)
        i = len(order) - 1
        while i < len(order):
            v = order[i]
            i += 1
            for w in nbrs[v]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    parent[w] = v
                    order.append(w)
        unseen = full & ~seen
        if not unseen:
            return order, parent
        r = (unseen & -unseen).bit_length() - 1


def _map_from(
    adj: tuple[int, ...],
    cells: dict[int, int],
    colour: list[int],
    order: list[int],
    parent: list[int],
    y: int,
    steps: int,
    budget: int,
) -> tuple[list[int] | None, int]:
    """A colour-preserving permutation that maps order[0] to y and keeps
    adjacency, by backtracking over `order` on an explicit stack; None when
    there is none or the steps pass `budget`.  Also the steps spent so far.

    A complete image is a colour-preserving bijection (each fixed vertex has
    a colour of its own) that sends every edge to an edge, each edge checked
    when its later end is mapped; so it is an automorphism fixing every
    fixed vertex."""
    n = len(order)
    image = [-1] * n
    used = 0  # images taken
    done = 0  # vertices mapped
    rest = [0] * n  # untried candidates of each position
    rest[0] = 1 << y
    t = 0
    while t >= 0:
        z = order[t]
        if image[z] >= 0:
            used ^= 1 << image[z]
            done ^= 1 << z
            image[z] = -1
        mapped = adj[z] & done
        need = mapped.bit_count()
        c = rest[t]
        while c:
            bit = c & -c
            c ^= bit
            w = bit.bit_length() - 1
            steps += 1 + need
            if steps > budget:
                return None, steps
            row = adj[w]
            if (row & used).bit_count() != need:
                continue
            m = mapped
            while m:
                b = m & -m
                m ^= b
                if not row >> image[b.bit_length() - 1] & 1:
                    break
            else:
                break
        else:
            t -= 1
            continue
        rest[t] = c
        image[z] = w
        used |= bit
        done |= 1 << z
        t += 1
        if t == n:
            return image, steps
        z = order[t]
        p = parent[z]
        base = adj[image[p]] if p >= 0 else -1
        rest[t] = base & cells[colour[z]] & ~used
    return None, steps


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
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)], name=f"K{n}")


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
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows, name=f"gnp:{n}:{p}:{seed}")
