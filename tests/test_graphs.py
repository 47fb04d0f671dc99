"""Vertex sets, graph construction, products, and the builtin families."""

from __future__ import annotations

import itertools
import pickle
import random
import re
import time
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import domlab
import domlab.graphs as graphs_module
from domlab import harness
from domlab import (
    BadEdgeError,
    BadParameterError,
    BadVertexError,
    EmptyGraphError,
    Graph,
    SizeOverflowError,
    VertexSet,
    cartesian_product,
    closed_neighborhood_set,
    complete,
    cycle,
    encode_graph6,
    gamma_bb,
    grid,
    is_dominating,
    make_graph,
    path,
    random_gnp,
    solve_product,
    star,
    vertex_orbits,
)
from helpers import naive_closed_neighborhoods, naive_product_edges, random_graph


# ---------------------------------------------------------------------------
# VertexSet
# ---------------------------------------------------------------------------


def test_vertex_set_members_round_trip():
    s = VertexSet.from_members(8, [5, 1, 3, 1])
    assert s.members == (1, 3, 5)
    assert len(s) == 3
    assert 3 in s and 0 not in s


def test_vertex_set_empty_and_full():
    assert VertexSet(4).members == ()
    assert VertexSet.full(4).members == (0, 1, 2, 3)


def test_vertex_set_discard_is_persistent():
    t = VertexSet.from_members(6, [2, 4])
    assert t.discard(2).members == (4,)
    assert t.discard(5).members == (2, 4)
    assert t.members == (2, 4)
    with pytest.raises(BadVertexError):
        t.discard(6)


def test_vertex_set_algebra():
    a = VertexSet.from_members(6, [0, 1, 2])
    b = VertexSet.from_members(6, [2, 3])
    assert b.issubset(VertexSet.from_members(6, [0, 1, 2, 3]))
    assert VertexSet(6).issubset(b)
    assert not a.issubset(b)


def test_vertex_set_equality_and_hash():
    a = VertexSet.from_members(5, [1, 4])
    b = VertexSet.from_members(5, [4, 1])
    assert a == b
    assert hash(a) == hash(b)
    assert a != VertexSet.from_members(6, [1, 4])


def test_vertex_set_mixed_universe_rejected():
    a = VertexSet.from_members(5, [1])
    b = VertexSet.from_members(6, [1])
    with pytest.raises(BadVertexError):
        a.issubset(b)
    with pytest.raises(BadVertexError):
        VertexSet(5).issubset(b)


def test_vertex_set_out_of_range_member_rejected():
    with pytest.raises(BadVertexError):
        VertexSet.from_members(3, [3])
    with pytest.raises(BadVertexError):
        VertexSet.from_members(3, [-1])
    with pytest.raises(BadVertexError, match="outside 0..2"):
        VertexSet(3, 0b1000)
    with pytest.raises(BadParameterError, match="nonnegative"):
        VertexSet(-1)


# ---------------------------------------------------------------------------
# Graph construction and validation
# ---------------------------------------------------------------------------


def test_make_graph_basic_accessors():
    g = make_graph(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.adj[1] == 0b101
    assert g.closed[1] == 0b111
    assert g.full_mask == 0b1111


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        make_graph(0, [])
    with pytest.raises(EmptyGraphError):
        Graph(0, [])


def test_self_loop_rejected():
    with pytest.raises(BadEdgeError):
        make_graph(3, [(1, 1)])
    with pytest.raises(BadEdgeError, match="self-loop at vertex 0"):
        Graph(2, [1, 0])


def test_edge_out_of_range_rejected():
    with pytest.raises(BadEdgeError):
        make_graph(3, [(0, 3)])
    with pytest.raises(BadEdgeError):
        make_graph(3, [(-1, 0)])
    with pytest.raises(BadEdgeError, match="row 0 has bits outside 0..2"):
        Graph(3, [0b1000, 0, 0])
    with pytest.raises(BadEdgeError, match="expected 2 adjacency rows, got 1"):
        Graph(2, [0])


def test_asymmetric_edge_rejected():
    rows = list(path(5).adj)
    rows[0] &= ~(1 << 1)  # edge (1, 0) left only below the diagonal
    with pytest.raises(BadEdgeError, match=r"asymmetric edge \(1, 0\)"):
        Graph(5, rows)
    rows = list(path(5).adj)
    rows[3] |= 1  # a bit only below the diagonal
    with pytest.raises(BadEdgeError, match=r"asymmetric edge \(3, 0\)"):
        Graph(5, rows)
    rows = list(path(5).adj)
    rows[0] |= 1 << 3  # a bit only above the diagonal
    with pytest.raises(BadEdgeError, match=r"asymmetric edge \(0, 3\)"):
        Graph(5, rows)


def test_graph_equality_ignores_name():
    a = make_graph(3, [(0, 1)], name="left")
    b = make_graph(3, [(1, 0)], name="right")
    assert a == b
    assert hash(a) == hash(b)
    assert a != make_graph(3, [(0, 2)])


def test_graph_round_trips_through_pickle_with_its_hash():
    # A sweep with jobs > 1 pickles its graphs to the workers; the copy is
    # equal, keeps its name and hashes like the graph it came from.
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], name="P4")
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.name == "P4"
    assert hash(copy) == hash(g) == hash(path(4))


def test_closed_neighborhood_matches_naive():
    # `closed` is what the solver reads.
    rng = random.Random(101)
    for _ in range(40):
        g = random_graph(rng, max_n=9)
        ref = naive_closed_neighborhoods(g)
        for v in range(g.n):
            assert set(VertexSet(g.n, g.closed[v])) == ref[v]


def test_closed_neighborhood_set_is_union():
    g = path(5)
    s = VertexSet.from_members(5, [0, 3])
    assert closed_neighborhood_set(g, s).members == (0, 1, 2, 3, 4)


def test_is_dominating_examples():
    g = path(4)
    assert is_dominating(g, VertexSet.from_members(4, [1, 2]))
    assert is_dominating(g, VertexSet.from_members(4, [0, 2]))
    assert not is_dominating(g, VertexSet.from_members(4, [0, 1]))
    assert not is_dominating(g, VertexSet(4))
    assert is_dominating(complete(1), VertexSet.from_members(1, [0]))


def test_is_dominating_wrong_universe():
    with pytest.raises(BadVertexError):
        is_dominating(path(4), VertexSet.from_members(5, [0]))


# ---------------------------------------------------------------------------
# Cartesian product
# ---------------------------------------------------------------------------


def test_product_of_two_edges_is_a_four_cycle():
    pg = cartesian_product(complete(2), complete(2))
    assert pg.graph.n == 4
    assert sorted(pg.graph.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_product_with_single_vertex_preserves_factor():
    g = cycle(5)
    left = cartesian_product(g, complete(1)).graph
    right = cartesian_product(complete(1), g).graph
    assert sorted(left.edges()) == sorted(g.edges())
    assert sorted(right.edges()) == sorted(g.edges())


def test_product_edges_match_definition():
    rng = random.Random(77)
    for _ in range(30):
        g = random_graph(rng, max_n=5)
        h = random_graph(rng, max_n=5)
        pg = cartesian_product(g, h)
        assert set(pg.graph.edges()) == naive_product_edges(g, h)


def test_product_size_guard():
    with pytest.raises(SizeOverflowError):
        cartesian_product(complete(64), complete(65))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def test_path_structure():
    g = path(5)
    assert g.m == 4
    assert [row.bit_count() for row in g.adj] == [1, 2, 2, 2, 1]
    assert path(1).m == 0


def test_cycle_structure():
    g = cycle(5)
    assert g.m == 5
    assert all(row.bit_count() == 2 for row in g.adj)
    with pytest.raises(BadParameterError):
        cycle(2)


def test_complete_structure():
    g = complete(4)
    assert g.m == 6
    assert all(row.bit_count() == 3 for row in g.adj)


def test_complete_matches_its_edge_list():
    for n in range(1, 9):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert complete(n) == make_graph(n, edges)
        assert complete(n).name == f"K{n}"


def test_complete_builds_rows_without_an_edge_list():
    # K600 has 179,700 edges: as edge tuples they peak near 16 MB, while its
    # 600 rows of 600 bits take about 0.15 MB.
    tracemalloc.start()
    try:
        complete(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_star_center_is_vertex_zero():
    g = star(5)
    assert g.n == 5
    assert g.adj[0] == 0b11110
    assert all(g.adj[v] == 1 for v in range(1, 5))


def test_grid_is_product_of_paths():
    g = grid(3, 4)
    ref = cartesian_product(path(3), path(4)).graph
    assert g.n == 12
    assert sorted(g.edges()) == sorted(ref.edges())


def test_family_names():
    assert path(4).name == "P4"
    assert cycle(5).name == "C5"
    assert complete(3).name == "K3"
    assert star(5).name == "S5"
    assert grid(4, 4).name == "grid4x4"


def test_random_gnp_is_seed_deterministic():
    a = random_gnp(10, 0.4, seed=3)
    b = random_gnp(10, 0.4, seed=3)
    c = random_gnp(10, 0.4, seed=4)
    assert a == b
    assert a != c or sorted(a.edges()) == sorted(c.edges())


def test_random_gnp_matches_its_edge_list():
    # Each pair u < v draws once, in lexicographic order, so a seed names
    # the same graph as the edge list drawn in that order.
    for n, p, seed in [(1, 0.5, 0), (6, 0.5, 1), (12, 0.3, 7), (20, 0.8, 42)]:
        rng = random.Random(seed)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = random_gnp(n, p, seed)
        assert g == make_graph(n, edges)
        assert g.name == f"gnp:{n}:{p}:{seed}"


def test_random_gnp_builds_rows_without_an_edge_list():
    # As in test_complete_builds_rows_without_an_edge_list: the 44,850 edge
    # tuples of gnp:300:1.0 would peak near 3.3 MB, its rows take 0.05 MB.
    tracemalloc.start()
    try:
        random_gnp(300, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_random_gnp_extremes():
    assert random_gnp(6, 0.0, seed=1).m == 0
    assert random_gnp(6, 1.0, seed=1).m == 15
    with pytest.raises(BadParameterError):
        random_gnp(5, 1.5, seed=0)


# ---------------------------------------------------------------------------
# Vertex orbits
# ---------------------------------------------------------------------------


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def orbit_partition(g):
    return {frozenset(c) for c in vertex_orbits(g)}


def networkx_maps(big, x, y):
    """True when networkx finds an automorphism of `big` taking x to y."""
    def marked(v):
        out = big.copy()
        nx.set_node_attributes(out, {w: w == v for w in out}, "mark")
        return out

    matcher = GraphMatcher(
        marked(x), marked(y), node_match=lambda a, b: a["mark"] == b["mark"]
    )
    return next(matcher.isomorphisms_iter(), None) is not None


def networkx_orbits(g):
    """Orbits of Aut(g) from networkx: one GraphMatcher search per pair of
    equal-degree vertices, since listing every automorphism is out of reach
    on stars."""
    big = to_networkx(g)
    orbit_of = {}
    for x in range(g.n):
        if x in orbit_of:
            continue
        orbit = {x} | {
            y
            for y in range(x + 1, g.n)
            if y not in orbit_of
            and big.degree[y] == big.degree[x]
            and networkx_maps(big, x, y)
        }
        for v in orbit:
            orbit_of[v] = frozenset(orbit)
    return set(orbit_of.values())


def assert_partition(g, orbits):
    """`orbits` gives each vertex a class holding it, and no two classes
    overlap."""
    assert len(orbits) == g.n
    assert all(v in cls for v, cls in enumerate(orbits))
    assert sum(len(cls) for cls in set(orbits)) == g.n


def assert_sound(g, orbits):
    """`orbits` is a partition whose every class lies inside one orbit:
    networkx maps the least member to each other member."""
    assert_partition(g, orbits)
    big = to_networkx(g)
    for v, cls in enumerate(orbits):
        first = min(cls)
        if v != first:
            assert networkx_maps(big, first, v)


def test_vertex_orbits_match_networkx_on_small_connected_graphs():
    graphs = [g for n in range(1, 7) for g in harness.enumerate_connected_graphs(n)]
    assert len(graphs) == 143
    for g in graphs:
        assert orbit_partition(g) == networkx_orbits(g), encode_graph6(g)


def brute_force_automorphisms(g):
    """Every automorphism of g, as a tuple of images, by trying all n!
    permutations."""
    edges = list(g.edges())
    return [
        p
        for p in itertools.permutations(range(g.n))
        if all(g.adj[p[u]] >> p[v] & 1 for u, v in edges)
    ]


# C3 + C4 and its complement (connected, 4-regular) are regular, so colour
# refinement leaves all seven vertices one colour; only a failed search
# keeps the triangle's orbit apart from the square's.
C3_C4 = make_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
C3_C4_COMPLEMENT = make_graph(
    7, set(itertools.combinations(range(7), 2)) - set(C3_C4.edges())
)


def test_vertex_orbits_fixing_a_set_match_brute_force_stabilizers():
    # The orbits of the automorphisms that fix each vertex of a set, for
    # every set of vertices of every connected graph on <= 6 vertices, and
    # of the two regular graphs above.
    graphs = [g for n in range(1, 7) for g in harness.enumerate_connected_graphs(n)]
    graphs += [C3_C4, C3_C4_COMPLEMENT]
    checked = 0
    for g in graphs:
        autos = [
            (sum(1 << v for v in range(g.n) if p[v] == v), p)
            for p in brute_force_automorphisms(g)
        ]
        for fixed in range(1 << g.n):
            want = [0] * g.n
            for still, p in autos:
                if fixed & ~still == 0:
                    for v in range(g.n):
                        want[v] |= 1 << p[v]
            got = vertex_orbits(g, VertexSet(g.n, fixed))
            assert [cls.mask for cls in got] == want, (encode_graph6(g), fixed)
            checked += 1
    assert checked == 8_214
    assert vertex_orbits(path(5), VertexSet(5)) == vertex_orbits(path(5))
    with pytest.raises(BadVertexError):
        vertex_orbits(path(5), VertexSet.full(4))


def test_map_from_returns_only_automorphisms(monkeypatch):
    # `vertex_orbits` merges classes along every image `_map_from` returns
    # without checking it again, so each image must be a permutation that
    # sends edges to edges and fixes every fixed vertex.
    images = []
    real = graphs_module._map_from

    def recording(*args):
        image, steps = real(*args)
        if image is not None:
            images.append(image)
        return image, steps

    monkeypatch.setattr(graphs_module, "_map_from", recording)
    cases = [
        (g, fixed)
        for n in range(1, 7)
        for g in harness.enumerate_connected_graphs(n)
        for fixed in range(1 << n)
    ]
    assert len(cases) == 7_958
    cases.append((random_gnp(6, 0.4, 1508), 0))
    checked = 0
    for g, fixed in cases:
        images.clear()
        vertex_orbits(g, VertexSet(g.n, fixed))
        edges = {frozenset(e) for e in g.edges()}
        for p in images:
            where = (encode_graph6(g), fixed, p)
            assert sorted(p) == list(range(g.n)), where
            assert {frozenset((p[u], p[v])) for u, v in g.edges()} <= edges, where
            assert all(p[v] == v for v in range(g.n) if fixed >> v & 1), where
            checked += 1
    assert checked > 0


def test_solve_product_where_only_a_failed_search_splits_orbits():
    # Were the triangle and the square one orbit, the product search would
    # skip branches it needs and answer 5.
    pg = cartesian_product(C3_C4_COMPLEMENT, cycle(4))
    assert solve_product(pg).gamma == gamma_bb(pg.graph).gamma == 4


SIZES = [*range(1, 13), 16, 20, 25, 30]


@pytest.mark.parametrize(
    "g",
    [path(n) for n in SIZES]
    + [cycle(n) for n in SIZES if n >= 3]
    + [star(n) for n in SIZES]
    + [grid(m, n) for m in range(2, 6) for n in range(m, 16) if m * n <= 30],
    ids=lambda g: g.name,
)
def test_vertex_orbits_match_networkx_on_families(g):
    assert orbit_partition(g) == networkx_orbits(g)


def test_vertex_orbits_are_sound_and_exact_on_random_graphs():
    # Sparse seeded graphs, often disconnected, with isolated vertices and
    # pendant twins that automorphisms swap.
    for seed in range(40):
        n = 6 + seed % 9
        g = random_gnp(n, 0.15 + 0.05 * (seed % 4), seed)
        orbits = vertex_orbits(g)
        assert_sound(g, orbits)
        assert orbit_partition(g) == networkx_orbits(g)


def test_vertex_orbits_stay_in_budget_on_large_graphs():
    # Colour refinement would take 1,000 rounds on path:2000, and complete:64
    # needs a search and a permutation check per vertex; the step budget
    # cuts both short, and what comes back is still sound.  Cycles and
    # complete graphs are vertex-transitive, so any partition is sound on
    # them; a path's orbits are its mirror pairs.
    start = time.monotonic()
    for g in (path(2000), cycle(4096), complete(64)):
        orbits = vertex_orbits(g)
        assert_partition(g, orbits)
        if g.name == "P2000":
            assert all(set(cls) <= {v, 1999 - v} for v, cls in enumerate(orbits))
    g = random_gnp(300, 0.05, 1)
    assert_sound(g, vertex_orbits(g))
    assert time.monotonic() - start < 20


def test_vertex_orbits_budget_gives_a_finer_partition(monkeypatch):
    # With too few steps to map one vertex every class is a singleton; with
    # a few hundred, grid:4x5 gets some of its 6 orbits, and split ones.
    assert len(orbit_partition(cycle(12))) == 1
    assert len(orbit_partition(grid(4, 5))) == 6
    monkeypatch.setattr(graphs_module, "ORBIT_STEP_BUDGET", 30)
    assert orbit_partition(cycle(12)) == {frozenset([v]) for v in range(12)}
    monkeypatch.setattr(graphs_module, "ORBIT_STEP_BUDGET", 300)
    orbits = vertex_orbits(grid(4, 5))
    assert_sound(grid(4, 5), orbits)
    assert 6 < len(set(orbits)) < 20


# ---------------------------------------------------------------------------
# Package exports
# ---------------------------------------------------------------------------


def test_all_exports_resolve():
    assert len(set(domlab.__all__)) == len(domlab.__all__)
    missing = [name for name in domlab.__all__ if not hasattr(domlab, name)]
    assert missing == []
    # Every export has a caller in shipped code: a line of the package
    # (past its own `def` or `class` line and `__init__.py`), the benchmark,
    # the tools or the demos.  API that only tests call does not ship.
    root = Path(__file__).resolve().parent.parent
    shipped = [
        line
        for pattern in ("src/domlab/*.py", "bench/*.py", "tools/*.py", "demos/*.py")
        for file in sorted(root.glob(pattern))
        if file.name != "__init__.py"
        for line in file.read_text().splitlines()
    ]
    uncalled = [
        name
        for name in domlab.__all__
        if not any(
            re.search(rf"\b{name}\b", line)
            and not re.match(rf"\s*(def|class) {name}\b", line)
            for line in shipped
        )
    ]
    assert uncalled == []
