"""The graph6 codec, cross-checked against networkx, and the edge-list writer."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from domlab import (
    BadParameterError,
    Graph6Error,
    complete,
    cycle,
    encode_graph6,
    format_edge_list,
    make_graph,
    parse_graph6,
    parse_graph6_lines,
    path,
    read_graph6_file,
    star,
)
from helpers import random_graph


def to_nx(g) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def nx_graph6(g) -> str:
    raw = nx.to_graph6_bytes(to_nx(g), header=False).decode("ascii")
    return raw.strip()


# ---------------------------------------------------------------------------
# Known strings
# ---------------------------------------------------------------------------


def test_single_edge_decodes_to_k2():
    g = parse_graph6("A_")
    assert g.n == 2
    assert list(g.edges()) == [(0, 1)]


def test_two_isolated_vertices():
    g = parse_graph6("A?")
    assert g.n == 2
    assert g.m == 0


def test_triangle_and_short_path():
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6(encode_graph6(path(3))) == path(3)


def test_header_prefix_is_tolerated():
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_encode_known_families():
    assert encode_graph6(complete(2)) == "A_"
    assert encode_graph6(make_graph(2, [])) == "A?"
    assert encode_graph6(complete(3)) == "Bw"


# ---------------------------------------------------------------------------
# Round trips and the networkx oracle
# ---------------------------------------------------------------------------


def test_round_trip_random_graphs():
    rng = random.Random(2024)
    for _ in range(100):
        g = random_graph(rng, max_n=13)
        assert parse_graph6(encode_graph6(g)) == g


def test_round_trip_families():
    for g in [path(1), path(7), cycle(6), complete(5), star(8)]:
        assert parse_graph6(encode_graph6(g)) == g


def test_encoding_agrees_with_networkx():
    rng = random.Random(555)
    for _ in range(60):
        g = random_graph(rng, max_n=12)
        assert encode_graph6(g) == nx_graph6(g)


def test_parsing_networkx_output():
    rng = random.Random(556)
    for _ in range(60):
        g = random_graph(rng, max_n=12)
        assert parse_graph6(nx_graph6(g)) == g


def test_largest_short_form_size():
    g = make_graph(62, [(0, 61)])
    assert parse_graph6(encode_graph6(g)) == g


def test_encode_rejects_oversized_graph():
    with pytest.raises(BadParameterError):
        encode_graph6(make_graph(63, []))


# ---------------------------------------------------------------------------
# Malformed input
# ---------------------------------------------------------------------------


def test_empty_string_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_long_form_size_byte_rejected():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("~??")
    assert exc.value.offset == 0


def test_truncated_body_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D")
    assert exc.value.offset == 1


def test_trailing_data_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("A_A")


def test_invalid_byte_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(130))
    assert exc.value.offset == 1


def test_nonzero_padding_rejected():
    # K2 body with a stray low bit set in the padding region.
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b100001))


def test_zero_vertex_graph_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("?")


def test_zero_vertex_line_names_its_number_and_offset_in_the_text():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6_lines("A_\nBw\n?\n")
    assert str(exc.value) == (
        "line 3: graph6 string encodes a graph with zero vertices (byte 6)"
    )


# ---------------------------------------------------------------------------
# Multi-graph text and files
# ---------------------------------------------------------------------------


def test_parse_lines_skips_blanks_and_header():
    text = ">>graph6<<A_\n\nBw\n"
    graphs = parse_graph6_lines(text)
    assert graphs == [complete(2), complete(3)]


def test_read_graph6_file(tmp_path):
    p = tmp_path / "corpus.g6"
    p.write_text("A_\nBw\n")
    assert read_graph6_file(str(p)) == [complete(2), complete(3)]


def test_bad_line_names_its_number_and_offset_in_the_text(tmp_path):
    # Line 3 is C~x after blanks and a header: parse_graph6 alone puts the
    # trailing byte at 2 of its payload; in the whole text it is at 18.
    text = "A_\n\n  >>graph6<<C~x\nBw\n"
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C~x")
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error) as exc:
        parse_graph6_lines(text)
    assert str(exc.value) == "line 3: trailing bytes after graph6 data (byte 18)"
    assert text[exc.value.offset] == "x"
    p = tmp_path / "bad.g6"
    p.write_bytes(text.replace("\n", "\r\n").encode())
    with pytest.raises(Graph6Error) as exc:
        read_graph6_file(str(p))
    assert str(exc.value) == (
        f"{str(p)!r} line 3: trailing bytes after graph6 data (byte 20)"
    )
    assert p.read_bytes()[exc.value.offset : exc.value.offset + 1] == b"x"


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def test_edge_list_matches_naive_rendering():
    rng = random.Random(808)
    for _ in range(40):
        g = random_graph(rng, max_n=10)
        edges = sorted(
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1
        )
        lines = [f"{g.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        assert format_edge_list(g) == "".join(line + "\n" for line in lines)


def test_edge_list_format_shape():
    text = format_edge_list(path(3))
    assert text == "3 2\n0 1\n1 2\n"
