"""Short-form graph6 codec (n <= 62) and a plain edge-list writer.

graph6 packs the upper triangle of the adjacency matrix in column order,
six bits per printable byte (offset 63).  The long form for n >= 63 is not
supported; inputs using it are rejected with a clear error.

The edge-list format ('n m', then one 'u v' line per edge) is written for
`domlab product --format edges`; domlab does not read it.
"""

from __future__ import annotations

from .errors import BadParameterError, Graph6Error
from .graphs import Graph, make_graph

GRAPH6_HEADER = ">>graph6<<"


def _column_order_pairs(n: int) -> list[tuple[int, int]]:
    # Bit k of the stream is edge (i, j): j runs 1..n-1, i runs 0..j-1.
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string; a leading '>>graph6<<' header is tolerated.

    Raises Graph6Error (with the byte offset into the payload) on malformed
    input, a string that encodes a zero-vertex graph included.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("long-form graph6 (n >= 63) is not supported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid size byte {s[0]!r}", 0)
    n = first - 63
    if n == 0:
        raise Graph6Error("graph6 string encodes a graph with zero vertices", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated graph6 data: need {need} bytes, have {len(body)}",
            1 + len(body),
        )
    if len(body) > need:
        raise Graph6Error("trailing bytes after graph6 data", 1 + need)
    pairs = _column_order_pairs(n)
    edges = []
    bit_index = 0
    for pos, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid data byte {ch!r}", 1 + pos)
        for shift in range(5, -1, -1):
            bit = (val >> shift) & 1
            if bit_index >= nbits:
                if bit:
                    raise Graph6Error("nonzero padding bits", 1 + pos)
            elif bit:
                edges.append(pairs[bit_index])
            bit_index += 1
    return make_graph(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a short-form graph6 string (requires n <= 62)."""
    if g.n > 62:
        raise BadParameterError(
            f"short-form graph6 supports at most 62 vertices, got {g.n}"
        )
    out = [chr(g.n + 63)]
    acc = 0
    count = 0
    for i, j in _column_order_pairs(g.n):
        acc = (acc << 1) | ((g.adj[i] >> j) & 1)
        count += 1
        if count == 6:
            out.append(chr(acc + 63))
            acc = 0
            count = 0
    if count:
        out.append(chr((acc << (6 - count)) + 63))
    return "".join(out)


def graph_name(g: Graph) -> str:
    """A graph's name in a report: its graph6 string, or `<n=N>` past the
    62 vertices that short-form graph6 can encode."""
    return encode_graph6(g) if g.n <= 62 else f"<n={g.n}>"


def parse_graph6_lines(text: str) -> list[Graph]:
    """Decode every nonblank line of a graph6 file body.  A bad line is a
    Graph6Error naming its 1-based number, at the fault's offset in `text`."""
    graphs = []
    start = 0
    try:
        for number, raw in enumerate(text.splitlines(keepends=True), 1):
            line = raw.strip()
            if line and line != GRAPH6_HEADER:
                graphs.append(parse_graph6(line))
            start += len(raw)
    except Graph6Error as exc:
        # parse_graph6 counts from the end of the line's header, if any.
        at = start + len(raw.rstrip()) - len(line.removeprefix(GRAPH6_HEADER))
        raise Graph6Error(f"line {number}: {exc.message}", at + exc.offset) from None
    return graphs


def read_graph6_file(path: str) -> list[Graph]:
    """Decode a graph6 file; a Graph6Error names it, at the fault's file offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_graph6_lines(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise Graph6Error(
            f"non-ASCII byte {data[exc.start]:#04x} in {path!r}", exc.start
        ) from None
    except Graph6Error as exc:
        raise Graph6Error(f"{path!r} {exc.message}", exc.offset) from None


def format_edge_list(g: Graph) -> str:
    """Encode a graph in the 'n m' / 'u v' text format, edges in lex order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
