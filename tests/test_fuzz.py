"""Fuzzing: malformed graph input raises only domlab errors or OSError.

The CLI maps DomLabError and OSError to exit codes, so any other exception
escaping these entry points would reach the user as a traceback.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (
    MAX_PRODUCT_VERTICES,
    DomLabError,
    parse_graph6,
    parse_graph6_lines,
)
from domlab.cli import resolve_graph

FUZZ = settings(derandomize=True, deadline=None, max_examples=400, database=None)

# Mostly the printable graph6 range, with some bytes on either side of it.
graph6_text = st.one_of(
    st.text(max_size=30),
    st.text(st.characters(min_codepoint=0, max_codepoint=130), max_size=30),
    st.text(max_size=30).map(lambda s: ">>graph6<<" + s),
)

small_ints = st.integers(min_value=-5, max_value=50)
# int() reads only decimal digits (category Nd), so this text never parses
# to an integer.
non_digit_text = st.text(st.characters(exclude_categories=("Nd",)), max_size=4)
# Family sizes: small ones that get built, and ones past the size guard.
family_ints = st.one_of(small_ints, st.integers(MAX_PRODUCT_VERTICES + 1, 10**30))


@st.composite
def graph_spec(draw):
    """Family specs with small or oversized integers, or text that goes to
    the graph6 parser."""
    head = draw(
        st.sampled_from(["path", "cycle", "complete", "star", "grid", "gnp", "Path", "paths", ""])
    )
    params = draw(
        st.lists(
            st.one_of(family_ints.map(str), st.floats().map(str), non_digit_text),
            max_size=3,
        )
    )
    if head == "grid" and len(params) == 2 and draw(st.booleans()):
        return f"grid:{params[0]}x{params[1]}"
    return ":".join([head, *params])


def _only_domlab_errors(fn, arg) -> None:
    try:
        fn(arg)
    except (DomLabError, OSError):
        pass


@FUZZ
@given(graph6_text)
def test_parse_graph6_raises_only_domlab_errors(text):
    _only_domlab_errors(parse_graph6, text)


@FUZZ
@given(st.lists(graph6_text, max_size=4).map("\n".join))
def test_parse_graph6_lines_raises_only_domlab_errors(text):
    _only_domlab_errors(parse_graph6_lines, text)


@FUZZ
@given(
    st.one_of(
        graph_spec(),
        graph6_text.filter(lambda s: ":" not in s and not s.startswith("@")),
    )
)
def test_resolve_graph_raises_only_domlab_errors(spec):
    # No "@file" specs: they read the file system.
    _only_domlab_errors(resolve_graph, spec)
