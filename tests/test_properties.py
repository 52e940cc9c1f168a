"""Property tests: codec round trips, codec refusals and relabelling-invariant
codes.

Random Pruefer trees on up to 40 vertices, and such trees plus one extra
edge (connected unicyclic graphs); random text for the decoders.  Examples
are derandomized and bounded, so every run checks the same cases.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hyperzagreb.canon import canonical_code  # noqa: E402
from hyperzagreb.codec import (  # noqa: E402
    CodecError,
    decode_graph6,
    encode_graph6,
    format_edgelist,
    parse_edgelist,
)
from hyperzagreb.enumeration import prufer_edges  # noqa: E402
from hyperzagreb.graphs import Graph, make_graph  # noqa: E402

BOUNDED = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def trees_and_unicyclic(draw):
    n = draw(st.integers(2, 40))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    edges = prufer_edges(seq, n)
    if n >= 3 and draw(st.booleans()):
        present = {frozenset(e) for e in edges}
        absent = [p for p in combinations(range(n), 2) if frozenset(p) not in present]
        edges.append(draw(st.sampled_from(absent)))
    return make_graph(n, edges)


@BOUNDED
@given(trees_and_unicyclic())
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


@BOUNDED
@given(trees_and_unicyclic())
def test_edgelist_round_trip(g):
    assert parse_edgelist(format_edgelist(g)) == g


@BOUNDED
@given(st.data())
def test_canonical_code_invariant_under_relabelling(data):
    g = data.draw(trees_and_unicyclic())
    perm = data.draw(st.permutations(range(g.n)))
    twin = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_code(twin) == canonical_code(g)


# An edge list's ids, some past int()'s limit of 4,300 digits (leading
# zeros count), most lines holding two, with the format's blanks and '#'
# comments.
EDGELIST_IDS = st.one_of(
    st.from_regex("[0-9]{1,3}", fullmatch=True),
    st.tuples(st.sampled_from("019"), st.integers(4301, 4400)).map(lambda p: p[0] * p[1]),
)
EDGELIST_LINES = st.tuples(
    st.one_of(st.lists(EDGELIST_IDS, min_size=2, max_size=2), st.lists(EDGELIST_IDS, max_size=3)),
    st.sampled_from(" \t\r"),
    st.sampled_from(["", "#", " # c"]),
).map(lambda t: t[1].join(t[0]) + t[2])
EDGELIST_TEXTS = st.lists(EDGELIST_LINES, max_size=5).map("\n".join)
# printable ASCII, some of it after graph6's order openers
GRAPH6_TEXTS = st.tuples(
    st.sampled_from(["", "~", "~~", ">>graph6<<"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
).map("".join)


@BOUNDED
@given(EDGELIST_TEXTS, GRAPH6_TEXTS)
def test_codecs_return_a_graph_or_raise_codec_error(edgelist, graph6):
    for decode, text in ((parse_edgelist, edgelist), (decode_graph6, graph6)):
        try:
            assert isinstance(decode(text), Graph)
        except CodecError:
            pass
