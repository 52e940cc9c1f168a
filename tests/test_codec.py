import random
import tracemalloc

import pytest

from hyperzagreb.codec import (
    MAX_ORDER,
    CodecError,
    decode_graph6,
    encode_graph6,
    format_edgelist,
    parse_edgelist,
)
from hyperzagreb.families import build_catalog_member, cycle_with_stars, path
from hyperzagreb.graphs import Graph, make_graph


def test_known_encoding():
    # hand-packed: n=3 -> 'B', upper triangle 111 padded to 111000 -> 'w'
    assert encode_graph6(cycle_with_stars(3, [])) == "Bw"
    assert decode_graph6("Bw") == cycle_with_stars(3, [])


def test_round_trip_identity_labeling():
    g = path(4)
    assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 20)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = make_graph(n, edges)
        assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_large_order():
    g = build_catalog_member("S_n", 70)  # needs the long order form
    assert decode_graph6(encode_graph6(g)) == g


def test_header_accepted():
    assert decode_graph6(">>graph6<<Bw") == cycle_with_stars(3, [])
    assert decode_graph6("  Bw\n") == cycle_with_stars(3, [])
    assert decode_graph6("\tBw\r\n") == cycle_with_stars(3, [])
    assert decode_graph6(">>graph6<< Bw\n") == cycle_with_stars(3, [])


# each malformed input with its exact message, in the order the checks run
MALFORMED_GRAPH6 = [
    ("", "empty graph6 string"),
    ("\x01w", "invalid graph6 leading character '\\x01'"),
    # only space, tab, CR and LF are trimmed, not what else str.strip() drops
    ("\x1cBw", "invalid graph6 leading character '\\x1c'"),
    ("\x0bBw", "invalid graph6 leading character '\\x0b'"),
    (">>graph6<<\x1dBw", "invalid graph6 leading character '\\x1d'"),
    ("~??", "truncated graph6 order"),
    ("~?\x01?", "invalid graph6 order characters"),
    ("?", "graph6 order 0 not supported"),
    ("B", "graph6 body for n=3 needs 1 characters, got 0"),
    ("Bww", "graph6 body for n=3 needs 1 characters, got 2"),
    ("Bw\x1f", "graph6 body for n=3 needs 1 characters, got 2"),
    ("A\x7f\x7f", "graph6 body for n=2 needs 1 characters, got 2"),
    ("A\x7f", "invalid graph6 character '\\x7f'"),
    ("A\u00e9", "invalid graph6 character '\u00e9'"),
    # n=5: ten bits in two characters, the last four bits padding
    ("D\x7f@", "invalid graph6 character '\\x7f'"),
    ("D?@", "nonzero graph6 padding bits"),
    ("Bx", "nonzero graph6 padding bits"),
]


def test_malformed_graph6():
    for text, message in MALFORMED_GRAPH6:
        with pytest.raises(CodecError) as exc:
            decode_graph6(text)
        assert str(exc.value) == message, text


def test_edgelist_round_trip():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert parse_edgelist(format_edgelist(g)) == g


# each malformed edge list with its exact message; the edges are checked in
# input order, each for its range, then a self-loop, then a repeat
MALFORMED_EDGELIST = [
    ("", "empty edge list"),
    ("# only a comment\n", "empty edge list"),
    ("3\n0 1\n", "expected 'n m' header, got '3'"),
    ("3 2\n0 1\n", "header says 2 edges, found 1"),
    ("3 1\n0 x\n", "invalid edge-list character 'x' on line 2"),
    ("3 1\n0 1 2\n", "expected 'u v', got '0 1 2'"),
    ("2 1\n0 2\n", "edge (0,2) out of range 0..1"),
    ("258048 0\n", "order 258048 exceeds the limit of 258047 vertices"),
    ("0 0\n", "order must be >= 1, got 0"),
    ("3 1\n2 2\n", "self-loop at vertex 2"),
    ("3 2\n0 1\n1 0\n", "duplicate edge (1,0)"),  # named as given, reversed
    ("3 2 # h\n0 1 # e\n0 1\n", "duplicate edge (0,1)"),
    ("3 3\n0 1\n1 0\n0 5\n", "duplicate edge (1,0)"),  # the first defect wins
    ("3 3\n0 5\n0 1\n1 0\n", "edge (0,5) out of range 0..2"),
]


def test_edgelist_comments_and_errors():
    g = parse_edgelist("# a cycle\n3 3\n0 1\n1 2  # second edge\n0 2\n")
    assert g == cycle_with_stars(3, [])
    for text, message in MALFORMED_EDGELIST:
        with pytest.raises(CodecError) as exc:
            parse_edgelist(text)
        assert str(exc.value) == message, text
    with pytest.raises(CodecError, match="at most 258047 vertices"):
        encode_graph6(Graph(MAX_ORDER + 1, ((),) * (MAX_ORDER + 1)))


def test_edgelist_reads_only_its_grammar():
    # lines end at LF only; ids are plain decimal digits separated by
    # spaces, tabs or CRs; '#' comments may hold anything but LF
    assert parse_edgelist("3 3\r\n0 1\r\n1 2\r\n0 2\r\n") == cycle_with_stars(3, [])
    assert parse_edgelist("# c\x1c\n\n3 3 # head\n0\t1\n 1 2\n0 2") == cycle_with_stars(3, [])
    for bad in (
        "3 3\x1c0 1\x1d1 2\x1e0 2",  # separators str.splitlines breaks at
        "3 1\n0\x0b1\n", "3 1\n0\x0c1\n", "3 1\n0\x1f1\n",  # blanks to str.split
        "3 2\n0 +1\n1 2\n", "3 2\n0_0 2\n0 1\n",  # int() takes a sign and '_'
        "3 1\n0 -1\n", "3 1\n0 \u0661\n",  # a negative id, a non-ASCII digit
    ):
        with pytest.raises(CodecError, match="invalid edge-list character"):
            parse_edgelist(bad)


def test_graph6_agrees_with_networkx():
    # every order 1..80: n(n-1)/2 mod 6 takes each value it can (0, 1, 3, 4),
    # and 62/63 straddle the one- and four-character order forms
    nx = pytest.importorskip("networkx")
    rng = random.Random(16)
    remainders = set()
    for n in range(1, 81):
        remainders.add(n * (n - 1) // 2 % 6)
        for density in (0.0, 0.1, 0.5, 1.0, rng.random()):
            edges = [
                (u, v) for v in range(n) for u in range(v) if rng.random() < density
            ]
            g = make_graph(n, edges)
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(edges)
            text = nx.to_graph6_bytes(G, header=False).decode("ascii").strip()
            assert encode_graph6(g) == text
            assert decode_graph6(text) == g  # n and the sorted adj tuples
            assert decode_graph6(nx.to_graph6_bytes(G).decode("ascii")) == g
    assert remainders == {0, 1, 3, 4}


def _peak_bytes(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codec_memory_is_bounded():
    # a 4000-vertex graph6 body is 1.3 MB of text; the codec works on whole
    # characters, so neither direction holds a Python object per bit
    g = path(4000)
    text = encode_graph6(g)
    assert _peak_bytes(decode_graph6, text) < 8 * 2**20
    assert _peak_bytes(encode_graph6, g) < 8 * 2**20
    # the largest order with no edge: one empty neighbour list per vertex
    assert _peak_bytes(parse_edgelist, f"{MAX_ORDER} 0\n") < 24 * 2**20
