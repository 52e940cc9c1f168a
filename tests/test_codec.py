import random

import pytest

from hyperzagreb.codec import (
    CodecError,
    decode_graph6,
    encode_graph6,
    format_edgelist,
    parse_edgelist,
)
from hyperzagreb.families import cycle, path, star
from hyperzagreb.graphs import make_graph


def test_known_encoding():
    # hand-packed: n=3 -> 'B', upper triangle 111 padded to 111000 -> 'w'
    assert encode_graph6(cycle(3)) == "Bw"
    assert decode_graph6("Bw") == cycle(3)


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
    g = star(70)  # needs the long order form
    assert decode_graph6(encode_graph6(g)) == g


def test_header_accepted():
    assert decode_graph6(">>graph6<<Bw") == cycle(3)
    assert decode_graph6("  Bw\n") == cycle(3)


def test_malformed_graph6():
    with pytest.raises(CodecError):
        decode_graph6("")
    with pytest.raises(CodecError):
        decode_graph6("B")  # truncated body
    with pytest.raises(CodecError):
        decode_graph6("Bww")  # oversized body
    with pytest.raises(CodecError):
        decode_graph6("\x1cw")  # invalid order character


def test_edgelist_round_trip():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert parse_edgelist(format_edgelist(g)) == g


def test_edgelist_comments_and_errors():
    g = parse_edgelist("# a cycle\n3 3\n0 1\n1 2  # second edge\n0 2\n")
    assert g == cycle(3)
    with pytest.raises(CodecError):
        parse_edgelist("")
    with pytest.raises(CodecError):
        parse_edgelist("3\n0 1\n")
    with pytest.raises(CodecError):
        parse_edgelist("3 2\n0 1\n")  # edge count mismatch
    with pytest.raises(CodecError):
        parse_edgelist("3 1\n0 x\n")
    with pytest.raises(CodecError):
        parse_edgelist("2 1\n0 2\n")  # id out of range
    with pytest.raises(CodecError):
        parse_edgelist("258048 0\n")  # above the graph6 order limit
