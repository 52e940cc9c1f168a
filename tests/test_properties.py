"""Property tests: codec round trips, codec refusals, relabelling-invariant
codes and the CLI's exit codes on hostile arguments.

Random Pruefer trees on up to 40 vertices, and such trees plus one extra
edge (connected unicyclic graphs); random text for the decoders; argument
lists drawn from the CLI's own parser.  Examples are derandomized and
bounded, so every run checks the same cases.
"""

import argparse
import contextlib
import io
import os
import sys
from itertools import combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hyperzagreb import cli  # noqa: E402
from hyperzagreb.canon import canonical_code  # noqa: E402
from hyperzagreb.codec import (  # noqa: E402
    CodecError,
    decode_graph6,
    encode_graph6,
    parse_edgelist,
)
from hyperzagreb.enumeration import prufer_edges  # noqa: E402
from hyperzagreb.graphs import Graph, make_graph  # noqa: E402
from reference import EVERY_COMMAND_WORD, format_edgelist  # noqa: E402

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


# The CLI as a user calls it: each subcommand of its whole parser with a
# value for every positional, in order, and a drawn subset of its options,
# each with its value, placed anywhere, plus at most one stray option.
# Values come from the parser's choices and from pools that hold hostile
# tokens: integers past int()'s 4,300-digit limit and 4,000-digit ones below
# it, of either sign, non-ASCII digits, hex, reversed and unbounded ranges,
# missing, binary and oversized-header files, stdin (closed here), a
# 3,000-character family key or choice and unwritable outputs.  The stray
# option may be a 5,000-character word that argparse cannot place.
LONG = "9" * 5000
NINES = "9" * 4000
POOLS = {
    "integer": [
        "0", "1", "3", "8", "-2", "21", "4001", LONG, NINES, "-" + NINES, "\u0661\u0660", "0x10",
    ],
    "range": ["8", "3..8", "8..9", "9..8", "0..4001", "1.." + LONG, "\u0661..\u0669", "8.."],
    "input": ["c3.g6", "p4.edges", "missing.g6", "binary.g6", "header.edges", "-"],
    "key": ["S_n", "T^9_n", "K" * 3000],
    "out": ["out.txt", "nodir/out.txt", "."],
}
POOLS["other"] = POOLS["input"]
FILES = {
    "c3.g6": b"Bw\n",
    "p4.edges": b"4 3\n0 1\n1 2\n2 3\n",
    "binary.g6": bytes(range(256)),
    "header.edges": b"9" * 4000 + b" 0\n",
}
STRAYS = [["-x"], ["-h"], ["--discover-threshold"], ["--seed", "3"], ["--format", "csv"], [LONG]]
ALWAYS = {"trials"}  # its default, 10,000 lemma trials, is the one slow default


def _leaves(parser, words=()):
    """(command words, parser) for every runnable subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, words + (name,))


def _values(action):
    if action.choices:
        return st.sampled_from([*action.choices, "forest", "x" * 3000])
    pool = POOLS["integer"] if action.type is cli._integer else POOLS[action.dest]
    return st.sampled_from(pool)


@st.composite
def cli_argv(draw):
    words, parser = draw(st.sampled_from(list(_leaves(cli._build_parser(EVERY_COMMAND_WORD)))))
    positionals, options = [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            positionals.append([draw(_values(action))])
        elif action.required or action.dest in ALWAYS or draw(st.booleans()):
            flag = draw(st.sampled_from(action.option_strings))
            options.append([flag] if action.nargs == 0 else [flag, draw(_values(action))])
    options += draw(st.lists(st.sampled_from(STRAYS), max_size=1))
    # options anywhere, positionals kept in their order
    slots = draw(st.permutations([None] * len(positionals) + options))
    queue = iter(positionals)
    return [*words, *(w for group in slots for w in group or next(queue))]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    home = tmp_path_factory.mktemp("cli")
    for name, data in FILES.items():
        (home / name).write_bytes(data)
    return home


@settings(BOUNDED, max_examples=100)  # about a second; every subcommand is drawn
@given(argv=cli_argv())
@example(argv=["compute", "-"])
@example(argv=["compute", "header.edges"])
@example(argv=["family", "K" * 3000, "8"])
@example(argv=["transform", "coalesce", "c3.g6", "binary.g6", "--at", "0", "--to", "0"])
@example(argv=["enumerate", "trees", "8", "--out", "nodir/out.txt"])
@example(argv=["family", "S_n", NINES])
@example(argv=["rank", "trees", "8", "-k", "-" + NINES])
@example(argv=["verify", "trees", "8", LONG])
@example(argv=["rank", "trees", "8", "--format", "x" * 3000])
def test_cli_exit_codes_on_drawn_arguments(cli_files, argv):
    # exit 0-5, argparse's usage error counting as 2, no exception escapes,
    # and with short file paths one error stays short; a parser built from
    # the argv's words acts as the whole tree does
    build, here, stdin = cli._build_parser, os.getcwd(), sys.stdin
    os.chdir(cli_files)
    sys.stdin = None  # what Python sets when descriptor 0 is closed
    try:
        code, out, err = _main(argv)
        with mock.patch.object(cli, "_build_parser", lambda words: build(EVERY_COMMAND_WORD)):
            assert _main(argv) == (code, out, err), argv
    finally:
        sys.stdin = stdin
        os.chdir(here)
    assert code in range(6), (argv, err[:400])
    assert len(err) <= 400, (argv, err[:400])


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()
