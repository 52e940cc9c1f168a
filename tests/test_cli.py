import argparse
import collections
import hashlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
import time

import pytest

import hyperzagreb
import hyperzagreb.cli
from hyperzagreb import verify
from hyperzagreb.cli import (
    MAX_CLASS_ORDER,
    MAX_OUTPUT_ORDER,
    MAX_RANK_K,
    MAX_REDUCE_ORDER,
    MAX_TRIALS,
    _build_parser,
    _load_graph,
    main,
)
from hyperzagreb.codec import (
    CodecError,
    decode_graph6,
    encode_graph6,
    parse_edgelist,
)
from hyperzagreb.families import CATALOG, cycle_with_stars
from hyperzagreb.graphs import make_graph
from hyperzagreb.rooted import form_graph, path_form, star_form
from reference import EVERY_COMMAND_WORD, format_edgelist


def test_compute_edgelist(tmp_path, capsys):
    # the n = 15 triangle with a 2-edge path and ten leaves
    g = form_graph(3, [(0, path_form(2)), (1, star_form(10))])
    f = tmp_path / "g.edges"
    lines = [f"{g.n} {g.num_edges}"] + [f"{u} {v}" for u, v in g.edges()]
    f.write_text("\n".join(lines) + "\n")
    assert main(["compute", str(f)]) == 0
    out = capsys.readouterr().out
    assert "hm: 2170" in out
    assert "identity hm = f + 2*m2: ok" in out


def test_compute_graph6(tmp_path, capsys):
    f = tmp_path / "c3.g6"
    f.write_text("Bw\n")
    assert main(["compute", str(f), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hm"] == 48 and payload["n"] == 3


@pytest.mark.parametrize("text", ["\x1cBw", "Bw\x1f", "\x0bBw"], ids=ascii)
def test_compute_refuses_graph6_with_control_characters(text, tmp_path, capsys):
    f = tmp_path / "c3.g6"
    f.write_text(text)
    assert main(["compute", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_compute_csv(tmp_path, capsys):
    # a triangle with one pendant vertex
    f = tmp_path / "g.edges"
    f.write_text("4 4\n0 1\n1 2\n2 0\n2 3\n")
    assert main(["compute", str(f), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n,m,hm,m1,m2,f,identity\r\n4,4,82,18,19,44,True\r\n"


def test_compute_parse_failure(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3 9\n0 1\n")
    assert main(["compute", str(f)]) == 2


def test_compute_missing_file():
    assert main(["compute", "/nonexistent/path.g6"]) == 5


# valid apart from one non-ASCII character inside a comment
NON_ASCII_EDGELIST = "3 3  # tri\u00e1ngulo\n0 1\n1 2\n0 2\n".encode("utf-8")


def test_non_ascii_file_is_a_parse_failure(tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_bytes(NON_ASCII_EDGELIST)
    assert main(["compute", str(f)]) == 2
    assert main(["transform", "reduce", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.startswith("error: ") for line in captured.err.splitlines()] == [True] * 2


def test_non_ascii_stdin_is_a_parse_failure(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NON_ASCII_EDGELIST)))
    assert main(["compute", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_edgelist_order_above_graph6_limit(tmp_path, capsys):
    f = tmp_path / "huge.edges"
    f.write_text("258048 0\n")
    assert main(["compute", str(f)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "258047" in err


@pytest.mark.parametrize(
    "text", ["1" * 5000 + " 0", "3 2\n0 1\n1 " + "1" * 5000, "2 " + "0" * 4999 + "1\n0 1\n"]
)
def test_edgelist_integer_past_the_digit_limit_exits_2(text, tmp_path, capsys):
    # int() refuses more than 4,300 digits; the error quotes 20 of them
    f = tmp_path / "g.edges"
    f.write_text(text)
    assert main(["compute", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and captured.err.startswith("error: parse failure: ")
    assert not re.search("[0-9]{21}", captured.err)


def test_edgelist_vertex_id_below_the_digit_limit_is_quoted_short(tmp_path, capsys):
    # int() reads 4,000 digits; make_graph's range error then quotes 20 of them
    f = tmp_path / "g.edges"
    f.write_text("3 1\n0 " + "9" * 4000 + "\n")
    assert main(["compute", str(f)]) == 2
    shown = "99999999999999999999... (4000 characters)"
    err = f"error: parse failure: edge (0,{shown}) out of range 0..2\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("text", [b"3 3\x1c0 1\x1d1 2\x1e0 2", b"3 2\n0 +1\n0_0 2\n"])
def test_edgelist_outside_its_grammar_exits_2(text, tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_bytes(text)
    assert main(["compute", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "invalid edge-list character" in captured.err


def test_edgelist_line_with_three_ids_exits_2(tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_text("3 2\n0 1 2\n1 2\n")
    assert main(["compute", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parse failure: expected 'u v', got '0 1 2'\n"


def test_edgelist_with_leading_comment_is_auto_detected(monkeypatch, capsys):
    # graph6 never starts with '#', so a leading comment marks an edge list
    text = b"# a triangle\n3 3\n0 1\n1 2\n0 2\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text)))
    assert main(["compute", "-"]) == 0
    assert "hm: 48" in capsys.readouterr().out


def _valid_graph_files():
    # seeded graphs written both ways, with each variation a file may carry;
    # orders 63 and up take graph6's four-character order form
    rng = random.Random(19)
    for n in (1, 2, 5, 30, 62, 63, 70):
        g = make_graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3])
        g6, edges = encode_graph6(g), format_edgelist(g)
        for text in (g6, ">>graph6<<" + g6 + "\n", " \t\r\n" + g6 + " \r\n\n"):
            yield text, decode_graph6, parse_edgelist
        for text in (edges, "# seeded\n" + edges, "\n\n" + edges.replace("\n", "\n\n"),
                     edges.replace("\n", "\r\n")):
            yield text, parse_edgelist, decode_graph6


def test_load_graph_reads_every_valid_file_as_its_own_format(tmp_path):
    # the format is told apart by the first non-blank character, and no
    # valid file of one format parses as the other
    f = tmp_path / "g"
    for text, parser, other in _valid_graph_files():
        f.write_bytes(text.encode("ascii"))
        assert _load_graph(str(f)) == parser(text), ascii(text)
        with pytest.raises(CodecError):
            other(text)


def test_family_command(capsys):
    assert main(["family", "S_n", "6"]) == 0
    out = capsys.readouterr().out
    assert "hm: 180" in out and "status: EQUAL" in out
    assert main(["family", "T^3_n", "10"]) == 0
    out = capsys.readouterr().out
    assert "hm: 500" in out and "status: EQUAL" in out


def test_family_error_codes(capsys):
    assert main(["family", "T^9_n", "10"]) == 3
    capsys.readouterr()
    assert main(["family", "T^2_n", "5"]) == 4


def test_unknown_family_quotes_at_most_20_characters_of_the_key(capsys):
    known = ", ".join(CATALOG)
    assert main(["family", "T^9_n", "10"]) == 3
    assert capsys.readouterr() == ("", f"error: unknown family 'T^9_n'; known: {known}\n")
    assert main(["family", "K" * 3000, "10"]) == 3
    shown = "'KKKKKKKKKKKKKKKKKKKK'... (3000 characters)"
    assert capsys.readouterr() == ("", f"error: unknown family {shown}; known: {known}\n")


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "trees7.g6"
    assert main(["enumerate", "trees", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    assert capsys.readouterr().out == "count: 11\n"

    out = tmp_path / "uni4.g6"
    assert main(["enumerate", "unicyclic", "4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
    capsys.readouterr()

    out = tmp_path / "tree1.g6"
    assert main(["enumerate", "trees", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1


def test_enumerate_stdout_count_on_stderr(capsys):
    assert main(["enumerate", "trees", "4"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert captured.err == "count: 2\n"


def _run_cli(argv, module="hyperzagreb.cli", **kwargs):
    # a fresh interpreter, so write failures reach the process's own exit
    src = os.path.dirname(os.path.dirname(hyperzagreb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=env, stderr=subprocess.PIPE, text=True, **kwargs
    )


def _one_error_line(err):
    return len(err.splitlines()) == 1 and err.startswith("error: ")


def test_enumerate_into_a_closed_pipe_exits_5():
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `| head -1` leaves it, without the race
    try:
        proc = _run_cli(["enumerate", "trees", "14"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 5
    assert _one_error_line(proc.stderr), proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_enumerate_to_a_full_device_exits_5():
    proc = _run_cli(["enumerate", "trees", "12", "--out", "/dev/full"],
                    stdout=subprocess.PIPE)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert _one_error_line(proc.stderr), proc.stderr


_TRIANGLE = "3 3\n0 1\n1 2\n0 2\n"


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return open("/dev/full", "w")


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "w")


@pytest.mark.parametrize("stdout", [_full_device, _closed_pipe], ids=["full", "closed-pipe"])
@pytest.mark.parametrize(
    "argv",
    [
        "compute -", "family S_n 5", "rank trees 10 -k 3", "verify trees 8",
        "transform reduce -", "enumerate trees 12", "enumerate trees 5 --out {tmp}/t.g6",
    ],
)
def test_failed_stdout_write_exits_5(argv, stdout, tmp_path):
    with stdout() as sink:
        proc = _run_cli(argv.format(tmp=tmp_path).split(), stdout=sink, input=_TRIANGLE)
    assert proc.returncode == 5
    assert _one_error_line(proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", ["enumerate unicyclic 2", "verify trees 4"])
def test_failed_command_creates_no_out_file(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate unicyclic 2",
        "rank trees 0",
        "rank unicyclic 8 -k 0",
        "verify lemmas --trials 0",
        "family S_n 258048",
        f"family S_n {MAX_OUTPUT_ORDER + 1}",
    ],
)
def test_enumerate_and_rank_domain_errors(argv, capsys):
    assert main(argv.split()) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_closed_form_audit_takes_any_range_in_constant_time(capsys):
    # each row compares two cubics once, so the range's size costs nothing
    start = time.perf_counter()
    assert main(["verify", "closed-forms", "15..1000000000"]) == 0
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line for line in captured.out.splitlines() if line.startswith("entry: ")]
    assert len(rows) == 20
    assert all(row.endswith(" checked: 999999986 status: EQUAL") for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        "rank unicyclic 40",
        f"rank trees {MAX_CLASS_ORDER['trees'] + 1} -k 3",
        # the window keeps every record and builds every survivor
        "rank trees 17 -k 1000000000",
        "enumerate trees 60",
        f"enumerate unicyclic {MAX_CLASS_ORDER['unicyclic'] + 1} --out {{tmp}}/u.g6",
        "verify unicyclic 15..60",
        # the top order is checked first: the lowest alone takes seconds
        f"verify unicyclic {MAX_CLASS_ORDER['unicyclic']}..{MAX_CLASS_ORDER['unicyclic'] + 1}",
        f"verify trees {MAX_CLASS_ORDER['trees'] + 1}",
        "verify lemmas --trials 1000000000",
    ],
)
def test_class_orders_and_trials_are_bounded(argv, tmp_path, capsys):
    start = time.perf_counter()
    assert main(argv.format(tmp=tmp_path).split()) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not os.listdir(tmp_path)


def test_bounds_admit_the_documented_workloads():
    # README, the tests and the benchmark run trees to 20, unicyclic
    # graphs to 17, 10,000 lemma trials and rank -k 30
    assert MAX_CLASS_ORDER["trees"] >= 20 and MAX_CLASS_ORDER["unicyclic"] >= 17
    assert MAX_TRIALS >= 10_000
    assert MAX_RANK_K >= 30


def test_readme_states_every_limit_with_its_value():
    # the README names each MAX_* limit with its value, and no other
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    text = re.sub(r"(?<=\d),(?=\d{3})", "", " ".join(text.split()))
    limits = {k: v for k, v in vars(hyperzagreb.cli).items() if k.startswith("MAX_")}
    for name, value in limits.items():
        if isinstance(value, dict):
            stated = f"`{name}`: " + ", ".join(f"{v} for {k}" for k, v in value.items())
        else:
            stated = f"`{name}` = {value}"
        assert stated in text, stated
    assert set(re.findall(r"\bMAX_[A-Z_]+", text)) == set(limits)


# names the README places in a module that imports them: verify looks
# them up at each call, so a wrapper put there sees every class
README_IMPORTED_NAMES = {"verify.trees", "verify.unicyclic_graphs"}


def test_readme_names_only_what_the_package_has():
    # every backticked `module.name...` whose module is one of hyperzagreb's
    # resolves, attribute by attribute, and a function or class it names
    # first is defined in that module, not merely imported there; so does
    # every backticked `Class.name...` of a class defined in the package
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    modules = {m.name for m in pkgutil.iter_modules(hyperzagreb.__path__)}
    classes = {
        name: obj
        for m in modules if not m.startswith("_")
        for name, obj in vars(importlib.import_module(f"hyperzagreb.{m}")).items()
        if isinstance(obj, type) and obj.__module__ == f"hyperzagreb.{m}"
    }
    class_refs = [
        (first, rest.split(".")[1:])
        for first, rest in re.findall(r"`([A-Z]\w*)((?:\.\w+)+)", text)
        if first in classes
    ]
    assert len(class_refs) >= 6
    for first, attrs in class_refs:
        obj = classes[first]
        for attr in attrs:
            assert hasattr(obj, attr), f"{first}.{'.'.join(attrs)}"
            obj = getattr(obj, attr)
    refs = [
        (first, rest.split(".")[1:])
        for first, rest in re.findall(r"`([a-z_]+)((?:\.\w+)+)", text)
        if first in modules
    ]
    assert len(refs) >= 5
    for first, attrs in refs:
        module = f"hyperzagreb.{first}"
        obj = importlib.import_module(module)
        for attr in attrs:
            assert hasattr(obj, attr), f"{first}.{'.'.join(attrs)}"
            obj = getattr(obj, attr)
        home = getattr(getattr(sys.modules[module], attrs[0]), "__module__", module)
        assert home == module or f"{first}.{attrs[0]}" in README_IMPORTED_NAMES, (
            f"{first}.{attrs[0]} is defined in {home}"
        )


def test_readme_library_example_runs(capsys):
    # the Python block under "Library example" runs as written
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("[(1, ") and "verdict: fail\n" in out


# Each runnable subcommand's prog and its actions in order, as
# (option_strings, dest, nargs, choices, default, required, help): what its
# help and usage lines are rendered from, which themselves read differently
# from one Python version to the next.
HELP = (["-h", "--help"], "help", 0, None, "==SUPPRESS==", False, "show this help message and exit")
OUT = (["--out"], "out", None, None, None, False, None)
REPORT = (["--format"], "format", None, ["text", "json"], "text", False, None)
TABLE = (["--format"], "format", None, ["text", "json", "csv"], "text", False, None)
RANGE = ([], "range", "?", None, None, False, "N or LO..HI")
KLASS = ([], "klass", None, ["trees", "unicyclic"], None, True, None)
ORDER = ([], "n", None, None, None, True, None)
INPUT = ([], "input", None, None, None, True, None)
CLI_SURFACE = {
    "hyperzagreb compute": [
        HELP, OUT, ([], "input", None, None, None, True, "path or '-' for stdin"), TABLE,
    ],
    "hyperzagreb family": [HELP, OUT, ([], "key", None, None, None, True, None), ORDER, REPORT],
    "hyperzagreb enumerate": [HELP, OUT, KLASS, ORDER],
    "hyperzagreb rank": [HELP, OUT, KLASS, ORDER, (["-k"], "k", None, None, 8, False, None), TABLE],
    "hyperzagreb verify trees": [
        HELP, OUT, REPORT, RANGE,
        (["--discover-threshold"], "discover_threshold", 0, None, False, False,
         "also report the smallest passing order"),
    ],
    "hyperzagreb verify unicyclic": [HELP, OUT, REPORT, RANGE],
    "hyperzagreb verify lemmas": [
        HELP, OUT, REPORT, (["--seed"], "seed", None, None, 0, False, None),
        (["--trials"], "trials", None, None, 10000, False, None),
    ],
    "hyperzagreb verify closed-forms": [HELP, OUT, REPORT, RANGE],
    "hyperzagreb transform reduce": [HELP, OUT, INPUT],
    "hyperzagreb transform coalesce": [
        HELP, OUT, INPUT, ([], "other", None, None, None, True, None),
        (["--at"], "at", None, None, None, True, "vertex in the first graph"),
        (["--to"], "to", None, None, None, True, "vertex in the second graph"),
    ],
}


def _leaf_parsers(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs and parser.add_help:  # a bare, unnamed subcommand has no -h
        yield parser
    for action in subs:
        for sub in action.choices.values():
            yield from _leaf_parsers(sub)


def _surface(parser):
    return {
        p.prog: [
            (a.option_strings, a.dest, a.nargs, a.choices, a.default, a.required, a.help)
            for a in p._actions
        ]
        for p in _leaf_parsers(parser)
    }


def test_parser_surface_is_pinned():
    assert list(_surface(_build_parser(EVERY_COMMAND_WORD)).items()) == list(CLI_SURFACE.items())
    # built from one leaf's words, the parser builds that leaf alike, and no other
    for prog, actions in CLI_SURFACE.items():
        assert _surface(_build_parser(prog.split()[1:])) == {prog: actions}


# Exit code and sha256 of stdout and stderr, with COLUMNS=80, of -h and
# --bogus on each of the 13 parsers and of eleven more usage errors, the
# first seven pinned while every call built every parser; the same under
# Python 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13.  3.13.13's own argparse
# prints an invalid choice's list unquoted and reads "--" before a subcommand
# as a separator, and 3.13's prints the help for -hx and refuses only the x
# of -hh=x; cli._Parser keeps the earlier releases' bytes for all of them.
EMPTY = hashlib.sha256(b"").hexdigest()
USAGE = {
    "-h":
        (0, "05f79e047372b68654ee966cf004ad01ece91fbcfa692a3a9040e5d24fc06eb2", EMPTY),
    "--bogus":
        (2, EMPTY, "f23014645da6ac870af344ff2ce303da41ed834c788cfc609dcc0fcd86f28529"),
    "compute -h":
        (0, "36fd54eaf765ba4fe818441566b4a650f0688a00a17014f655ae6d109a98031f", EMPTY),
    "compute --bogus":
        (2, EMPTY, "58cc34fa05f80ce92727ac5c8df78120f2d493956b769b86b1555f033eaf434a"),
    "family -h":
        (0, "25f8d1820a4bdc5311ea60d118a05c7dba2e85d409055a16bf1c743c5fc866f5", EMPTY),
    "family --bogus":
        (2, EMPTY, "57665b360220e80ecb1811151f776569670b0aa091f0b8ba86bd841be71e0dfa"),
    "enumerate -h":
        (0, "3a6855f43256d1b4dd0b49f1f090f0ed7490eebf5de5707a1f92b21a22683ab5", EMPTY),
    "enumerate --bogus":
        (2, EMPTY, "e6cc0df1c5ed0a048838e9c8431bbb5b7d5b68230683f4569bd385517a06a969"),
    "rank -h":
        (0, "a6bd50bf0293479186b8f97664deb703d07922068f97636ed61a2f56bfb90a9f", EMPTY),
    "rank --bogus":
        (2, EMPTY, "69153f9a18f27459e400c7fb257ce01ee0c52d1889c3642d17723e42a00f16e2"),
    "verify -h":
        (0, "b365c9063302182a5d53fa53ad43fc322be0132c28974abd25cd537f933bc075", EMPTY),
    "verify --bogus":
        (2, EMPTY, "96ac1f3595ebd2eccaf64ae5a7bc0fa4f633ad4e49e8e57e5b8bb61b2894b233"),
    "verify trees -h":
        (0, "072c9732ba9db50d64222f6739d852d00cb166248e09d4e14c686fb52c49c4b8", EMPTY),
    "verify trees --bogus":
        (2, EMPTY, "4492a94ce33de3a361ecccb9412a0b1ca327b592fcd9f8fd72722417376dc431"),
    "verify unicyclic -h":
        (0, "65bcd3d632714cff1bbd4a02fe71256a40800c0c150216b4fadde3f3b06ed67f", EMPTY),
    "verify unicyclic --bogus":
        (2, EMPTY, "4492a94ce33de3a361ecccb9412a0b1ca327b592fcd9f8fd72722417376dc431"),
    "verify lemmas -h":
        (0, "2e0a3e7d5c36fbced341d2f34af326601a1ee9eeaa327eb06a1857ceeca0ba66", EMPTY),
    "verify lemmas --bogus":
        (2, EMPTY, "4492a94ce33de3a361ecccb9412a0b1ca327b592fcd9f8fd72722417376dc431"),
    "verify closed-forms -h":
        (0, "189689444dc8a82eba4df4ccf68f434ec58b6a8d9b18db12b146ab3e4a3c1bbf", EMPTY),
    "verify closed-forms --bogus":
        (2, EMPTY, "4492a94ce33de3a361ecccb9412a0b1ca327b592fcd9f8fd72722417376dc431"),
    "transform -h":
        (0, "f89479f688d2e722e39b23db0743d9b026a16ea8f43e3e40a2916057def7d152", EMPTY),
    "transform --bogus":
        (2, EMPTY, "998499aee31a044ab5ec9fc5b191b916dbc018e9210d3850c1878b4447c63386"),
    "transform reduce -h":
        (0, "6fd17f10718a8212c56169f3937ace75c0b50e39e8a7433ccaeb7ac31a7a3d37", EMPTY),
    "transform reduce --bogus":
        (2, EMPTY, "9250137c6b29e8889638d5a3d8e94414bc01c7ccb5254c585cf49f82412feef6"),
    "transform coalesce -h":
        (0, "6b0cd27448a8579ee3d30ceae7ba116f4528f4c388b75c75eb82539361701651", EMPTY),
    "transform coalesce --bogus":
        (2, EMPTY, "bbacc7aa38264cb7e03b1e39e8d692a51f8ff0b711fbe8c735cf8c9f3e4f488e"),
    "bogus":
        (2, EMPTY, "c8440ffff67fc1cb7f8b9cfe7f77cdf3cd22026fa810f1003d825c27bbe2d746"),
    "":
        (2, EMPTY, "f23014645da6ac870af344ff2ce303da41ed834c788cfc609dcc0fcd86f28529"),
    "verify":
        (2, EMPTY, "96ac1f3595ebd2eccaf64ae5a7bc0fa4f633ad4e49e8e57e5b8bb61b2894b233"),
    "transform":
        (2, EMPTY, "998499aee31a044ab5ec9fc5b191b916dbc018e9210d3850c1878b4447c63386"),
    "--bogus verify trees 8":
        (2, EMPTY, "4492a94ce33de3a361ecccb9412a0b1ca327b592fcd9f8fd72722417376dc431"),
    "-- verify trees 6":
        (2, EMPTY, "e57584f8efee18c3f4b26d5072abc27d3a87d834e02e9d5717488df0d83cad4a"),
    "verify trees 8 --bogus":
        (2, EMPTY, "4492a94ce33de3a361ecccb9412a0b1ca327b592fcd9f8fd72722417376dc431"),
    "-hx":
        (2, EMPTY, "eda2d82bad04b1afa5d28accc962a402b5712730d50cc338d067b5868206c3ed"),
    "verify -hx":
        (2, EMPTY, "71d85947d8465c30afcdde04cc8547656d401564b2a9630f243b344988381f8f"),
    "-h=x":
        (2, EMPTY, "eda2d82bad04b1afa5d28accc962a402b5712730d50cc338d067b5868206c3ed"),
    "-hh=x":
        (2, EMPTY, "ca5f17d438c70abc061639d247530a132e7c3db4a13a430eef6a18c076bc70be"),
}


def test_help_and_usage_bytes_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    seen = {}
    for line in USAGE:
        code = _exit_code(line.split())
        out, err = capsys.readouterr()
        seen[line] = (code, *(hashlib.sha256(s.encode()).hexdigest() for s in (out, err)))
    assert seen == USAGE


@pytest.mark.parametrize("argv,last_line", [
    ("verify -- trees 6", "argument klass: invalid choice: '--' (choose from 'trees', "
                          "'unicyclic', 'lemmas', 'closed-forms')"),
    ("transform -- reduce g", "argument which: invalid choice: '--' (choose from 'reduce', "
                              "'coalesce')"),
    ("--bogus -x=1 -- verify trees 6", "argument command: invalid choice: '--' (choose from "
                                       "'compute', 'family', 'enumerate', 'rank', 'verify', "
                                       "'transform')"),
    ("-5 -- verify", "argument command: invalid choice: '-5' (choose from 'compute', "
                     "'family', 'enumerate', 'rank', 'verify', 'transform')"),
    ("rank trees 5 --format bogus", "argument --format: invalid choice: 'bogus' (choose from "
                                    "'text', 'json', 'csv')"),
])
def test_choices_and_a_double_dash_read_alike_on_every_release(argv, last_line, capsys):
    # as argparse up to 3.13.0 reads them: choices quoted, and a "--" after
    # only unknown options, where the subcommand is named, is that name
    assert _exit_code(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].split("error: ", 1)[1] == last_line


def test_help_before_a_double_dash_still_acts(capsys):
    assert _exit_code("-h -- verify".split()) == 0
    assert capsys.readouterr().out.startswith("usage: hyperzagreb")


@pytest.mark.parametrize("argv,code,parsers,arguments", [
    ("compute g", 5, 7, 5), ("verify closed-forms 15..45", 0, 11, 6), ("-h", 0, 7, 1),
])
def test_a_call_builds_only_the_subcommands_it_names(
    argv, code, parsers, arguments, tmp_path, monkeypatch, capsys
):
    # building every parser, 13 of them with 49 arguments, took most of a
    # small call's time; an unnamed subcommand is listed but left bare
    counts = collections.Counter()

    def counted(real):
        def call(*args, **kwargs):
            counts[real] += 1
            return real(*args, **kwargs)
        return call

    init, add = argparse.ArgumentParser.__init__, argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted(init))
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted(add))
    monkeypatch.chdir(tmp_path)  # no file g
    assert _exit_code(argv.split()) == code
    capsys.readouterr()
    assert (counts[init], counts[add]) == (parsers, arguments)


GRAPH_INPUT_COMMANDS = ["compute g", "transform reduce g", "transform coalesce g h --at 0 --to 0"]


@pytest.mark.parametrize("argv", GRAPH_INPUT_COMMANDS + [
    "family S_n 5", "enumerate trees 5", "rank trees 5", "verify lemmas",
])
def test_shared_options_parse_alike(argv):
    # a graph file's format is detected, never forced
    parse = _build_parser(argv.split()).parse_args
    assert parse(argv.split()).out is None
    assert parse(argv.split() + ["--out", "o.txt"]).out == "o.txt"
    for bad in (["--input-format", "graph6"], ["--input-format", "edgelist"], ["--out"]):
        with pytest.raises(SystemExit) as exc:
            parse(argv.split() + bad)
        assert exc.value.code == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "trees", "1_0"], ["verify", "trees", "+9"], ["verify", "trees", " 9"],
        ["rank", "trees", "\u0661\u0660", "-k", "2"], ["rank", "trees", "8", "-k", "+3"],
        ["family", "S_n", "0_7"], ["verify", "closed-forms", "1_5..2_0"],
        ["verify", "lemmas", "--seed", "+1"], ["verify", "lemmas", "--trials", "1_0"],
        ["transform", "coalesce", "g", "h", "--at", "0", "--to", "\u0660"],
        # past int()'s 4,300-digit limit
        ["verify", "lemmas", "--seed", "9" * 5000], ["verify", "closed-forms", "1.." + "9" * 5000],
    ],
    ids=lambda argv: ascii(argv)[:80],
)
def test_integers_are_ascii_decimal_digits(argv, capsys):
    # int() reads a sign, '_', blanks and non-ASCII digits as well
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value" in captured.err or "bad range" in captured.err
    # no helper's name, and at most a short prefix of the argument
    assert "_integer" not in captured.err and "9" * 21 not in captured.err


def test_negative_integers_still_parse(capsys):
    assert _exit_code(["verify", "trees", "-3"]) == 4
    assert _exit_code(["enumerate", "trees", "-1"]) == 4
    assert _exit_code(["verify", "lemmas", "--seed", "-1", "--trials", "30"]) == 0
    assert capsys.readouterr().out.startswith("seed: -1\n")


NINES = "9" * 4000  # below int()'s 4,300-digit limit


@pytest.mark.parametrize(
    "argv,code",
    [
        (["family", "S_n", NINES], 4), (["verify", "trees", "--", "-" + NINES], 4),
        (["transform", "coalesce", "g", "g", "--at", NINES, "--to", "0"], 4),
        (["verify", "lemmas", "--trials", NINES], 4),
        (["rank", "trees", "8", "-k", "-" + NINES], 4),
        (["verify", "lemmas", "--trials", "-" + NINES], 4),
        (["verify", "trees", "8", "9" * 5000], 2),
        (["rank", "trees", "8", "--format", "x" * 3000], 2),
    ],
    ids=lambda v: ascii(v)[:60],
)
def test_errors_quote_at_most_20_characters_of_a_long_argument(
    argv, code, tmp_path, monkeypatch, capsys
):
    # a run of more than 20 digits in an error, and a word past argparse's
    # "argument NAME: ", are quoted as codec._shown quotes them
    (tmp_path / "g").write_text("Bg\n")
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    assert len(err) <= 400 and "... (" in err and not re.search(r"[0-9x]{21}", err)


def test_usage_errors_keep_the_argument_name_whole(capsys):
    assert _exit_code(["verify", "trees", "--discover-threshold=x"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(
        "error: argument --discover-threshold: ignored explicit argument 'x'\n"
    )


def test_a_range_with_a_negative_low_end_follows_a_double_dash(capsys):
    # without "--" argparse reads "-3..5" as an option
    assert _exit_code(["verify", "trees", "--", "-3..5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify_trees needs n >= 5, got -3\n"
    assert _exit_code(["verify", "closed-forms", "--", "-5..7"]) == 0
    assert capsys.readouterr().out.endswith("audit_verdict: pass\n")


@pytest.mark.parametrize("klass,name", [("trees", "trees"), ("unicyclic", "unicyclic_graphs")])
@pytest.mark.parametrize("command", ["verify", "rank", "enumerate"])
def test_class_commands_draw_from_the_verify_generators(command, klass, name, monkeypatch, capsys):
    # verify's trees and unicyclic_graphs are looked up at call time, so a
    # wrapper put there (the benchmark counts classes this way) sees every class
    real = getattr(verify, name)
    seen = []

    def counting(n):
        for record in real(n):
            seen.append(record)
            yield record

    monkeypatch.setattr(verify, name, counting)
    assert main([command, klass, "8"]) == 0
    capsys.readouterr()
    assert len(seen) == sum(1 for _ in real(8))


def test_rank_csv(capsys):
    assert main(["rank", "trees", "8", "-k", "3", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "rank,hm,family,graph6"
    assert rows[1].startswith("1,448,S_n,")


@pytest.mark.parametrize(
    "argv",
    [
        "verify trees 8 --trials 0 --seed 5",
        "verify unicyclic 10 --discover-threshold",
        "verify lemmas 15..20 --trials 10",
    ],
)
def test_verify_rejects_options_its_class_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_verify_trees_range(capsys):
    assert main(["verify", "trees", "8..10"]) == 0
    out = capsys.readouterr().out
    assert out.count("verdict: pass") == 3


def test_verify_unicyclic_report_only_exit_zero(capsys):
    # below the claim threshold the verdict is report-only, which passes
    assert main(["verify", "unicyclic", "8"]) == 0
    assert "verdict: report-only" in capsys.readouterr().out


def test_verify_closed_forms(capsys):
    assert main(["verify", "closed-forms", "15..20", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["scale_check"]["miscounted"] == 2614


def test_verify_refuses_an_empty_range(capsys):
    assert main(["verify", "closed-forms", "5..3"]) == 4
    assert capsys.readouterr() == ("", "error: empty range '5..3'\n")


def test_verify_lemmas_small(capsys):
    assert main(["verify", "lemmas", "--seed", "1", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "check: attachment-shift status: pass" in out


def test_verify_discover_threshold(capsys):
    assert main(["verify", "trees", "6..8", "--discover-threshold"]) == 0
    assert "discovered_threshold: 6" in capsys.readouterr().out
    assert main(["verify", "trees", "6..7", "--discover-threshold", "--format", "json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 3 and lines[-1] == {"discovered_threshold": 6}


def test_transform_reduce(tmp_path, capsys):
    from hyperzagreb.families import cycle_with_stars

    g = cycle_with_stars(5, [1, 1, 1, 1, 1])
    f = tmp_path / "g.g6"
    f.write_text(encode_graph6(g) + "\n")
    assert main(["transform", "reduce", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("hm: 260")
    assert lines[-1].endswith("hm: 530")
    # stdout sha256 of whole chains, pinned at the commit before reduce
    # carried its star counts from step to step
    for g6, digest in [
        ("K??_C?@???Zz",  # star-collapse
         "acd116a62bb267cd3025b6eb6768e8f514a36b35e55f91c4d4c1edd5f33b2170"),
        ("K_?_GuC_?AOG",  # non-adjacent sources, canonical-code tie-break
         "c422e6112b52ac4f4bf7e8f9194f83744578d609d9610b3e8342559a1e4a91b4"),
        ("K_?_?MC@??RH",  # two sources
         "74203c3289caf733e42a94df3394687a57fe334877d9a4b9622088072f16a22b"),
    ]:
        f.write_text(g6 + "\n")
        assert main(["transform", "reduce", str(f)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, g6


def test_transform_reduce_domain_error(tmp_path, capsys):
    f = tmp_path / "tree.g6"
    f.write_text(encode_graph6(form_graph(0, [(0, path_form(4))])) + "\n")
    assert main(["transform", "reduce", str(f)]) == 4


def test_transform_reduce_checks_every_step_rises(tmp_path, monkeypatch):
    # the command scores the chain itself and refuses one that does not rise
    monkeypatch.setattr(hyperzagreb.cli, "reduce_to_single_attachment", lambda g: [g, g])
    f = tmp_path / "g.g6"
    f.write_text(encode_graph6(cycle_with_stars(5, [1, 1, 1, 1, 1])) + "\n")
    with pytest.raises(AssertionError, match="merge step failed to increase the index"):
        main(["transform", "reduce", str(f)])


def test_transform_refuses_graph6_output_above_limit(tmp_path, capsys):
    # a triangle with a pendant path, one vertex above the output limit
    n = MAX_OUTPUT_ORDER + 1
    edges = [(0, 1), (1, 2), (2, 0)] + [(v - 1, v) for v in range(3, n)]
    big = tmp_path / "big.edges"
    big.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    # two paths whose coalesced graph has n vertices
    half = tmp_path / "half.edges"
    k = (n + 1) // 2
    half.write_text(f"{k} {k - 1}\n" + "".join(f"{v - 1} {v}\n" for v in range(1, k)))
    for argv in (
        ["transform", "reduce", str(big)],
        ["transform", "coalesce", str(half), str(half), "--at", "0", "--to", "0"],
    ):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and str(MAX_OUTPUT_ORDER) in captured.err


def test_transform_reduce_refuses_an_order_above_its_budget(tmp_path, capsys):
    # a leaf on every other cycle vertex is reduce's cubic worst case
    n = MAX_REDUCE_ORDER + 1
    counts = [1, 0] * (n // 3)
    counts[0] += n % 3
    f = tmp_path / "g.g6"
    f.write_text(encode_graph6(cycle_with_stars(len(counts), counts)) + "\n")
    start = time.perf_counter()
    assert main(["transform", "reduce", str(f)]) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order {n} exceeds the limit of {MAX_REDUCE_ORDER}\n"


def test_transform_coalesce(tmp_path, capsys):
    f1 = tmp_path / "a.g6"
    f2 = tmp_path / "b.g6"
    from hyperzagreb.families import build_catalog_member

    f1.write_text(encode_graph6(cycle_with_stars(3, [])) + "\n")
    f2.write_text(encode_graph6(build_catalog_member("S_n", 13)) + "\n")
    assert main([
        "transform", "coalesce", str(f1), str(f2), "--at", "0", "--to", "0",
    ]) == 0
    assert "hm: 3228" in capsys.readouterr().out


def test_output_deterministic(capsys):
    assert main(["rank", "unicyclic", "8", "-k", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["rank", "unicyclic", "8", "-k", "5"]) == 0
    assert capsys.readouterr().out == first


# Exit code and stdout sha256 of each invocation, pinned at the commit before
# the chain-evaluation, serializer and registry paths were merged.
GOLDEN = [
    ("rank unicyclic 12 -k 8", 0,
     "0d3ba9cb82fa1374d2b75a7193b7ac600f3eae2ff7f1ce2a977a9958f3003f49"),
    ("rank unicyclic 12 -k 8 --format json", 0,
     "39557e08bec29e9a625e7b0ec4139360975f2b73eb72339791b1ed2f0f28801e"),
    ("rank unicyclic 12 -k 8 --format csv", 0,
     "82b2aba63282d1adee8fdceac482f5acee985e46665c9b850ffed765c7a620e0"),
    ("rank trees 12 -k 5", 0,
     "e8d8dafef6557d97bfb8f5dfe4247d5ea903fd34e8a62c651ef514e21fe0c624"),
    ("verify trees 8..12", 0,
     "3663ed65996a2e1a4b7ca6b1843ad46893ee4b4b749c43391ef44eb05c41f1bc"),
    ("verify trees 6..8 --discover-threshold", 0,
     "892d220d4f8793fe2af2f2485ec8b4096e9df98d9ff8d34b507b79346918ec33"),
    ("verify unicyclic 10", 0,
     "26a1776afbc5632bdadfa392a9ccba4c77f685543914239f4b01425f3e4432d9"),
    ("verify unicyclic 10 --format json", 0,
     "54c6e89e4c2715ff9fbe8b09de449facafe280a423806bb2ddc9b647a6ab4cc5"),
    ("verify lemmas --seed 1 --trials 200", 0,
     "3e56a2e8deed5a0c37f4011a6bb6ed60f839fde70ec1669491fabe33991b0b8d"),
    ("verify lemmas --seed 1 --trials 200 --format json", 0,
     "8de6694f7695b194e36167aeebde7f6d8432fcff25d8a0cb0e8e78b9729be671"),
    ("verify closed-forms 15..20", 0,
     "bad1774b30123aa919a379a7c02902436a90249278784a8228b3f168d0d37bd0"),
    # the vertex labelling of enumerated classes and built families
    ("enumerate trees 10", 0,
     "33903105007336de4f214f30621f5360a25624cc376de23aa71681aee4e5dfae"),
    ("enumerate unicyclic 9", 0,
     "57b484610116f5db52319d0ece5bc9958eb771170387719d31218414ef5b8394"),
    ("family C_3(1,T^1_{n-3}) 12", 0,
     "c9ec35de56ec8e4e9f06639cdea3ba057cd41026a53b92761a08ccdbe6523edc"),
    ("family T^2_n 9 --format json", 0,
     "89f0ebe651f2b4de82c0e61094bf4bb6d1fede0703a5d970e005e4d307b5d774"),
    ("family S_n 7", 0,
     "11980f064bdf5e3d49516d57d480d71a99853ad7938014d721b83f5d48202177"),
    # deeper windows, through many compactions and tie groups; pinned before
    # the enumerators yielded class records instead of graphs
    ("rank unicyclic 14 -k 30 --format json", 0,
     "b7a22e517cca1bdfb33ff0aa551a048d8ff961f39534bd4738b71e8adc7bde14"),
    ("rank trees 16 -k 25 --format csv", 0,
     "43d9cb6315050ca0a46ad83207cc380038fadc5fb9b8e2f552acf61073fb965d"),
    # random trees through prufer_edges; pinned while it decoded with a heap
    ("verify lemmas --seed 0 --trials 10000 --format json", 0,
     "a6e9f4b0de9248629e8849e3b92d3052b9df493ea4c499d08184dbaa34ab3021"),
    # pinned before the reports' JSON came from their fields: the one
    # failing verdict (criterion 4), the bench's closed-forms pin and the
    # rank JSON in field order
    ("verify unicyclic 15", 1,
     "5f71dbf7263a78312f104c2a7dc408ded6661faa0f162cb4c2fa43c57986e768"),
    ("verify closed-forms 15..45 --format json", 0,
     "ed6d772a921003280be29b0fc3c394dfd417c8a419176122fcd91ff52d3085de"),
    ("rank trees 12 -k 5 --format json", 0,
     "ce3d94d0c132a3532ddc73a68b9da7bd702ae58720d66df3913ba4343d217899"),
    # pinned while every lemma check still built the graphs it measured
    ("verify lemmas --seed 3101 --trials 10000", 0,
     "70f66d85e6313822bb6759278d9b9997a7992726bbd8ee6efd6e77bca825b694"),
    ("verify lemmas --seed 7 --trials 10000 --format json", 0,
     "4dfe37dd2482b96f0e6a45c5eaa9f639e288ebc024396a9bb92f188722e8d5e7"),
    # the trial cap, MAX_TRIALS; pinned while the suite drew through
    # randrange, randint and sample
    ("verify lemmas --seed 0 --trials 100000 --format json", 0,
     "90a6939165647bec3968db94c516640522380f19b46cd4a5aad3102cddb0dcb4"),
    # the largest unicyclic order and rank window: 1,423 of its 10,120
    # survivors hang a bead of the registry's top size, 15 vertices, which
    # the walk scores from the bead's two parts; pinned while every size was
    # scored
    ("rank unicyclic 17 -k 10000 --format json", 0,
     "79b2f7d06f0a4f9a48b60789bcd4ace9f2a671d4f55eeb744c2e1187f4b585a5"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(argv, code, digest, capsys):
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _forged_audit(monkeypatch):
    # one table coefficient off by one: a MISMATCH row with mismatch lines
    key = "C_3(T^3_{n-2})"
    entry = CATALOG[key]
    monkeypatch.setitem(CATALOG, key, entry._replace(poly=entry.poly._replace(a0=entry.poly.a0 + 1)))
    return verify.closed_form_audit(15, 20)


def _failing_suite(monkeypatch):
    # one check with a counterexample, one without (counterexample null)
    return verify.SuiteReport(seed=7, trials=3, checks=(
        verify._tally("cycle-shrink", "4 <= m <= n <= 6", 6, ["m=5 n=6", "m=6 n=6"]),
        verify._tally("star-max-trees", "all trees, n <= 4", 5, []),
    ))


# sha256 of the text and then the JSON of two failing reports, pinned before
# the reports' JSON came from their fields
FAILING_REPORTS = {
    _forged_audit: "93f3a4cc15ae3671624696c51bc22d18f62117673c357f05226937e02e8a41e4",
    _failing_suite: "394881cfcfe6399415e871fb42025e0361142e2bd3c8c4237f826f696fb6c49d",
}


@pytest.mark.parametrize("build", FAILING_REPORTS, ids=lambda f: f.__name__)
def test_failing_reports_pinned(build, monkeypatch):
    report = build(monkeypatch)
    assert not report.passed
    out = hyperzagreb.cli._render(report, "text") + hyperzagreb.cli._render(report, "json")
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_REPORTS[build]


def test_package_runs_as_a_module():
    argv = "family S_n 7"
    proc = _run_cli(argv.split(), "hyperzagreb", stdout=subprocess.PIPE)
    assert (argv, proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()) in GOLDEN
