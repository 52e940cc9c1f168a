import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import hyperzagreb
import hyperzagreb.cli
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
    format_edgelist,
    parse_edgelist,
)
from hyperzagreb.families import cycle_with_stars
from hyperzagreb.graphs import make_graph
from hyperzagreb.rooted import cycle_adj, form_graph, path_form, star_form


def test_compute_edgelist(tmp_path, capsys):
    # the n = 15 triangle with a 2-edge path and ten leaves
    g = form_graph(cycle_adj(3), [(0, path_form(2)), (1, star_form(10))])
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


@pytest.mark.parametrize("text", [b"3 3\x1c0 1\x1d1 2\x1e0 2", b"3 2\n0 +1\n0_0 2\n"])
def test_edgelist_outside_its_grammar_exits_2(text, tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_bytes(text)
    assert main(["compute", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "invalid edge-list character" in captured.err


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


def _run_cli(argv, **kwargs):
    # a fresh interpreter, so write failures reach the process's own exit
    src = os.path.dirname(os.path.dirname(hyperzagreb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hyperzagreb.cli", *argv],
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


GRAPH_INPUT_COMMANDS = ["compute g", "transform reduce g", "transform coalesce g h --at 0 --to 0"]


@pytest.mark.parametrize("argv", GRAPH_INPUT_COMMANDS + [
    "family S_n 5", "enumerate trees 5", "rank trees 5", "verify lemmas",
])
def test_shared_options_parse_alike(argv):
    # a graph file's format is detected, never forced
    parse = _build_parser().parse_args
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
    ],
    ids=ascii,
)
def test_integers_are_ascii_decimal_digits(argv, capsys):
    # int() reads a sign, '_', blanks and non-ASCII digits as well
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value" in captured.err or "bad range" in captured.err


def test_negative_integers_still_parse(capsys):
    assert _exit_code(["verify", "trees", "-3"]) == 4
    assert _exit_code(["enumerate", "trees", "-1"]) == 4
    assert _exit_code(["verify", "lemmas", "--seed", "-1", "--trials", "30"]) == 0
    assert capsys.readouterr().out.startswith("seed: -1\n")


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
    from hyperzagreb.families import path

    f.write_text(encode_graph6(path(5)) + "\n")
    assert main(["transform", "reduce", str(f)]) == 4


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
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(argv, code, digest, capsys):
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
