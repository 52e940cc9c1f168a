"""Command-line interface.

Subcommands: compute, family, enumerate, rank, verify, transform.
Each command returns its exit code and its output chunks; ``main`` writes
the chunks to stdout or ``--out`` and is the one place where an exception
becomes an exit code.  Exit codes are a stable contract: 0 success (verify:
all pass, tie-noted counts as pass), 1 ordering-claim failure, 2 input parse
failure, 3 unknown catalog key, 4 domain error (an order below a family
floor, an input above one of the MAX_* limits below, and similar), 5 I/O
failure (an unreadable input, or output that cannot be written, stdout
included).  Output never contains timestamps; identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from collections.abc import Iterable

from .codec import CodecError, _shown, decode_graph6, encode_graph6, parse_edgelist
from .families import CATALOG, UnknownFamilyError, build_catalog_member
from .graphs import Graph, classical_indices, hyper_zagreb
from .transforms import coalesce, reduce_to_single_attachment
from .verify import (
    class_stream,
    closed_form_audit,
    discover_tree_threshold,
    lemma_suite,
    family_codes,
    json_data,
    rank as rank_stream,
    verify_class,
)

# Each cap bounds a fixed amount of work.  graph6 output is quadratic in the
# order: 1,333,004 characters at 4000 vertices, about 5.5 GB at graph6's
# limit of 258,047, so family and transform refuse larger results.  reduce
# is cubic in the order: on 498 vertices, a 332-cycle with a leaf at every
# other vertex, it takes 165 steps over 13,695 candidate merges and keys
# 6,938 of them, 0.54-0.60 s as a command (README's limits, [M]).  A class
# run visits 823,065 classes at trees 20, and 880,840 at unicyclic 17 over
# the 141,083-form registry (about 3x per order).  lemmas runs at most
# 100,000 trials, linear in the trials.  The closed-form audit has no cap:
# it compares one derived cubic per family, whatever its range.  rank
# builds every survivor of its window, the k best and their ties, so k is
# capped at 10,000 too.
MAX_OUTPUT_ORDER = 4000
MAX_REDUCE_ORDER = 500
MAX_CLASS_ORDER = {"trees": 20, "unicyclic": 17}
MAX_RANK_K = 10_000
MAX_TRIALS = 100_000

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_PARSE = 2
EXIT_UNKNOWN_KEY = 3
EXIT_DOMAIN = 4
EXIT_IO = 5


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # started with descriptor 0 closed
                raise OSError("stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise _CliFailure(
            EXIT_PARSE, f"parse failure: non-ASCII byte at offset {exc.start} in {path}"
        ) from None


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    # a leading digit (the "n m" header) or "#" (a comment) means an edge
    # list; graph6 never starts with either
    stripped = text.lstrip()
    if stripped[:1].isdigit() or stripped.startswith("#"):
        return parse_edgelist(text)
    return decode_graph6(text)


# int() also reads '+', '_', blanks and non-ASCII digits
_DECIMAL = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The type of every integer argument: an optional '-', then ASCII digits
    (int() also refuses more than sys.get_int_max_str_digits() of them)."""
    if _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = _integer(lo_s), _integer(hi_s)
    except (argparse.ArgumentTypeError, ValueError):
        raise _CliFailure(EXIT_PARSE, f"bad range {_shown(text)}; use N or LO..HI") from None
    if lo > hi:
        raise _CliFailure(EXIT_DOMAIN, f"empty range {_shown(text)}")
    return lo, hi


def _check_order(n: int, limit: int = MAX_OUTPUT_ORDER, what: str = "order") -> None:
    """Refuse an order (or other size) above limit before building anything."""
    if n > limit:
        raise _CliFailure(EXIT_DOMAIN, f"{what} {n} exceeds the limit of {limit}")


def _cmd_compute(args) -> tuple[int, Iterable[str]]:
    g = _load_graph(args.input)
    hm = hyper_zagreb(g)
    zi = classical_indices(g)
    identity = hm == zi.f + 2 * zi.m2
    if args.format == "json":
        payload = {
            "n": g.n,
            "m": g.num_edges,
            "hm": hm,
            "m1": zi.m1,
            "m2": zi.m2,
            "f": zi.f,
            "identity_hm_eq_f_plus_2m2": identity,
        }
        return EXIT_OK, [json.dumps(payload, sort_keys=True) + "\n"]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "m", "hm", "m1", "m2", "f", "identity"])
        w.writerow([g.n, g.num_edges, hm, zi.m1, zi.m2, zi.f, identity])
        return EXIT_OK, [buf.getvalue()]
    return EXIT_OK, [
        f"n: {g.n}\nm: {g.num_edges}\nhm: {hm}\nm1: {zi.m1}\nm2: {zi.m2}\n"
        f"f: {zi.f}\nidentity hm = f + 2*m2: {'ok' if identity else 'VIOLATED'}\n"
    ]


def _cmd_family(args) -> tuple[int, Iterable[str]]:
    if args.key in CATALOG:
        _check_order(args.n)
    g = build_catalog_member(args.key, args.n)
    hm = hyper_zagreb(g)
    poly = CATALOG[args.key].poly
    value = poly.evaluate(args.n)
    flag = "EQUAL" if hm == value else "MISMATCH"
    code = EXIT_OK if flag == "EQUAL" else EXIT_CLAIM_FAILED
    if args.format == "json":
        payload = {
            "key": args.key,
            "n": args.n,
            "graph6": encode_graph6(g),
            "hm": hm,
            "polynomial": value,
            "coefficients": list(poly.coefficients()),
            "status": flag,
        }
        return code, [json.dumps(payload, sort_keys=True) + "\n"]
    return code, [
        f"key: {args.key}\nn: {args.n}\ngraph6: {encode_graph6(g)}\n"
        f"hm: {hm}\npolynomial: {value}\nstatus: {flag}\n"
    ]


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    _check_order(args.n, MAX_CLASS_ORDER[args.klass])
    stream = class_stream(args.klass, args.n)
    return EXIT_OK, (encode_graph6(record.graph()) + "\n" for record in stream)


def _cmd_rank(args) -> tuple[int, Iterable[str]]:
    _check_order(args.n, MAX_CLASS_ORDER[args.klass])
    _check_order(args.k, MAX_RANK_K, "k")
    fams = family_codes(args.klass, args.n)
    entries = rank_stream(class_stream(args.klass, args.n), args.k, fams)
    if args.format == "json":
        return EXIT_OK, [json.dumps([json_data(e) for e in entries]) + "\n"]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["rank", "hm", "family", "graph6"])
        for e in entries:
            w.writerow([e.rank, e.hm, e.family or "", e.graph6])
        return EXIT_OK, [buf.getvalue()]
    return EXIT_OK, [e.to_text() + "\n" for e in entries]


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(json_data(report), sort_keys=True) + "\n"
    return report.to_text()


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    if args.klass in ("trees", "unicyclic"):
        lo, hi = _parse_range(args.range or "15")
        _check_order(hi, MAX_CLASS_ORDER[args.klass])
        reports = [verify_class(args.klass, n) for n in range(lo, hi + 1)]
    elif args.klass == "lemmas":
        _check_order(args.trials, MAX_TRIALS, "trials")
        reports = [lemma_suite(seed=args.seed, trials=args.trials)]
    else:  # closed-forms
        lo, hi = _parse_range(args.range or "15..45")
        reports = [closed_form_audit(lo, hi)]
    chunks = [_render(report, args.format) for report in reports]
    if args.klass == "trees" and args.discover_threshold:
        thr = discover_tree_threshold(hi)
        if args.format == "json":
            chunks.append(json.dumps({"discovered_threshold": thr}) + "\n")
        else:
            chunks.append(
                f"discovered_threshold: {thr} (smallest n with the top-4 "
                "ordering; outside the stated claims)\n"
            )
    ok = all(report.passed for report in reports)
    return (EXIT_OK if ok else EXIT_CLAIM_FAILED), chunks


def _cmd_reduce(args) -> tuple[int, Iterable[str]]:
    g = _load_graph(args.input)
    _check_order(g.n)
    _check_order(g.n, MAX_REDUCE_ORDER)
    chain = reduce_to_single_attachment(g)
    hms = [hyper_zagreb(x) for x in chain]
    if any(a >= b for a, b in zip(hms, hms[1:])):
        raise AssertionError("merge step failed to increase the index")
    return EXIT_OK, [
        f"step: {i} graph6: {encode_graph6(x)} hm: {hm}\n"
        for i, (x, hm) in enumerate(zip(chain, hms))
    ]


def _cmd_coalesce(args) -> tuple[int, Iterable[str]]:
    g = _load_graph(args.input)
    h = _load_graph(args.other)
    _check_order(g.n + h.n - 1)
    merged = coalesce(g, args.at, h, args.to)
    return EXIT_OK, [f"graph6: {encode_graph6(merged)}\nhm: {hyper_zagreb(merged)}\n"]


def _invalid_choice(action, value) -> argparse.ArgumentError:
    choices = ", ".join(map(repr, action.choices))
    return argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


class _Parser(argparse.ArgumentParser):
    """argparse as Python 3.10.13-3.12.1 parse this CLI, on later releases too."""

    def error(self, message):  # words past the first ': ' quoted as codec._shown does
        name, sep, rest = message.partition(": ")
        super().error(name + sep + re.sub(r"\S{21,}", lambda w: _shown(w[0], str), rest))

    def _check_value(self, action, value):  # later releases leave the choices unquoted
        if action.choices is not None and value not in action.choices:
            raise _invalid_choice(action, value)

    def _parse_optional(self, arg_string):  # -hx: 3.10-3.12 refuse the x, 3.13 prints help
        tail = arg_string[2:].lstrip("h")  # -hh=x: they refuse "=x", 3.13 refuses "x"
        if (arg_string[:2] == "-h" and tail and tail[0] != "-" and arg_string[2] != "="
                and "-" + tail[0] not in self._option_string_actions):
            arg_string = "-h=" + tail  # -h=x and -h==x are refused alike on every release
        return super()._parse_optional(arg_string)

    def parse_known_args(self, args=None, namespace=None):
        # A "--" where the subcommand is named is refused as an invalid choice;
        # later releases skip it.  Only unknown options can come before it:
        # a positional word is the subcommand, and -h or its prefixes act first.
        commands = [a for a in self._actions if a.nargs == argparse.PARSER]
        for word in (args or ()) if commands else ():
            if word == "--":
                self.error(str(_invalid_choice(commands[0], word)))
            if (word[:1] != "-" or word == "-" or " " in word or word.startswith("-h")
                    or self._negative_number_matcher.match(word)
                    or word.partition("=")[0] in ("--", "--h", "--he", "--hel", "--help")):
                break
        return super().parse_known_args(args, namespace)


def _build_parser(words: list[str]) -> argparse.ArgumentParser:
    """The parser: every subcommand is listed (so choices, usage, help and
    errors read as with the whole tree), but only one named in words is
    built; the rest are bare, with no -h, arguments or subcommands.  argparse
    picks a subparser only by a whole argv word equal to its name, never by
    an abbreviation, so parsing the argv it was built from never reaches one."""

    def command(sub, name: str, help: str, func=None, formats=(), ranged=False):
        """Subcommand name; a leaf (with func) has --out, --format, range."""
        if name not in words:
            sub.add_parser(name, help=help, add_help=False)
            return None
        p = sub.add_parser(name, help=help)
        if func:
            p.add_argument("--out")
            p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if ranged:
            p.add_argument("range", nargs="?", help="N or LO..HI")
        return p

    parser = _Parser(
        prog="hyperzagreb",
        description=(
            "Exact Hyper-Zagreb index toolkit: compute indices, build the "
            "named extremal families, enumerate tree/unicyclic classes, rank "
            "them, and verify the extremal-ordering claims."
        ),
        epilog="Catalog keys: " + ", ".join(CATALOG),
    )
    sub = parser.add_subparsers(dest="command", required=True)  # of class _Parser

    if p := command(sub, "compute", "indices of a graph file (edge list or graph6)", _cmd_compute):
        p.add_argument("input", help="path or '-' for stdin")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    if p := command(sub, "family", "build a catalog family and audit its value", _cmd_family):
        p.add_argument("key")
        p.add_argument("n", type=_integer)
        p.add_argument("--format", choices=["text", "json"], default="text")

    if p := command(sub, "enumerate", "emit one graph6 line per class", _cmd_enumerate):
        p.add_argument("klass", choices=["trees", "unicyclic"])
        p.add_argument("n", type=_integer)

    if p := command(sub, "rank", "top-k classes by index value", _cmd_rank):
        p.add_argument("klass", choices=["trees", "unicyclic"])
        p.add_argument("n", type=_integer)
        p.add_argument("-k", type=_integer, default=8)
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    if p := command(sub, "verify", "check the ordering claims / property suite"):
        vsub = p.add_subparsers(dest="klass", required=True)
        if p := command(vsub, "trees", "tree ordering claims", _cmd_verify, ["text", "json"], True):
            p.add_argument("--discover-threshold", action="store_true",
                           help="also report the smallest passing order")
        command(vsub, "unicyclic", "unicyclic ordering claims", _cmd_verify, ["text", "json"], True)
        if p := command(vsub, "lemmas", "randomized lemma checks", _cmd_verify, ["text", "json"]):
            p.add_argument("--seed", type=_integer, default=0)
            p.add_argument("--trials", type=_integer, default=10_000)
        command(vsub, "closed-forms", "closed forms of the catalog families", _cmd_verify,
                ["text", "json"], True)

    if p := command(sub, "transform", "apply a rewrite to an input graph"):
        tsub = p.add_subparsers(dest="which", required=True)
        if p := command(tsub, "reduce", "monotone chain down to one pendant star", _cmd_reduce):
            p.add_argument("input")
        if p := command(tsub, "coalesce", "identify a vertex of one graph with one of another",
                        _cmd_coalesce):
            p.add_argument("input")
            p.add_argument("other")
            p.add_argument("--at", type=_integer, required=True, help="vertex in the first graph")
            p.add_argument("--to", type=_integer, required=True, help="vertex in the second graph")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    sink = None
    written = 0
    try:
        code, chunks = args.func(args)
        try:
            for chunk in chunks:
                if sink is None:  # opened late: a command that fails writes no file
                    sink = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
                sink.write(chunk)
                written += 1
            if sink is not None:
                sink.flush()
        finally:
            if args.out and sink is not None:
                sink.close()
        if args.command == "enumerate":  # the count stays off the graph6 stream
            sink = sys.stdout if args.out else sys.stderr
            sink.write(f"count: {written}\n")
            sink.flush()
    except _CliFailure as exc:
        code, message = exc.code, str(exc)
    except CodecError as exc:
        code, message = EXIT_PARSE, f"parse failure: {exc}"
    except UnknownFamilyError as exc:
        code = EXIT_UNKNOWN_KEY
        message = f"unknown family {_shown(exc.args[0])}; known: {', '.join(CATALOG)}"
    except ValueError as exc:
        code, message = EXIT_DOMAIN, str(exc)
    except OSError as exc:
        to_stdout = sink is sys.stdout
        if to_stdout:  # stdout is gone: let the flush at exit go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, message = EXIT_IO, f"cannot write {'stdout' if to_stdout else args.out}: {exc}"
    else:
        return code
    sys.stderr.write("error: " + re.sub(r"[0-9]{21,}", lambda d: _shown(d[0], str), message) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
