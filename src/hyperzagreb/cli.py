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

from .codec import CodecError, decode_graph6, encode_graph6, parse_edgelist
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
# 6,938 of them, 0.53-0.57 s as a command (README's limits, [L]).  A class
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


def _shown(text: str) -> str:
    """An argument as an error quotes it: at most its first 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


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
    return EXIT_OK, [
        f"step: {i} graph6: {encode_graph6(x)} hm: {hm}\n"
        for i, (x, hm) in enumerate(zip(chain, [hyper_zagreb(g), *chain.hms]))
    ]


def _cmd_coalesce(args) -> tuple[int, Iterable[str]]:
    g = _load_graph(args.input)
    h = _load_graph(args.other)
    _check_order(g.n + h.n - 1)
    merged = coalesce(g, args.at, h, args.to)
    return EXIT_OK, [f"graph6: {encode_graph6(merged)}\nhm: {hyper_zagreb(merged)}\n"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperzagreb",
        description=(
            "Exact Hyper-Zagreb index toolkit: compute indices, build the "
            "named extremal families, enumerate tree/unicyclic classes, rank "
            "them, and verify the extremal-ordering claims."
        ),
        epilog="Catalog keys: " + ", ".join(CATALOG),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser("compute", parents=[out],
                       help="indices of a graph file (edge list or graph6)")
    p.add_argument("input", help="path or '-' for stdin")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("family", parents=[out],
                       help="build a catalog family and audit its value")
    p.add_argument("key")
    p.add_argument("n", type=_integer)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("enumerate", parents=[out], help="emit one graph6 line per class")
    p.add_argument("klass", choices=["trees", "unicyclic"])
    p.add_argument("n", type=_integer)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("rank", parents=[out], help="top-k classes by index value")
    p.add_argument("klass", choices=["trees", "unicyclic"])
    p.add_argument("n", type=_integer)
    p.add_argument("-k", type=_integer, default=8)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="check the ordering claims / property suite")
    vsub = p.add_subparsers(dest="klass", required=True)
    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--format", choices=["text", "json"], default="text")
    report.set_defaults(func=_cmd_verify)
    ranged = argparse.ArgumentParser(add_help=False, parents=[report])
    ranged.add_argument("range", nargs="?", help="N or LO..HI")
    pt = vsub.add_parser("trees", parents=[ranged], help="tree ordering claims")
    pt.add_argument("--discover-threshold", action="store_true",
                    dest="discover_threshold",
                    help="also report the smallest passing order")
    vsub.add_parser("unicyclic", parents=[ranged],
                    help="unicyclic ordering claims")
    pl = vsub.add_parser("lemmas", parents=[report], help="randomized lemma checks")
    pl.add_argument("--seed", type=_integer, default=0)
    pl.add_argument("--trials", type=_integer, default=10_000)
    vsub.add_parser("closed-forms", parents=[ranged],
                    help="closed forms of the catalog families")

    p = sub.add_parser("transform", help="apply a rewrite to an input graph")
    tsub = p.add_subparsers(dest="which", required=True)
    pr = tsub.add_parser("reduce", parents=[out],
                         help="monotone chain down to one pendant star")
    pr.add_argument("input")
    pr.set_defaults(func=_cmd_reduce)
    pc = tsub.add_parser("coalesce", parents=[out],
                         help="identify a vertex of one graph with one of another")
    pc.add_argument("input")
    pc.add_argument("other")
    pc.add_argument("--at", type=_integer, required=True, help="vertex in the first graph")
    pc.add_argument("--to", type=_integer, required=True, help="vertex in the second graph")
    pc.set_defaults(func=_cmd_coalesce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
        message = f"unknown family {exc.args[0]!r}; known: {', '.join(CATALOG)}"
    except ValueError as exc:
        code, message = EXIT_DOMAIN, str(exc)
    except OSError as exc:
        to_stdout = sink is sys.stdout
        if to_stdout:  # stdout is gone: let the flush at exit go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, message = EXIT_IO, f"cannot write {'stdout' if to_stdout else args.out}: {exc}"
    else:
        return code
    sys.stderr.write(f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
