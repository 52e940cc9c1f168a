"""Command-line interface.

Subcommands: compute, family, enumerate, rank, verify, transform.
Exit codes are a stable contract: 0 success (verify: all pass, tie-noted
counts as pass), 1 ordering-claim failure, 2 input parse failure, 3 unknown
catalog key, 4 domain error (order below a family floor, a graph6 result
above MAX_OUTPUT_ORDER vertices and similar), 5 I/O failure.  Output never
contains timestamps; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .codec import CodecError, decode_graph6, encode_graph6, parse_edgelist
from .enumeration import trees, unicyclic_graphs
from .families import (
    CATALOG,
    FamilyDomainError,
    UnknownFamilyError,
    build_catalog_member,
)
from .graphs import Graph, GraphError, classical_indices, hyper_zagreb
from .transforms import StructureError, coalesce, reduce_to_single_attachment
from .verify import (
    closed_form_audit,
    discover_tree_threshold,
    lemma_suite,
    family_codes,
    rank as rank_stream,
    verify_trees,
    verify_unicyclic,
)

# graph6 output is quadratic in the order; writing a graph of this order
# takes about a second, so family and transform refuse larger ones.
MAX_OUTPUT_ORDER = 4000

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


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    try:
        if fmt == "graph6":
            return decode_graph6(text)
        if fmt == "edgelist":
            return parse_edgelist(text)
        # auto: a leading digit (the "n m" header) or "#" (a comment) means
        # an edge list; graph6 never starts with either
        stripped = text.lstrip()
        if stripped[:1].isdigit() or stripped.startswith("#"):
            return parse_edgelist(text)
        return decode_graph6(text)
    except CodecError as exc:
        raise _CliFailure(EXIT_PARSE, f"parse failure: {exc}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _CliFailure(EXIT_PARSE, f"bad range {text!r}; use N or LO..HI") from None
    if lo > hi:
        raise _CliFailure(EXIT_DOMAIN, f"empty range {text!r}")
    return lo, hi


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {out}: {exc}") from exc


def _cmd_compute(args) -> int:
    g = _load_graph(args.input, args.input_format)
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
        _write_out(json.dumps(payload, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "m", "hm", "m1", "m2", "f", "identity"])
        w.writerow([g.n, g.num_edges, hm, zi.m1, zi.m2, zi.f, identity])
        _write_out(buf.getvalue(), args.out)
    else:
        _write_out(
            f"n: {g.n}\nm: {g.num_edges}\nhm: {hm}\nm1: {zi.m1}\nm2: {zi.m2}\n"
            f"f: {zi.f}\nidentity hm = f + 2*m2: {'ok' if identity else 'VIOLATED'}\n",
            args.out,
        )
    return EXIT_OK


def _check_output_order(n: int) -> None:
    """Refuse a graph6 result above MAX_OUTPUT_ORDER before computing it."""
    if n > MAX_OUTPUT_ORDER:
        raise _CliFailure(
            EXIT_DOMAIN,
            f"order {n} exceeds the graph6 output limit of {MAX_OUTPUT_ORDER}",
        )


def _cmd_family(args) -> int:
    if args.key in CATALOG:
        _check_output_order(args.n)
    try:
        g = build_catalog_member(args.key, args.n)
    except UnknownFamilyError:
        known = ", ".join(CATALOG)
        raise _CliFailure(
            EXIT_UNKNOWN_KEY, f"unknown family {args.key!r}; known: {known}"
        ) from None
    except FamilyDomainError as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    hm = hyper_zagreb(g)
    poly = CATALOG[args.key].poly
    value = poly.evaluate(args.n)
    flag = "EQUAL" if hm == value else "MISMATCH"
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
        _write_out(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        _write_out(
            f"key: {args.key}\nn: {args.n}\ngraph6: {encode_graph6(g)}\n"
            f"hm: {hm}\npolynomial: {value}\nstatus: {flag}\n",
            args.out,
        )
    return EXIT_OK if flag == "EQUAL" else EXIT_CLAIM_FAILED


def _cmd_enumerate(args) -> int:
    stream = trees(args.n) if args.klass == "trees" else unicyclic_graphs(args.n)
    count = 0
    try:
        sink = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
        try:
            for record in stream:
                sink.write(encode_graph6(record.graph()) + "\n")
                count += 1
            sink.flush()
        finally:
            if args.out:
                sink.close()
    except ValueError as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    except OSError as exc:
        if not args.out:  # stdout is gone: let the flush at exit go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _CliFailure(EXIT_IO, f"cannot write {args.out or 'stdout'}: {exc}") from None
    # keep the graph6 stream clean when it goes to stdout
    (sys.stdout if args.out else sys.stderr).write(f"count: {count}\n")
    return EXIT_OK


def _cmd_rank(args) -> int:
    kind = "tree" if args.klass == "trees" else "unicyclic"
    try:
        fams = family_codes(kind, args.n)
        stream = trees(args.n) if args.klass == "trees" else unicyclic_graphs(args.n)
        entries = rank_stream(stream, args.k, fams)
    except ValueError as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    if args.format == "json":
        payload = [e.to_json_dict() for e in entries]
        _write_out(json.dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["rank", "hm", "family", "graph6"])
        for e in entries:
            w.writerow([e.rank, e.hm, e.family_match or "", encode_graph6(e.graph)])
        _write_out(buf.getvalue(), args.out)
    else:
        _write_out("".join(e.to_text() + "\n" for e in entries), args.out)
    return EXIT_OK


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
    return report.to_text()


def _cmd_verify(args) -> int:
    chunks: list[str] = []
    ok = True
    if args.klass in ("trees", "unicyclic"):
        lo, hi = _parse_range(args.range or "15")
        for n in range(lo, hi + 1):
            try:
                report = verify_trees(n) if args.klass == "trees" else verify_unicyclic(n)
            except ValueError as exc:
                raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
            ok = ok and report.passed
            chunks.append(_render(report, args.format))
        if args.klass == "trees" and args.discover_threshold:
            thr = discover_tree_threshold(5, hi)
            chunks.append(
                f"discovered_threshold: {thr} (smallest n with the top-4 "
                "ordering; outside the stated claims)\n"
            )
    elif args.klass == "lemmas":
        try:
            report = lemma_suite(seed=args.seed, trials=args.trials)
        except ValueError as exc:
            raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
        ok = report.passed
        chunks.append(_render(report, args.format))
    else:  # closed-forms
        lo, hi = _parse_range(args.range or "15..45")
        try:
            report = closed_form_audit(lo, hi)
        except ValueError as exc:
            raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
        ok = report.passed
        chunks.append(_render(report, args.format))
    _write_out("".join(chunks), args.out)
    return EXIT_OK if ok else EXIT_CLAIM_FAILED


def _cmd_transform(args) -> int:
    if args.which == "reduce":
        g = _load_graph(args.input, args.input_format)
        _check_output_order(g.n)
        try:
            chain = reduce_to_single_attachment(g)
        except StructureError as exc:
            raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
        lines = [
            f"step: {i} graph6: {encode_graph6(x)} hm: {hyper_zagreb(x)}"
            for i, x in enumerate(chain)
        ]
        _write_out("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    # coalesce
    g = _load_graph(args.input, args.input_format)
    h = _load_graph(args.other, args.input_format)
    _check_output_order(g.n + h.n - 1)
    try:
        merged = coalesce(g, args.at, h, args.to)
    except GraphError as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    _write_out(
        f"graph6: {encode_graph6(merged)}\nhm: {hyper_zagreb(merged)}\n", args.out
    )
    return EXIT_OK


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

    p = sub.add_parser("compute", help="indices of a graph file (edge list or graph6)")
    p.add_argument("input", help="path or '-' for stdin")
    p.add_argument("--input-format", choices=["auto", "graph6", "edgelist"],
                   default="auto", dest="input_format")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("family", help="build a catalog family and audit its value")
    p.add_argument("key")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("enumerate", help="emit one graph6 line per class")
    p.add_argument("klass", choices=["trees", "unicyclic"])
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("rank", help="top-k classes by index value")
    p.add_argument("klass", choices=["trees", "unicyclic"])
    p.add_argument("n", type=int)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="check the ordering claims / property suite")
    p.add_argument("klass", choices=["trees", "unicyclic", "lemmas", "closed-forms"])
    p.add_argument("range", nargs="?", help="N or LO..HI (classes with an order)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--discover-threshold", action="store_true",
                   dest="discover_threshold",
                   help="also report the smallest passing order (trees)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="apply a rewrite to an input graph")
    tsub = p.add_subparsers(dest="which", required=True)
    pr = tsub.add_parser("reduce", help="monotone chain down to one pendant star")
    pr.add_argument("input")
    pr.add_argument("--input-format", choices=["auto", "graph6", "edgelist"],
                    default="auto", dest="input_format")
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_transform, which="reduce")
    pc = tsub.add_parser("coalesce", help="identify a vertex of one graph with one of another")
    pc.add_argument("input")
    pc.add_argument("other")
    pc.add_argument("--at", type=int, required=True, help="vertex in the first graph")
    pc.add_argument("--to", type=int, required=True, help="vertex in the second graph")
    pc.add_argument("--input-format", choices=["auto", "graph6", "edgelist"],
                    default="auto", dest="input_format")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_transform, which="coalesce")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
