"""Span tracing at the library's public entry points, from outside ``src/``.

The tracer replaces a name in the namespace of the module that calls it
(``hyperzagreb.verify.rank``, ``hyperzagreb.enumeration.make_graph``, ...)
with a wrapper that records one span per call and a count per entry point.
For a generator the span is the time spent inside each ``next()``.  Spans
are kept in flat arrays (name, start, end, parent) and only summarised when
the pass ends; a layer's self time is the sum of its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Iterable

# (calling module, attribute, layer name, kind).  A layer is named after the
# module that defines the function; the same function wrapped in several
# calling modules adds up under one layer.  kind "gen" marks generators.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("hyperzagreb.enumeration", "make_graph", "graphs.make_graph", "call"),
    ("hyperzagreb.codec", "make_graph", "graphs.make_graph", "call"),
    ("hyperzagreb.families", "make_graph", "graphs.make_graph", "call"),
    ("hyperzagreb.transforms", "make_graph", "graphs.make_graph", "call"),
    ("hyperzagreb.verify", "make_graph", "graphs.make_graph", "call"),
    ("hyperzagreb.enumeration", "form_edges", "rooted.form_edges", "call"),
    ("hyperzagreb.families", "form_edges", "rooted.form_edges", "call"),
    ("hyperzagreb.enumeration", "rooted_forms", "rooted.rooted_forms", "call"),
    ("hyperzagreb.verify", "unicyclic_graphs", "enumeration.unicyclic_graphs", "gen"),
    ("hyperzagreb.cli", "unicyclic_graphs", "enumeration.unicyclic_graphs", "gen"),
    ("hyperzagreb.verify", "trees", "enumeration.trees", "gen"),
    ("hyperzagreb.cli", "trees", "enumeration.trees", "gen"),
    ("hyperzagreb.verify", "hyper_zagreb", "graphs.hyper_zagreb", "call"),
    ("hyperzagreb.transforms", "hyper_zagreb", "graphs.hyper_zagreb", "call"),
    ("hyperzagreb.cli", "hyper_zagreb", "graphs.hyper_zagreb", "call"),
    ("hyperzagreb.verify", "rank", "verify.rank", "call"),
    ("hyperzagreb.cli", "rank_stream", "verify.rank", "call"),
    ("hyperzagreb.verify", "family_codes", "verify.family_codes", "call"),
    ("hyperzagreb.cli", "family_codes", "verify.family_codes", "call"),
    ("hyperzagreb.verify", "canonical_code", "canon.canonical_code", "call"),
    ("hyperzagreb.transforms", "canonical_code", "canon.canonical_code", "call"),
    ("hyperzagreb.cli", "decode_graph6", "codec.decode_graph6", "call"),
    ("hyperzagreb.cli", "parse_edgelist", "codec.parse_edgelist", "call"),
    ("hyperzagreb.cli", "encode_graph6", "codec.encode_graph6", "call"),
    ("hyperzagreb.verify", "encode_graph6", "codec.encode_graph6", "call"),
    ("hyperzagreb.verify", "coalesce", "transforms.coalesce", "call"),
    ("hyperzagreb.transforms", "coalesce", "transforms.coalesce", "call"),
    ("hyperzagreb.cli", "coalesce", "transforms.coalesce", "call"),
    ("hyperzagreb.verify", "reduce_to_single_attachment",
     "transforms.reduce_to_single_attachment", "call"),
    ("hyperzagreb.cli", "reduce_to_single_attachment",
     "transforms.reduce_to_single_attachment", "call"),
    ("hyperzagreb.verify", "build_catalog_member", "families.build_catalog_member", "call"),
    ("hyperzagreb.cli", "build_catalog_member", "families.build_catalog_member", "call"),
)

# Entry points the bench itself calls, keyed by its own namespace attribute.
BENCH_ENTRY_POINTS: dict[str, tuple[str, str]] = {
    "cli_main": ("cli.main", "call"),
    "labeled_oracle": ("enumeration.labeled_oracle", "call"),
    "trees": ("enumeration.trees", "gen"),
    "unicyclic_graphs": ("enumeration.unicyclic_graphs", "gen"),
    "canonical_code": ("canon.canonical_code", "call"),
    "decode_graph6": ("codec.decode_graph6", "call"),
    "parse_edgelist": ("codec.parse_edgelist", "call"),
    "encode_graph6": ("codec.encode_graph6", "call"),
    "hyper_zagreb": ("graphs.hyper_zagreb", "call"),
    "classical_indices": ("graphs.classical_indices", "call"),
    "reduce_to_single_attachment": ("transforms.reduce_to_single_attachment", "call"),
}


class Tracer:
    """In-memory span recorder; one per traced pass, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._open[-1])
        self.span_end.append(0.0)
        self._open.append(idx)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap_call(self, name: str, fn: Callable) -> Callable:
        """Span and count every call; raised exceptions count as `.raised`."""
        counts = self.counts
        calls, raised = name + ".calls", name + ".raised"
        hook = _RESULT_HOOKS.get(name)
        arg_hook = _ARG_HOOKS.get(name)

        def traced(*args, **kwargs):
            counts[calls] += 1
            if arg_hook is not None:
                args = arg_hook(counts, args)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                self.close(idx)
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def wrap_gen(self, name: str, fn: Callable) -> Callable:
        """Span each next() of the generator fn returns; count the yields."""
        counts = self.counts
        calls, yielded = name + ".calls", name + ".yielded"

        def traced(*args, **kwargs):
            counts[calls] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                counts[yielded] += 1
                yield item

        return traced

    def wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        return self.wrap_gen(name, fn) if kind == "gen" else self.wrap_call(name, fn)

    def install(self, bench_api) -> None:
        """Wrap every entry point that exists; record the ones that do not."""
        for module_name, attr, name, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, kind, getattr(module, attr)))
            else:
                self.missing.append(f"{module_name}.{attr}")
        for attr, (name, kind) in BENCH_ENTRY_POINTS.items():
            setattr(bench_api, attr, self.wrap(name, kind, getattr(bench_api, attr)))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time child spans cover.

        Spans nest strictly (one thread, generator spans close before each
        yield), so the part of a span its children cover is the sum of their
        durations.
        """
        start, end, parent = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * len(start)
        for idx, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[idx] - start[idx]
        totals = [0.0] * len(self.names)
        for idx, nid in enumerate(self.span_name):
            totals[nid] += end[idx] - start[idx] - covered[idx]
        return dict(zip(self.names, totals))


def _count_scanned(counts: Counter, args: tuple) -> tuple:
    def counted(stream: Iterable):
        for item in stream:
            counts["verify.rank.scanned"] += 1
            yield item

    return (counted(args[0]),) + args[1:]


def _count_oracle(counts: Counter, result) -> None:
    counts["enumeration.labeled_oracle.labeled_total"] += result.labeled_total
    counts["enumeration.labeled_oracle.classes"] += len(result.classes)


def _count_steps(counts: Counter, chain) -> None:
    counts["transforms.reduce_to_single_attachment.steps"] += len(chain) - 1


_ARG_HOOKS = {"verify.rank": _count_scanned}
_RESULT_HOOKS = {
    "enumeration.labeled_oracle": _count_oracle,
    "transforms.reduce_to_single_attachment": _count_steps,
}


ROOT_SPAN = "bench"  # the pass itself; its self time is bench.self_s


def layer_metrics(tracer: Tracer, selfs: dict[str, float], extra_counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metric values of one traced pass (see PER_LAYER)."""
    counts = Counter(tracer.counts)
    counts.update(extra_counts)
    classes = counts["enumeration.unicyclic_graphs.yielded"] + counts["enumeration.trees.yielded"]
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name == "graphs.built_per_class":
            value = counts["graphs.make_graph.calls"] / classes if classes else 0.0
        elif name == "codec.rejected":
            value = counts["codec.decode_graph6.raised"] + counts["codec.parse_edgelist.raised"]
        elif name == "trace.wall_s":
            value = tracer.span_end[0] - tracer.span_start[0]
        elif name == "trace.spans":
            value = len(tracer.span_start)
        elif name == "trace.overhead_s":
            continue  # needs the untraced pass; filled in by the parent
        elif unit == "s":
            value = selfs.get(name.rsplit(".", 1)[0], 0.0)
        else:
            value = counts[name]
        out[name] = value
    return out


# Per-layer metrics in BENCHMARK.json order, with their units.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("graphs.make_graph.calls", "count"),
    ("graphs.make_graph.self_s", "s"),
    ("graphs.built_per_class", "ratio"),
    ("rooted.form_edges.calls", "count"),
    ("rooted.form_edges.self_s", "s"),
    ("rooted.rooted_forms.self_s", "s"),
    ("enumeration.unicyclic_graphs.yielded", "count"),
    ("enumeration.unicyclic_graphs.self_s", "s"),
    ("enumeration.trees.yielded", "count"),
    ("enumeration.trees.self_s", "s"),
    ("enumeration.labeled_oracle.self_s", "s"),
    ("enumeration.labeled_oracle.labeled_total", "count"),
    ("enumeration.labeled_oracle.classes", "count"),
    ("graphs.hyper_zagreb.calls", "count"),
    ("graphs.hyper_zagreb.self_s", "s"),
    ("graphs.classical_indices.self_s", "s"),
    ("verify.rank.scanned", "count"),
    ("verify.rank.self_s", "s"),
    ("verify.family_codes.self_s", "s"),
    ("canon.canonical_code.calls", "count"),
    ("canon.canonical_code.self_s", "s"),
    ("codec.decode_graph6.calls", "count"),
    ("codec.decode_graph6.self_s", "s"),
    ("codec.parse_edgelist.calls", "count"),
    ("codec.parse_edgelist.self_s", "s"),
    ("codec.encode_graph6.calls", "count"),
    ("codec.encode_graph6.self_s", "s"),
    ("codec.rejected", "count"),
    ("transforms.reduce_to_single_attachment.calls", "count"),
    ("transforms.reduce_to_single_attachment.self_s", "s"),
    ("transforms.reduce_to_single_attachment.steps", "count"),
    ("transforms.coalesce.calls", "count"),
    ("transforms.coalesce.self_s", "s"),
    ("families.build_catalog_member.calls", "count"),
    ("families.build_catalog_member.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
