"""Ranking and verdicts for the extremal-ordering claims.

rank streams a graph class and keeps the top-k by index value with full tie
groups.  verify_class checks one class's family chain against its ranking:
the four tree families in strict order, or the eight-family unicyclic
chain with its documented tail tie.
lemma_suite runs every randomized and exhaustive monotonicity property,
and closed_form_audit checks every catalog polynomial against the cubic
derived from its family's core, which covers every order from the row's
floor without building a graph per order.

All reports are deterministic: identical inputs produce byte-identical
text and JSON serializations.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .canon import canonical_code
from .codec import encode_graph6
from .enumeration import ClassRecord, prufer_edges, trees, unicyclic_graphs
from .families import (
    CATALOG,
    T4_CORE,
    TREE_TOP4,
    UNICYCLIC_TAIL_TIE,
    UNICYCLIC_TOP8,
    ClosedFormPoly,
    build_catalog_member,
    cycle_star_hm,
    cycle_star_hm_miscounted,
    cycle_with_stars,
)
from .graphs import Graph, hyper_zagreb, make_graph, site
from .transforms import (
    attach_conditions,
    coalesce,
    join_identify_gap,
    join_vs_identify,
    reduce_to_single_attachment,
    site_gain,
)

# Per class: its family chain, the one family allowed to tie the chain's
# tail, the least order ranked, the order the chain is checked from (the
# tree families all exist from 6; the unicyclic claim starts at 15) and
# the note of a report below it.
CLAIMS = {
    "trees": (TREE_TOP4, None, 5, 6, "below family floor; ordering not evaluated"),
    "unicyclic": (
        UNICYCLIC_TOP8, UNICYCLIC_TAIL_TIE, 3, 15,
        "below the claim threshold; ordering not evaluated",
    ),
}


def json_data(x):
    """The JSON value of a report, read from its record's fields.

    A record becomes an object of its fields by name, with klass written
    "class"; the lemma and audit records also carry their passed value.  A
    tuple becomes a list and a code its hex text.
    """
    if isinstance(x, bytes):
        return x.hex()
    if not isinstance(x, tuple):
        return x
    if not hasattr(x, "_fields"):
        return [json_data(v) for v in x]
    out = {"class" if f == "klass" else f: json_data(v) for f, v in zip(x._fields, x)}
    if isinstance(x, (CheckResult, SuiteReport, AuditRow, AuditReport)):
        out["passed"] = x.passed
    return out


class RankEntry(NamedTuple):
    # in the order of rank's JSON, which is dumped unsorted
    rank: int
    hm: int
    family: str | None
    graph6: str
    code: bytes

    @property
    def label(self) -> str:
        """The family key, else the graph6 text: how ties and failures name it."""
        return self.family or self.graph6

    def to_text(self) -> str:
        return (
            f"rank: {self.rank} hm: {self.hm} family: {self.family or '-'} "
            f"graph6: {self.graph6}"
        )


def _compact(buf: list[tuple[int, ClassRecord]], k: int) -> list[tuple[int, ClassRecord]]:
    buf.sort(key=lambda t: -t[0])
    if len(buf) <= k:
        return buf
    cutoff = buf[k - 1][0]
    return [t for t in buf if t[0] >= cutoff]


def family_codes(kind: str, n: int) -> dict[bytes, str]:
    """Canonical codes of every buildable catalog member of one class."""
    out: dict[bytes, str] = {}
    for key, entry in CATALOG.items():
        if entry.kind != kind or n < entry.poly.valid_n_min:
            continue
        code = canonical_code(entry.core.build(n))
        out.setdefault(code, key)
    return out


def rank(
    stream: Iterable[ClassRecord],
    k: int,
    families: dict[bytes, str] | None = None,
) -> list[RankEntry]:
    """Top-k entries by index value, descending, with full tie groups.

    The window runs on each record's table index; only the survivors are
    built, checked against the degree definition, coded and encoded as
    graph6.  Ties are ordered by canonical code; the list may exceed k
    when the k-th value is shared.  Memory stays bounded by the window,
    not the class.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    buf: list[tuple[int, ClassRecord]] = []
    cutoff = 0  # the k-th index of the last compaction
    for record in stream:
        if record.hm < cutoff:  # the cutoff only rises, so it stays out
            continue
        buf.append((record.hm, record))
        if len(buf) >= 4 * k + 64:
            buf = _compact(buf, k)
            cutoff = buf[k - 1][0]
    if not buf:  # the first record always enters, as no index is below 0
        raise ValueError("empty stream")
    decorated = []
    for hm, record in _compact(buf, k):
        g = record.graph()
        built = hyper_zagreb(g)
        if built != hm:
            raise AssertionError(f"scored index {hm} != {built} of the built graph")
        decorated.append((hm, canonical_code(g), encode_graph6(g)))
    decorated.sort(key=lambda t: (-t[0], t[1]))
    out = []
    for i, (hm, code, g6) in enumerate(decorated, start=1):
        match = families.get(code) if families else None
        out.append(RankEntry(rank=i, hm=hm, family=match, graph6=g6, code=code))
    return out


class Tie(NamedTuple):
    hm: int
    members: tuple[str, ...]  # entry labels


class VerdictReport(NamedTuple):
    """Outcome of checking one ordering claim at one order."""

    n: int
    klass: str  # "trees" | "unicyclic"
    expected: tuple[str, ...]
    entries: tuple[RankEntry, ...]
    verdict: str  # "pass" | "tie-noted" | "fail" | "report-only"
    ties: tuple[Tie, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "tie-noted", "report-only")

    def to_text(self) -> str:
        lines = [
            f"class: {self.klass}",
            f"n: {self.n}",
            f"verdict: {self.verdict}",
            f"expected: {', '.join(self.expected)}",
        ]
        lines.extend(e.to_text() for e in self.entries)
        for hm, members in self.ties:
            lines.append(f"tie: hm: {hm} members: {', '.join(members)}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _tie_groups(entries: list[RankEntry]) -> tuple[Tie, ...]:
    groups: dict[int, list[str]] = {}
    for e in entries:
        groups.setdefault(e.hm, []).append(e.label)
    return tuple(
        Tie(hm, tuple(members))
        for hm, members in sorted(groups.items(), reverse=True)
        if len(members) >= 2
    )


def _evaluate_chain(
    n: int, entries: list[RankEntry], chain: list[str], tail_tie: str | None
) -> tuple[str, list[str]]:
    """Compare an observed ranking against an expected strict family chain.

    Entries carry the labels rank took from family_codes, whose codes are
    distinct at every order checked, so a label names one class.  The last
    expected value may be shared with the one designated companion family;
    that demotes pass to tie-noted.  Any other deviation fails.
    """
    for idx, key in enumerate(chain[:-1]):
        val = CATALOG[key].poly.evaluate(n)
        if idx >= len(entries):
            return "fail", [f"ranking ended before expected family {key}"]
        e = entries[idx]
        if e.hm != val or e.family != key:
            return "fail", [
                f"rank {idx + 1}: observed {e.label} (hm {e.hm}) where {key} "
                f"(hm {val}) was expected"
            ]
    idx, last_key = len(chain) - 1, chain[-1]
    last_val = CATALOG[last_key].poly.evaluate(n)
    group = [e for e in entries[idx:] if e.hm == last_val]
    labels = {e.family for e in group}
    if last_key not in labels:
        return "fail", [f"{last_key} missing at value {last_val}"]
    extras = labels - {last_key}
    verdict, notes = "pass", []
    if extras:
        if tail_tie is None:
            return "fail", [f"unexpected tie at value {last_val}"]
        if extras != {tail_tie}:
            return "fail", [f"unexpected member in tie at value {last_val}"]
        verdict = "tie-noted"
        notes = [f"documented equality: {tail_tie} matches {last_key} at hm {last_val}"]
    idx += len(group)
    if idx < len(entries) and entries[idx].hm >= last_val:
        return "fail", [f"value after the chain is not strictly smaller ({entries[idx].hm})"]
    return verdict, notes


def class_stream(klass: str, n: int) -> Iterator[ClassRecord]:
    """Every class record of order n: "trees" or "unicyclic".

    The generator is looked up in this module at each call, so a wrapper
    put on verify.trees or verify.unicyclic_graphs sees every class.
    """
    return trees(n) if klass == "trees" else unicyclic_graphs(n)


def verify_class(klass: str, n: int) -> VerdictReport:
    """Check one class's family chain at order n, from the CLAIMS table.

    The ranking window is one longer than the chain, so the value after
    the chain is seen.  Below the class's claim floor the ranking is only
    reported.
    """
    chain, tail_tie, least, floor, below_floor = CLAIMS[klass]
    if n < least:
        raise ValueError(f"verify_{klass} needs n >= {least}, got {n}")
    entries = rank(class_stream(klass, n), len(chain) + 1, family_codes(klass, n))
    if n < floor:
        verdict, notes = "report-only", [below_floor]
    else:
        verdict, notes = _evaluate_chain(n, entries, chain, tail_tie)
    return VerdictReport(
        n, klass, tuple(chain), tuple(entries), verdict, _tie_groups(entries), tuple(notes)
    )


def discover_tree_threshold(n_hi: int = 16) -> int | None:
    """Smallest n in [floor, n_hi] where the tree top-4 ordering holds.

    floor is the trees' claim floor in CLAIMS; below it no order is checked.
    Discovered data, outside any stated claim; exhaustive per n, deterministic.
    """
    for n in range(CLAIMS["trees"][3], n_hi + 1):
        if verify_class("trees", n).verdict == "pass":
            return n
    return None


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    scope: str
    checked: int
    violations: int
    counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


class SuiteReport(NamedTuple):
    seed: int
    trials: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"seed: {self.seed}", f"trials: {self.trials}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"check: {c.name} status: {status} checked: {c.checked} "
                f"violations: {c.violations} scope: {c.scope}"
            )
            if c.counterexample:
                lines.append(f"counterexample: {c.name}: {c.counterexample}")
        return "\n".join(lines) + "\n"


def _below(bits: Callable[[int], int], n: int) -> int:
    """Random.randrange(n)'s draw, read straight from bits = getrandbits:
    n.bit_length() bits at a time until they are below n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _hanging_site(rng: random.Random) -> tuple[list[int], int, tuple[int, int]]:
    """The Pruefer sequence of a uniform random labeled tree h on 2..8
    vertices, a random vertex z and site(h, z), without building h: a
    degree is one more than a count in the sequence.  The same draws as
    randint(2, 8), then randrange(n) for each entry and for z."""
    bits = rng.getrandbits
    n = 2 + _below(bits, 7)
    seq = [_below(bits, n) for _ in range(n - 2)]
    z = _below(bits, n)
    nbrs = [x + y - z for x, y in prufer_edges(seq, n) if z in (x, y)]
    return seq, z, (len(nbrs), sum([seq.count(y) for y in nbrs]) + len(nbrs))


def _random_base_rows(rng: random.Random, n: int) -> list[list[int]]:
    """Unsorted neighbour rows of a random tree on n >= 2 vertices, or half
    the time (n >= 3) of a random unicyclic graph, the tree with one absent
    edge closed; each Pruefer entry and endpoint is the draw of randrange(n)."""
    bits = rng.getrandbits
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in prufer_edges([_below(bits, n) for _ in range(n - 2)], n):
        rows[u].append(v)
        rows[v].append(u)
    if n >= 3 and rng.random() < 0.5:
        while True:
            u, v = _below(bits, n), _below(bits, n)
            if u != v and v not in rows[u]:
                rows[u].append(v)
                rows[v].append(u)
                break
    return rows


def _pair_g6(a: Graph, b: Graph) -> str:
    return f"{encode_graph6(a)} {encode_graph6(b)}"


def _tally(name: str, scope: str, checked: int, failures: list[str]) -> CheckResult:
    """One check's result from its failure witnesses; the first is shown."""
    return CheckResult(
        name, scope, checked, len(failures), failures[0] if failures else None
    )


def _check_attachment_shift(rng: random.Random, trials: int) -> CheckResult:
    """Random conditioned instances: moving h to the dominant site never
    lowers the index, and equality forces both conditions tight."""
    bits = rng.getrandbits
    failures = []
    done = 0
    while done < trials:
        n = 3 + _below(bits, 8)  # the draws of randint(3, 10)
        rows = _random_base_rows(rng, n)
        u, j = _below(bits, n), _below(bits, n - 1)
        w = n - 1 if j == u else j  # sample(range(n), 2): n - 1 replaces u
        at_u, at_w = site(rows, u), site(rows, w)
        if at_u[0] > at_w[0]:
            u, w, at_u, at_w = w, u, at_w, at_u
        cond_a, cond_b, tight_a, tight_b = attach_conditions(at_u, at_w, w in rows[u])
        if not (cond_a and cond_b):
            continue
        seq, z, at_z = _hanging_site(rng)
        # HM(g) + HM(h) is common to both sites, so the gains compare as
        # the two coalescences' indices do; g, h and the coalescences, like
        # the join-vs-identify pairs, are built only for a failure's witness.
        gain1, gain2 = site_gain(*at_u, *at_z), site_gain(*at_w, *at_z)
        if gain2 < gain1 or (gain2 == gain1 and not (tight_a and tight_b)):
            g = make_graph(n, [(x, y) for x in range(n) for y in rows[x] if x < y])
            h = make_graph(len(seq) + 2, prufer_edges(seq, len(seq) + 2))
            failures.append(_pair_g6(coalesce(g, u, h, z), coalesce(g, w, h, z)))
        done += 1
    return _tally("attachment-shift", "random conditioned instances", done, failures)


def _check_join_identify() -> CheckResult:
    """Exhaustive over tree pairs on up to 6 vertices and all root choices;
    with no lone vertex in the pool, every root has degree >= 1 and every gap is > 0."""
    pool = [t.graph() for n in range(2, 7) for t in trees(n)]
    sites = [[site(t.adj, v) for v in range(t.n)] for t in pool]
    failures = []
    checked = 0
    for t1, sites1 in zip(pool, sites):
        for t2, sites2 in zip(pool, sites):
            for u, at_u in enumerate(sites1):
                for v, at_v in enumerate(sites2):
                    checked += 1
                    if join_identify_gap(at_u, at_v) <= 0:
                        pair = join_vs_identify(t1, u, t2, v)
                        failures.append(_pair_g6(pair.joined, pair.identified))
    return _tally(
        "join-vs-identify", "all tree pairs <= 6 vertices, all roots", checked,
        failures,
    )


def _check_cycle_shrink() -> CheckResult:
    """Shortening the cycle of a one-star graph strictly raises the index."""
    failures = []
    checked = 0
    for n in range(4, 51):
        for m in range(4, n + 1):
            checked += 1
            if not cycle_star_hm(m, n) < cycle_star_hm(m - 1, n):
                failures.append(f"m={m} n={n}")
    return _tally("cycle-shrink", "4 <= m <= n <= 50", checked, failures)


def _check_star_max() -> CheckResult:
    """The star is the unique index maximum among trees of each order."""
    failures = []
    checked = 0
    for n in range(2, 13):
        best = CATALOG["S_n"].poly.evaluate(n)
        top = []
        for r in trees(n):
            checked += 1
            if r.hm >= best:
                top.append(r)
        star_code = canonical_code(build_catalog_member("S_n", n))
        ok = (len(top) == 1 and top[0].hm == best
              and canonical_code(top[0].graph()) == star_code)
        if not ok:
            failures.append(f"n={n}")
    return _tally("star-max-trees", "all trees, n <= 12", checked, failures)


def _check_single_attachment_max() -> CheckResult:
    """Per cycle length, one pendant star dominates; equality only there.

    Also drives the reduction chain on every graph (strictly increasing,
    landing on the one-star form of the same cycle length) and checks that
    the global maximum of the whole class is the triangle with one star.
    """
    failures = []
    checked = 0
    final_code = cache(canonical_code)  # chains of order n end on <= n graphs
    for n in range(3, 11):
        single_codes = {
            m: canonical_code(cycle_with_stars(m, [n - m])) for m in range(3, n + 1)
        }
        global_best = cycle_star_hm(3, n)
        best_seen = []
        for r in unicyclic_graphs(n):
            g = r.graph()
            checked += 1
            m = r.cycle
            bound = cycle_star_hm(m, n)
            chain = reduce_to_single_attachment(g)
            hms = [r.hm, *map(hyper_zagreb, chain[1:])]  # the record's own index first
            if r.hm >= global_best:
                best_seen.append((r.hm, canonical_code(g)))
            ok = (
                r.hm <= bound
                and (r.hm < bound or canonical_code(g) == single_codes[m])
                and all(a < b for a, b in zip(hms, hms[1:]))
                and hms[-1] == bound
                and final_code(chain[-1]) == single_codes[m]
            )
            if not ok:
                failures.append(encode_graph6(g))
        if best_seen != [(global_best, single_codes[3])]:
            failures.append(f"global maximum at n={n}")
    return _tally(
        "single-attachment-max", "all unicyclic graphs, n <= 10", checked,
        failures,
    )


def _strict_chain(keys: tuple[str, ...], lo: int) -> tuple[int, list[str]]:
    """Orders checked, and each n in lo..60 where the polynomials of keys,
    in turn, do not strictly fall."""
    vals = {n: [CATALOG[k].poly.evaluate(n) for k in keys] for n in range(lo, 61)}
    return len(vals), [f"n={n}" for n, v in vals.items() if any(a <= b for a, b in zip(v, v[1:]))]


def _check_tree_poly_chain() -> CheckResult:
    """Strict family ordering among the tree polynomials, plus the fourth
    broom staying below the third from order eight onward."""
    checked, failures = _strict_chain(TREE_TOP4, 7)
    for n in range(8, 61):
        checked += 1
        if not hyper_zagreb(T4_CORE.build(n)) < CATALOG["T^3_n"].poly.evaluate(n):
            failures.append(f"T^4 vs T^3 at n={n}")
    return _tally(
        "tree-chain", "polynomials n <= 60; fourth broom from n = 8", checked,
        failures,
    )


def _check_unicyclic_poly_chain() -> CheckResult:
    """Strict ordering of the eight unicyclic polynomials from n = 15, and
    the companion family tying the tail exactly at n = 15."""
    checked, failures = _strict_chain(UNICYCLIC_TOP8, 15)
    tail = CATALOG[UNICYCLIC_TOP8[-1]].poly
    companion = CATALOG[UNICYCLIC_TAIL_TIE].poly
    for n in range(8, 61):
        checked += 1
        equal = tail.evaluate(n) == companion.evaluate(n)
        if equal != (n == 15):
            failures.append(f"tail tie at n={n}")
    return _tally(
        "unicyclic-chain", "polynomials 15 <= n <= 60; tail tie only at 15",
        checked, failures,
    )


def lemma_suite(seed: int = 0, trials: int = 10_000) -> SuiteReport:
    """Run every randomized and exhaustive monotonicity property."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    checks = (
        _check_attachment_shift(rng, trials),
        _check_join_identify(),
        _check_cycle_shrink(),
        _check_star_max(),
        _check_single_attachment_max(),
        _check_tree_poly_chain(),
        _check_unicyclic_poly_chain(),
    )
    return SuiteReport(seed=seed, trials=trials, checks=checks)


# ---------------------------------------------------------------------------
# Closed-form audit
# ---------------------------------------------------------------------------


class AuditRow(NamedTuple):
    key: str
    range: tuple[int, int]
    checked: int
    mismatches: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


class ScaleCheck(NamedTuple):
    """The C_4(n-4) table value at n = 15 and the one-star cycle formula's."""

    table: int
    corrected: int  # the 16(m-2) form, which must equal the table
    miscounted: int  # the 4(m-2) variant, which must not


class AuditReport(NamedTuple):
    range: tuple[int, int]
    rows: tuple[AuditRow, ...]
    scale_check: ScaleCheck

    @property
    def passed(self) -> bool:
        table, corrected, miscounted = self.scale_check
        return all(r.passed for r in self.rows) and corrected == table != miscounted

    def to_text(self) -> str:
        lines = ["audit_range: {}..{}".format(*self.range)]
        for r in self.rows:
            status = "EQUAL" if r.passed else "MISMATCH"
            lines.append("entry: {} range: {}..{} checked: {} status: {}".format(
                r.key, *r.range, r.checked, status
            ))
            for msg in r.mismatches:
                lines.append(f"mismatch: {r.key}: {msg}")
        sc = self.scale_check
        lines.append(
            f"scale_check: C_4(n-4)@15 table: {sc.table} corrected: {sc.corrected} "
            f"miscounted: {sc.miscounted}"
        )
        lines.append(f"audit_verdict: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"


def closed_form_audit(n_lo: int, n_hi: int) -> AuditReport:
    """Check every catalog polynomial against its core's derived cubic.

    A member is its core plus leaves at the hub, so Core.cubic gives its
    index at every order from the core's size on, which is at most the
    row's floor: a table cubic equal to it holds at every order of the
    range, and the range's size costs nothing.  Only a table cubic that
    differs is evaluated, at each order of the range, to list the orders
    where it is wrong.  Also pins the scale of the one-star cycle formula:
    the corrected 16(m-2) form must reproduce the C_4(n-4) catalog value
    at n = 15 while the 4(m-2) variant must not.
    """
    if n_lo > n_hi:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    rows = []
    for key, entry in CATALOG.items():
        cubic = entry.core.cubic()
        lo = max(n_lo, entry.poly.valid_n_min)
        mismatches = []
        if cubic != entry.poly.coefficients():
            derived = ClosedFormPoly(*cubic, lo)
            for n in range(lo, n_hi + 1):
                got, want = derived.evaluate(n), entry.poly.evaluate(n)
                if got != want:
                    mismatches.append(f"n={n}: built {got} != polynomial {want}")
            if not mismatches:
                mismatches.append(f"core cubic {cubic} != polynomial")
        rows.append(AuditRow(key, (lo, n_hi), max(0, n_hi + 1 - lo), tuple(mismatches)))
    # One-star cycle formula against the catalog row at the claim threshold.
    scale = ScaleCheck(
        CATALOG["C_4(n-4)"].poly.evaluate(15),
        cycle_star_hm(4, 15),
        cycle_star_hm_miscounted(4, 15),
    )
    return AuditReport((n_lo, n_hi), tuple(rows), scale)
