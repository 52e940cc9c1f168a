import hashlib
import heapq
import itertools
import random

import pytest

from hyperzagreb import families, transforms, verify
from hyperzagreb.canon import canonical_code
from hyperzagreb.codec import decode_graph6, encode_graph6
from hyperzagreb.enumeration import ClassRecord, prufer_edges, trees, unicyclic_graphs
from hyperzagreb.families import CATALOG, build_catalog_member
from hyperzagreb.graphs import hyper_zagreb, make_graph, site
from hyperzagreb.verify import (
    closed_form_audit,
    discover_tree_threshold,
    family_codes,
    lemma_suite,
    rank,
    verify_class,
)
from random_graphs import random_base_graph, random_tree, rows_graph
from reference import path


def test_rank_tree_examples():
    fams = family_codes("trees", 5)
    entries = rank(trees(5), 1, fams)
    assert len(entries) == 1
    assert entries[0].hm == 100 and entries[0].family == "S_n"

    fams = family_codes("trees", 15)
    entries = rank(trees(15), 4, fams)
    assert [e.hm for e in entries] == [3150, 2586, 2116, 2100]
    assert [e.family for e in entries] == ["S_n", "T^1_n", "T^2_n", "T^3_n"]


def test_rank_guards():
    with pytest.raises(ValueError):
        rank(iter(()), 3)
    with pytest.raises(ValueError):
        rank(trees(5), 0)


def test_rank_keeps_a_lone_record_of_index_zero():
    # the window starts at cutoff 0 and no index is below it, so the first
    # record always enters; the empty-stream check reads the window alone
    entries = rank(trees(1), 1)
    assert [(e.rank, e.hm, e.graph6) for e in entries] == [(1, 0, "@")]


def test_rank_includes_full_tie_groups():
    # k = 1 over every class twice: the two copies of the top class tie at
    # the top value and both must be reported
    records = list(unicyclic_graphs(5))
    top = max(r.hm for r in records)
    assert [r.hm for r in records].count(top) == 1
    entries = rank(records * 2, 1)
    assert [e.hm for e in entries] == [top, top]
    assert entries[0].code == entries[1].code


def test_rank_checks_reported_index_against_built_graph():
    # a record whose scored index disagrees with its graph is refused once
    # it reaches the window; one that is scored out never gets built
    records = list(trees(6))
    top = max(records, key=lambda r: r.hm)
    bottom = min(records, key=lambda r: r.hm)
    entries = rank(records[:-1] + [bottom._replace(hm=bottom.hm - 1)], 1)
    assert [e.hm for e in entries] == [top.hm]
    with pytest.raises(AssertionError):
        rank(records + [top._replace(hm=top.hm + 1)], 1)


def test_verify_trees_pass_and_report_only():
    rep = verify_class("trees", 10)
    assert rep.verdict == "pass"
    assert [e.family for e in rep.entries[:4]] == CATALOG_TOP4
    rep = verify_class("trees", 5)
    assert rep.verdict == "report-only"
    with pytest.raises(ValueError):
        verify_class("trees", 4)


CATALOG_TOP4 = ["S_n", "T^1_n", "T^2_n", "T^3_n"]


def test_verify_trees_threshold_discovery_deterministic():
    a = discover_tree_threshold(10)
    b = discover_tree_threshold(10)
    assert a == b == 6


def test_tree_threshold_scan_starts_at_the_claim_floor(monkeypatch):
    # below the floor a report is report-only, so the scan starts there
    scanned = []

    def spy(klass, n):
        scanned.append((klass, n))
        return real(klass, n)

    real = verify.verify_class
    monkeypatch.setattr(verify, "verify_class", spy)
    assert discover_tree_threshold(10) == 6
    assert scanned == [("trees", verify.CLAIMS["trees"][3])] == [("trees", 6)]
    assert discover_tree_threshold(5) is None


def test_verify_unicyclic_report_only_below_threshold():
    rep = verify_class("unicyclic", 10)
    assert rep.verdict == "report-only"
    assert rep.passed


def test_report_serialization_deterministic():
    rep1 = verify_class("trees", 8)
    rep2 = verify_class("trees", 8)
    assert rep1.to_text() == rep2.to_text()
    assert verify.json_data(rep1) == verify.json_data(rep2)
    assert "verdict:" in rep1.to_text()


def test_lemma_suite_smoke():
    report = lemma_suite(seed=0, trials=200)
    by_name = {c.name: c for c in report.checks}
    assert by_name["attachment-shift"].violations == 0
    assert by_name["join-vs-identify"].violations == 0
    assert by_name["cycle-shrink"].violations == 0
    assert report.passed
    # determinism of the seeded run
    again = lemma_suite(seed=0, trials=200)
    assert report.to_text() == again.to_text()


# sha256 over the graph6 of the lemma suite's first 500 base graphs and then
# 500 hanging trees from random.Random(0), drawn as attachment-shift draws
# them; pinned while both were still built by copying a tree Graph's lists.
RANDOM_DRAWS_SHA256 = "4a2f6e923c9ade6c26f4647f458e73014359b2faadb2ca689149778ba8010856"


def test_lemma_random_draws_pinned():
    rng = random.Random(0)
    drawn = [rows_graph(verify._random_base_rows(rng, rng.randint(3, 10)))
             for _ in range(500)]
    drawn += [random_tree(rng, rng.randint(2, 8)) for _ in range(500)]
    h = hashlib.sha256()
    for g in drawn:
        h.update(encode_graph6(g).encode() + b"\n")
    assert h.hexdigest() == RANDOM_DRAWS_SHA256


def test_hanging_site_reads_the_tree_it_does_not_build():
    # the same draws as a built hanging tree and its vertex, which leave the
    # generator in the same state, and the site that tree has at z
    orders = set()
    for seed in range(300):
        r1, r2 = random.Random(seed), random.Random(seed)
        seq, z, at_z = verify._hanging_site(r1)
        h = random_tree(r2, r2.randint(2, 8))
        assert (z, at_z) == (r2.randrange(h.n), site(h.adj, z))
        assert make_graph(len(seq) + 2, prufer_edges(seq, len(seq) + 2)) == h
        assert r1.getstate() == r2.getstate()
        orders.add(h.n)
    assert orders == set(range(2, 9))


def test_base_rows_make_the_base_graph_draws():
    # the same draws as a base graph built from a tree Graph's tuples, which
    # leave the generator in the same state, and the same rows once sorted
    unicyclic = 0
    for seed in range(500):
        r1, r2 = random.Random(seed), random.Random(seed)
        rows = verify._random_base_rows(r1, r1.randint(3, 10))
        g = random_base_graph(r2, r2.randint(3, 10))
        assert tuple(tuple(sorted(r)) for r in rows) == g.adj
        assert r1.getstate() == r2.getstate()
        unicyclic += g.num_edges == g.n
    assert 0 < unicyclic < 500


def test_below_makes_the_draws_of_random():
    # randrange(n), randint(3, 10), randint(2, 8) and sample(range(n), 2)
    # as the lemma suite makes them from getrandbits, leaving the generator
    # where the stdlib calls leave it
    below = verify._below
    for seed in range(200):
        r1, r2 = random.Random(seed), random.Random(seed)
        bits = r1.getrandbits
        drawn = [below(bits, n) for n in range(1, 13)]
        drawn += [3 + below(bits, 8), 2 + below(bits, 7)]
        for n in range(3, 11):
            u, j = below(bits, n), below(bits, n - 1)
            drawn.append([u, n - 1 if j == u else j])
        want = [r2.randrange(n) for n in range(1, 13)] + [r2.randint(3, 10), r2.randint(2, 8)]
        want += [r2.sample(range(n), 2) for n in range(3, 11)]
        assert drawn == want
        assert r1.getstate() == r2.getstate()


def test_a_passing_suite_draws_only_from_getrandbits_and_random(monkeypatch):
    # the suite's bytes hang on no Python-level draw of random.Random
    def refuse(*args, **kwargs):
        raise AssertionError("a Python-level draw of random.Random")

    for name in ("randrange", "randint", "sample"):
        monkeypatch.setattr(random.Random, name, refuse)
    for seed in (0, 7):
        assert lemma_suite(seed, 10000).passed


def test_a_passing_suite_builds_nothing_it_only_reads(monkeypatch):
    # hyper_zagreb scores the fourth brooms (53) and every reduce chain
    # graph after the first (1,826): a chain's first graph takes its
    # record's hm, and transforms cannot score at all; records are built for
    # the join pool, the reduce chains and star max's one top tree per
    # order; base graphs, hanging trees and the rewrites are never built
    calls = dict.fromkeys(["hyper_zagreb", "graph", "make_graph"], 0)

    def counted(owner, name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    assert not hasattr(transforms, "hyper_zagreb")
    counted(verify, "hyper_zagreb", verify.hyper_zagreb)
    counted(ClassRecord, "graph", ClassRecord.graph)
    counted(verify, "make_graph", verify.make_graph)
    counted(transforms, "make_graph", transforms.make_graph)
    for seed in (0, 7):
        for name in calls:
            calls[name] = 0
        assert lemma_suite(seed, 10000).passed
        assert calls == {"hyper_zagreb": 1879, "graph": 1064, "make_graph": 0}


def test_a_passing_suite_reads_each_neighbourhood_once(monkeypatch):
    # a trial reads its two endpoints' sites once, and the join check each
    # pool vertex's site once: 2R + 64 for R base graphs drawn
    counted = [
        (verify, "site"), (verify, "attach_conditions"), (verify, "_random_base_rows"),
    ]
    calls = dict.fromkeys(counted, 0)

    def count(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    for owner, name in counted:
        monkeypatch.setattr(owner, name, count((owner, name), getattr(owner, name)))
    for seed in (0, 7):
        calls.update(dict.fromkeys(counted, 0))
        assert lemma_suite(seed, 10000).passed
        draws = calls[verify, "_random_base_rows"]
        assert calls[verify, "site"] == 2 * draws + 64
        assert calls[verify, "attach_conditions"] == draws
        if seed == 0:
            assert calls[verify, "site"] == 21754


def test_star_max_builds_only_the_top_tree_per_order(monkeypatch):
    # every tree is scored by its record's hm; only the one record at the
    # star's value is built, to be coded, once per order n = 2..12
    built = []

    def graph(record):
        built.append(record.n)
        return real(record)

    real = ClassRecord.graph
    monkeypatch.setattr(ClassRecord, "graph", graph)
    result = verify._check_star_max()
    assert result.passed and result.checked == 986
    assert built == list(range(2, 13))


def test_attachment_shift_failure_path_pinned(monkeypatch):
    # Conditions forced to hold but never tight: every instance whose two
    # coalescences tie in the index, or fall, is a failure, and only then
    # are the two coalescences built, for the witness.
    monkeypatch.setattr(
        verify, "attach_conditions", lambda at_u, at_w, adjacent: (True, True, False, False)
    )
    result = verify._check_attachment_shift(random.Random(0), 2000)
    assert (result.checked, result.violations) == (2000, 619)
    assert result.counterexample == "MO_AOKW???_`?A?C? MO_AOKW???a@?A?C?"
    g1, g2 = map(decode_graph6, result.counterexample.split())
    assert hyper_zagreb(g2) <= hyper_zagreb(g1)


def test_join_identify_failure_path_pinned(monkeypatch):
    # Every gap forced to 0: each of the 4,096 cases is a violation, and
    # only then is the pair built, for the witness: its joined then its
    # identified graph.
    monkeypatch.setattr(verify, "join_identify_gap", lambda at_u, at_v: 0)
    result = verify._check_join_identify()
    assert (result.checked, result.violations) == (4096, 4096)
    assert result.counterexample == "Cp Cs"
    joined, identified = map(decode_graph6, result.counterexample.split())
    assert hyper_zagreb(joined) < hyper_zagreb(identified)


def _set(name, value):
    return lambda monkeypatch: monkeypatch.setattr(verify, name, value)


# Per lemma check: a patch that breaks what it checks, then the check's
# name, violations and first witness.
LEMMA_FAILURES = {
    "cycle-shrink": (
        _set("cycle_star_hm", lambda m, n: 0), verify._check_cycle_shrink,
        ("cycle-shrink", 1128, "m=4 n=4"),
    ),
    "star-max": (
        _set("build_catalog_member", lambda key, n: path(n)), verify._check_star_max,
        ("star-max-trees", 9, "n=4"),
    ),
    "join-vs-identify": (
        _set("join_identify_gap", lambda *args: -transforms.join_identify_gap(*args)),
        verify._check_join_identify,
        ("join-vs-identify", 4096, "Cp Cs"),
    ),
    # the eight "global maximum at n=" failures count once per order, on top
    # of the 1040 graphs checked
    "single-attachment-max": (
        _set("cycle_star_hm", lambda m, n: families.cycle_star_hm(m, n) - 1),
        verify._check_single_attachment_max,
        ("single-attachment-max", 1048, "Bw"),
    ),
    # each chain repeats its first graph, so no graph's chain strictly rises
    "single-attachment-chain": (
        _set("reduce_to_single_attachment",
             lambda g: [g, *transforms.reduce_to_single_attachment(g)]),
        verify._check_single_attachment_max,
        ("single-attachment-max", 1040, "Bw"),
    ),
    "tree-order": (
        _set("TREE_TOP4", families.TREE_TOP4[::-1]), verify._check_tree_poly_chain,
        ("tree-chain", 54, "n=7"),
    ),
    "fourth-broom": (
        _set("T4_CORE", families.Core(0, ((),), 0)), verify._check_tree_poly_chain,
        ("tree-chain", 53, "T^4 vs T^3 at n=8"),
    ),
    "unicyclic-order": (
        _set("UNICYCLIC_TOP8", families.UNICYCLIC_TOP8[::-1]), verify._check_unicyclic_poly_chain,
        ("unicyclic-chain", 47, "n=15"),
    ),
    "tail-tie": (
        _set("UNICYCLIC_TAIL_TIE", "C_3(1,2,n-6)"), verify._check_unicyclic_poly_chain,
        ("unicyclic-chain", 1, "tail tie at n=15"),
    ),
    "attachment-shift": (
        _set("site_gain", lambda a, sa, b, sb: -a),
        lambda: verify._check_attachment_shift(random.Random(0), 200),
        ("attachment-shift", 144, "I?qi_C??W I?qi_G??W"),
    ),
}


@pytest.mark.parametrize("case", LEMMA_FAILURES)
def test_every_lemma_check_can_fail(case, monkeypatch):
    patch, check, expected = LEMMA_FAILURES[case]
    patch(monkeypatch)
    result = check()
    assert (result.name, result.violations, result.counterexample) == expected
    assert not result.passed


def test_closed_form_audit_flags_a_cubic_off_below_its_floor(monkeypatch):
    # the range holds no order of the row, so the differing cubic itself is
    # the one mismatch
    key = "T^1_n"
    entry = CATALOG[key]
    monkeypatch.setitem(CATALOG, key, entry._replace(poly=entry.poly._replace(a0=entry.poly.a0 + 1)))
    report = closed_form_audit(2, 3)
    (row,) = [r for r in report.rows if r.key == key]
    assert (row.range, row.checked) == ((4, 3), 0)
    assert row.mismatches == ("core cubic (1, -4, 7, 6) != polynomial",)
    assert not report.passed


def test_closed_form_audit():
    report = closed_form_audit(15, 25)
    assert report.passed
    assert {r.key for r in report.rows} == set(CATALOG)
    assert report.scale_check.corrected == 2638
    assert report.scale_check.miscounted == 2614
    assert report.scale_check.table == 2638
    with pytest.raises(ValueError):
        closed_form_audit(20, 15)


@pytest.mark.parametrize("coefficient", ["a3", "a2", "a1", "a0"])
def test_closed_form_audit_catches_a_forged_coefficient(coefficient, monkeypatch):
    # the derived cubic must still be able to refute the table: one
    # coefficient off by one is wrong at every order of the range
    key = "C_3(T^3_{n-2})"
    entry = CATALOG[key]
    poly = entry.poly._replace(**{coefficient: getattr(entry.poly, coefficient) + 1})
    monkeypatch.setitem(CATALOG, key, entry._replace(poly=poly))
    report = closed_form_audit(15, 40)
    assert not report.passed
    (row,) = [r for r in report.rows if r.key == key]
    assert row.checked == 26
    assert [m.split(":")[0] for m in row.mismatches] == [f"n={n}" for n in range(15, 41)]
    assert all(r.passed for r in report.rows if r.key != key)


def test_closed_form_audit_builds_one_core_per_row(monkeypatch):
    # no graph and no table value per order: each core is built once, and
    # the table is evaluated only for the one-star scale check
    built, evaluated = [], []

    def counting(cycle, placements, children=()):
        built.append(cycle)
        return real(cycle, placements, children)

    def evaluate(poly, n):
        evaluated.append(n)
        return real_evaluate(poly, n)

    real, real_evaluate = families.form_graph, families.ClosedFormPoly.evaluate
    monkeypatch.setattr(families, "form_graph", counting)
    monkeypatch.setattr(families.ClosedFormPoly, "evaluate", evaluate)
    report = closed_form_audit(15, 1000)
    assert report.passed
    assert 0 < len(built) <= len(CATALOG)
    assert evaluated == [15]
    assert [r.checked for r in report.rows] == [986] * len(CATALOG)


def test_family_codes_distinct_labels():
    # every order where a chain is evaluated: one code per buildable family,
    # so a family label names exactly one class
    for kind, orders in (("trees", range(6, 21)), ("unicyclic", range(15, 18))):
        for n in orders:
            fams = family_codes(kind, n)
            assert len(fams) == sum(
                1 for e in CATALOG.values() if e.kind == kind and e.poly.valid_n_min <= n
            ), (kind, n)


INTERLOPER = "C_3(1,T^1_{n-3})"


def _drop(*keys):
    """A stream edit that removes the members of the named families."""
    def keep(r):
        return not any(
            r.hm == CATALOG[k].poly.evaluate(r.n)
            and canonical_code(r) == canonical_code(build_catalog_member(k, r.n))
            for k in keys
        )
    return lambda records: filter(keep, records)


def _top(count):
    """A stream edit that keeps only the count records of largest index."""
    return lambda records: heapq.nlargest(count, records, key=lambda r: r.hm)


def _plus_unicyclic(n, hm):
    """A stream edit that appends the first unicyclic class of order n and index hm."""
    def edit(records):
        extra = next(r for r in unicyclic_graphs(n) if r.hm == hm)
        return itertools.chain(records, [extra])
    return edit


# class, order, stream edit, catalog row swap (row, source row, fields),
# verdict, notes: one case per branch of the chain check
CHAIN_CASES = {
    "tail-tie-noted": (
        "unicyclic", 15, _drop(INTERLOPER), None, "tie-noted",
        ["documented equality: C_3(P_3,n-5) matches C_3(T^3_{n-2}) at hm 2170"],
    ),
    "chain-passes": ("unicyclic", 16, _drop(INTERLOPER), None, "pass", []),
    "tail-missing": (
        "unicyclic", 16, _drop(INTERLOPER, "C_3(T^3_{n-2})"), None, "fail",
        ["C_3(T^3_{n-2}) missing at value 2698"],
    ),
    "ranking-ends": (
        "unicyclic", 16, _top(2), None, "fail",
        ["ranking ended before expected family C_3(T^1_{n-2})"],
    ),
    "wrong-family": (
        "trees", 10, _drop("T^2_n"), None, "fail",
        ["rank 3: observed T^3_n (hm 500) where T^2_n (hm 516) was expected"],
    ),
    "unexpected-tie": (
        "trees", 9, _plus_unicyclic(9, 342), None, "fail",
        ["unexpected tie at value 342"],
    ),
    "unexpected-member": (
        "unicyclic", 15, _drop(INTERLOPER), ("C_3(P_3,n-5)", "C_3(3,n-6)", ["core"]),
        "fail", ["unexpected member in tie at value 2170"],
    ),
    "not-strictly-smaller": (
        "trees", 10, None, ("T^3_n", "broom3_n", ["poly", "core"]), "fail",
        ["value after the chain is not strictly smaller (490)"],
    ),
}


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_chain_check_verdict_and_note_per_branch(case, monkeypatch):
    klass, n, edit, swap, verdict, notes = CHAIN_CASES[case]
    if edit is not None:
        name = "trees" if klass == "trees" else "unicyclic_graphs"
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda m: edit(real(m)))
    if swap is not None:
        key, source, fields = swap
        changes = {f: getattr(CATALOG[source], f) for f in fields}
        monkeypatch.setitem(CATALOG, key, CATALOG[key]._replace(**changes))
    rep = verify_class(klass, n)
    assert (rep.verdict, list(rep.notes)) == (verdict, notes)
    assert rep.passed == (verdict != "fail")
