import hashlib
import random
from itertools import product

import pytest

from hyperzagreb.canon import canonical_code
from hyperzagreb.codec import encode_graph6
from hyperzagreb.families import (
    CATALOG,
    T4_CORE,
    Core,
    FamilyDomainError,
    UnknownFamilyError,
    build_catalog_member,
    cycle_star_hm,
    cycle_star_hm_miscounted,
    cycle_with_stars,
)
from hyperzagreb.graphs import hyper_zagreb, make_graph
from hyperzagreb.rooted import form_graph, path_form, star_form
from reference import is_tree, is_unicyclic, path


def test_catalog_faithful_over_validity_windows():
    # Every closed form must equal the directly computed value of its built
    # graph on the first 31 valid orders.
    for key, entry in CATALOG.items():
        lo = entry.poly.valid_n_min
        for n in range(lo, lo + 31):
            g = entry.core.build(n)
            assert g.n == n, key
            assert (is_tree(g) if entry.kind == "trees" else is_unicyclic(g)), key
            assert hyper_zagreb(g) == entry.poly.evaluate(n), (key, n)


def test_every_family_graph6_is_pinned():
    # The vertex labelling of every catalog row at its first six orders, as
    # one digest: a change of builder must keep each graph6 byte for byte.
    lines = [
        f"{key} {n} {encode_graph6(build_catalog_member(key, n))}"
        for key, entry in CATALOG.items()
        for n in range(entry.poly.valid_n_min, entry.poly.valid_n_min + 6)
    ]
    assert len(lines) == 120
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "5d373d7d92826e83a9aab4181b132a7d594bf0b2223da84960bf881e916780d0"
    )


def test_core_cubic_equals_the_table():
    # the cubic derived from each core is the paper's polynomial, and the
    # core fits below the row's floor, so the cubic covers every valid order
    for key, entry in CATALOG.items():
        assert entry.core.cubic() == entry.poly.coefficients(), key
        assert entry.core.size <= entry.poly.valid_n_min, key


def _random_form(rng: random.Random, size: int):
    # a rooted tree on `size` vertices as nested tuples: vertex i > 0 hangs
    # below a random earlier vertex, then each vertex takes its children's forms
    parent = [rng.randrange(i) for i in range(1, size)]
    kids = [[] for _ in range(size)]
    for v in range(size - 1, 0, -1):
        kids[parent[v - 1]].append(tuple(kids[v]))
    return tuple(kids[0])


def test_core_cubic_matches_built_graphs_of_random_cores():
    rng = random.Random(18)
    for _ in range(300):
        m = rng.choice([0, 3, 4, 5, 6])
        slots = max(m, 1)
        forms = [
            _random_form(rng, rng.randint(1, 4)) if m == 0 or rng.random() < 0.5 else ()
            for _ in range(slots)
        ]
        core = Core(m, tuple(forms), rng.randrange(slots))
        a3, a2, a1, a0 = core.cubic()
        for n in range(core.size, core.size + 6):
            g = core.build(n)
            assert g.n == n
            assert (is_tree(g) if m == 0 else is_unicyclic(g)), core
            assert hyper_zagreb(g) == ((a3 * n + a2) * n + a1) * n + a0, (core, n)


def test_built_graphs_survive_validation():
    # The builders skip edge validation, so each graph must come through the
    # validating make_graph unchanged.
    built = [path(n) for n in range(1, 32)] + [cycle_with_stars(n, []) for n in range(3, 34)]
    for entry in CATALOG.values():
        lo = entry.poly.valid_n_min
        built += [entry.core.build(n) for n in range(lo, lo + 31)]
    for g in built:
        assert make_graph(g.n, list(g.edges())) == g


def test_family_point_values():
    assert hyper_zagreb(build_catalog_member("S_n", 6)) == 180
    assert hyper_zagreb(build_catalog_member("T^1_n", 5)) == 66
    assert hyper_zagreb(build_catalog_member("T^2_n", 6)) == 100
    assert hyper_zagreb(build_catalog_member("T^3_n", 6)) == 84
    assert hyper_zagreb(build_catalog_member("T^3_n", 10)) == 500
    # the fourth broom has no table row; direct edge sums
    assert hyper_zagreb(T4_CORE.build(9)) == 300
    assert hyper_zagreb(T4_CORE.build(10)) == 420
    assert hyper_zagreb(cycle_with_stars(3, [12])) == 3228
    assert hyper_zagreb(build_catalog_member("C_3(T^3_{n-2})", 15)) == 2170
    assert hyper_zagreb(build_catalog_member("C_3(P_3,n-5)", 15)) == 2170


def test_closed_form_lookup():
    assert CATALOG["S_n"].poly.coefficients() == (1, -1, 0, 0)
    assert CATALOG["C_3(1,n-4)"].poly.coefficients() == (1, -4, 11, 38)
    assert CATALOG["C_3(T^3_{n-2})"].poly.evaluate(15) == 2170
    with pytest.raises(UnknownFamilyError):
        build_catalog_member("T^9_n", 10)


def test_family_floors():
    with pytest.raises(FamilyDomainError):
        build_catalog_member("S_n", 1)
    with pytest.raises(FamilyDomainError):
        build_catalog_member("T^2_n", 5)
    with pytest.raises(FamilyDomainError):
        build_catalog_member("broom3_n", 4)
    with pytest.raises(FamilyDomainError):
        build_catalog_member("C_3(T^2_{n-2})", 7)
    with pytest.raises(FamilyDomainError):
        T4_CORE.build(4)  # below the core's own five vertices
    with pytest.raises(FamilyDomainError):
        CATALOG["S_n"].poly.evaluate(1)  # S_n's cubic holds from n = 2


def test_cycle_star_values():
    assert cycle_star_hm(3, 15) == 3228
    assert cycle_star_hm(4, 15) == 2638
    for n in (3, 7, 20):
        assert cycle_star_hm(n, n) == 16 * n
    # the mis-scaled variant disagrees with the table row at m=4, n=15
    assert cycle_star_hm_miscounted(4, 15) == 2614
    assert CATALOG["C_4(n-4)"].poly.evaluate(15) == 2638
    with pytest.raises(FamilyDomainError):
        cycle_star_hm(2, 5)
    with pytest.raises(FamilyDomainError):
        cycle_star_hm(6, 5)
    # matches the built graph everywhere it exists
    for n in range(3, 30):
        for m in range(3, n + 1):
            g = cycle_with_stars(m, [n - m] if n > m else [])
            assert hyper_zagreb(g) == cycle_star_hm(m, n)


def test_rooted_tree_attachment():
    # a path of two edges hung by one end
    g = form_graph(3, [(0, path_form(2)), (1, ((),) * 10)])
    assert g.n == 15
    assert hyper_zagreb(g) == 2170
    assert g == build_catalog_member("C_3(P_3,n-5)", 15)
    with pytest.raises(FamilyDomainError):
        cycle_with_stars(3, [1, 0, 0, 2])  # more counts than cycle vertices
    with pytest.raises(FamilyDomainError):
        cycle_with_stars(3, [1, -1])
    with pytest.raises(FamilyDomainError):
        cycle_with_stars(2, [1])


def test_cycle_with_stars_keeps_the_form_graph_layout():
    # the cycle 0..m-1, then each star's leaves in position order, exactly
    # as form_graph hangs star forms, for short vectors as well as full ones
    vectors = [
        (m, list(c)) for m in range(3, 7) for k in range(m + 1)
        for c in product(range(4), repeat=k)
    ]
    rng = random.Random(23)
    for _ in range(300):
        m = rng.randint(3, 60)
        k = rng.randint(0, m)
        vectors.append((m, [rng.choice((0, 0, 1, 2, rng.randint(0, 40))) for _ in range(k)]))
    for m, counts in vectors:
        want = form_graph(m, [(p, star_form(x)) for p, x in enumerate(counts)])
        assert cycle_with_stars(m, counts) == want, (m, counts)
    for m, counts, message in (
        (2, [1], "cycle length must be >= 3, got 2"),
        (3, [1, 0, 0, 2], "need at most 3 pendant counts, none negative: [1, 0, 0, 2]"),
        (4, (0, -1), "need at most 4 pendant counts, none negative: [0, -1]"),
    ):
        with pytest.raises(FamilyDomainError) as err:
            cycle_with_stars(m, counts)
        assert str(err.value) == message


def test_attachment_merges_root_degree():
    # d(cycle vertex) = 2 + root degree inside the tree
    g = cycle_with_stars(4, [0, 0, 3])
    assert len(g.adj[2]) == 5


def test_edge_set_decomposition():
    # index = sum over hanging-tree edges + sum over cycle edges, with
    # degrees taken in the whole graph (cycle vertices are 0..m-1 by
    # construction)
    for key in ("C_3(T^3_{n-2})", "C_4(T^1_{n-3})", "C_3(P_3,n-5)"):
        entry = CATALOG[key]
        m = 4 if key.startswith("C_4") else 3
        for n in (12, 15, 20):
            g = entry.core.build(n)
            cycle_edges = {(u, v) for u, v in g.edges() if u < m and v < m}
            tree_edges = set(g.edges()) - cycle_edges
            assert len(cycle_edges) == m
            term = lambda u, v: (len(g.adj[u]) + len(g.adj[v])) ** 2
            total = sum(term(u, v) for u, v in cycle_edges)
            total += sum(term(u, v) for u, v in tree_edges)
            assert total == hyper_zagreb(g)


def test_tie_pair_distinct_graphs():
    a = build_catalog_member("C_3(T^3_{n-2})", 15)
    b = build_catalog_member("C_3(P_3,n-5)", 15)
    assert hyper_zagreb(a) == hyper_zagreb(b) == 2170
    assert canonical_code(a) != canonical_code(b)
