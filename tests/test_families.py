import pytest

from hyperzagreb.canon import canonical_code
from hyperzagreb.families import (
    CATALOG,
    FamilyDomainError,
    UnknownFamilyError,
    build_catalog_member,
    cycle,
    cycle_star_hm,
    cycle_star_hm_miscounted,
    cycle_with_attachments,
    cycle_with_stars,
    long_broom,
    path,
    star,
    tree_t_family,
)
from hyperzagreb.graphs import hyper_zagreb, is_tree, is_unicyclic, make_graph
from hyperzagreb.rooted import path_form


def test_catalog_faithful_over_validity_windows():
    # Every closed form must equal the directly computed value of its built
    # graph on the first 31 valid orders.
    for key, entry in CATALOG.items():
        lo = entry.poly.valid_n_min
        for n in range(lo, lo + 31):
            g = entry.builder(n)
            assert g.n == n, key
            assert (is_tree(g) if entry.kind == "tree" else is_unicyclic(g)), key
            assert hyper_zagreb(g) == entry.poly.evaluate(n), (key, n)


def test_built_graphs_survive_validation():
    # The builders skip edge validation, so each graph must come through the
    # validating make_graph unchanged.
    built = [path(n) for n in range(1, 32)] + [cycle(n) for n in range(3, 34)]
    for entry in CATALOG.values():
        lo = entry.poly.valid_n_min
        built += [entry.builder(n) for n in range(lo, lo + 31)]
    for g in built:
        assert make_graph(g.n, list(g.edges())) == g


def test_family_point_values():
    assert hyper_zagreb(star(6)) == 180
    assert hyper_zagreb(tree_t_family(1, 5)) == 66
    assert hyper_zagreb(tree_t_family(2, 6)) == 100
    assert hyper_zagreb(tree_t_family(3, 6)) == 84
    assert hyper_zagreb(tree_t_family(3, 10)) == 500
    # no closed form exists for the fourth broom; direct edge sums
    assert hyper_zagreb(tree_t_family(4, 9)) == 300
    assert hyper_zagreb(tree_t_family(4, 10)) == 420
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
        star(1)
    with pytest.raises(FamilyDomainError):
        tree_t_family(2, 5)
    with pytest.raises(FamilyDomainError):
        tree_t_family(4, 5)
    with pytest.raises(FamilyDomainError):
        long_broom(4)
    with pytest.raises(FamilyDomainError):
        build_catalog_member("C_3(T^2_{n-2})", 7)
    with pytest.raises(FamilyDomainError):
        tree_t_family(5, 10)


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
    g = cycle_with_attachments(3, [(0, path_form(2)), (1, 10)])
    assert g.n == 15
    assert hyper_zagreb(g) == 2170
    with pytest.raises(FamilyDomainError):
        cycle_with_attachments(3, [(0, 1), (0, 2)])  # duplicate position
    with pytest.raises(FamilyDomainError):
        cycle_with_attachments(2, [(0, 1)])


def test_attachment_merges_root_degree():
    # d(cycle vertex) = 2 + root degree inside the tree
    g = cycle_with_attachments(4, [(2, ((), (), ()))])
    assert g.degree(2) == 5


def test_edge_set_decomposition():
    # index = sum over hanging-tree edges + sum over cycle edges, with
    # degrees taken in the whole graph (cycle vertices are 0..m-1 by
    # construction)
    for key in ("C_3(T^3_{n-2})", "C_4(T^1_{n-3})", "C_3(P_3,n-5)"):
        entry = CATALOG[key]
        m = 4 if key.startswith("C_4") else 3
        for n in (12, 15, 20):
            g = entry.builder(n)
            cycle_edges = {(u, v) for u, v in g.edges() if u < m and v < m}
            tree_edges = set(g.edges()) - cycle_edges
            assert len(cycle_edges) == m
            term = lambda u, v: (g.degree(u) + g.degree(v)) ** 2
            total = sum(term(u, v) for u, v in cycle_edges)
            total += sum(term(u, v) for u, v in tree_edges)
            assert total == hyper_zagreb(g)


def test_tie_pair_distinct_graphs():
    a = build_catalog_member("C_3(T^3_{n-2})", 15)
    b = build_catalog_member("C_3(P_3,n-5)", 15)
    assert hyper_zagreb(a) == hyper_zagreb(b) == 2170
    assert canonical_code(a) != canonical_code(b)
