import copy
import pickle
import random

import pytest

from hyperzagreb.graphs import (
    DuplicateEdgeError,
    Graph,
    SelfLoopError,
    VertexRangeError,
    classical_indices,
    hyper_zagreb,
    is_connected,
    is_tree,
    is_unicyclic,
    make_graph,
)
from hyperzagreb.families import build_catalog_member, cycle_with_stars, path


def test_make_graph_examples():
    p2 = make_graph(2, [(0, 1)])
    assert p2.n == 2 and p2.num_edges == 1
    c3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert c3.num_edges == 3


def test_make_graph_rejections_are_distinct():
    with pytest.raises(DuplicateEdgeError):
        make_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(SelfLoopError):
        make_graph(3, [(1, 1)])
    with pytest.raises(VertexRangeError):
        make_graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError):
        make_graph(0, [])


def test_degree():
    c3 = cycle_with_stars(3, [])
    assert all(c3.degree(v) == 2 for v in range(3))
    s5 = build_catalog_member("S_n", 5)
    assert s5.degree(0) == 4
    assert s5.degree(1) == 1
    with pytest.raises(VertexRangeError):
        s5.degree(5)


def test_neighbors_and_has_edge_refuse_out_of_range_vertices():
    c3 = cycle_with_stars(3, [])
    assert c3.neighbors(0) == (1, 2) and c3.has_edge(0, 2)
    with pytest.raises(VertexRangeError):
        c3.neighbors(3)
    with pytest.raises(VertexRangeError):
        c3.neighbors(-1)
    with pytest.raises(VertexRangeError):
        c3.has_edge(0, 3)
    with pytest.raises(VertexRangeError):
        c3.has_edge(-1, 0)


def test_edge_contribution():
    # every edge of these graphs joins the same two degrees, so each adds
    # (d(u) + d(v))**2: 4 on P_2, 16 on a cycle, 25 on S_5
    assert hyper_zagreb(make_graph(2, [(0, 1)])) == 1 * 4
    assert hyper_zagreb(cycle_with_stars(3, [])) == 3 * 16
    assert hyper_zagreb(build_catalog_member("S_n", 5)) == 4 * 25


def test_hyper_zagreb_examples():
    assert hyper_zagreb(make_graph(1, [])) == 0
    assert hyper_zagreb(build_catalog_member("S_n", 5)) == 100
    assert hyper_zagreb(path(4)) == 34
    # triangle with a 2-edge path at one vertex and ten leaves at another
    assert hyper_zagreb(build_catalog_member("C_3(P_3,n-5)", 15)) == 2170


def test_classical_indices():
    ci = classical_indices(cycle_with_stars(7, []))
    assert (ci.m1, ci.m2, ci.f) == (28, 28, 56)
    ci = classical_indices(build_catalog_member("S_n", 4))
    assert (ci.m1, ci.m2, ci.f) == (12, 9, 30)


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_identity_and_handshake_random():
    rng = random.Random(7)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(1, 12), rng.random())
        degs = [g.degree(v) for v in range(g.n)]
        assert sum(degs) == 2 * g.num_edges
        ci = classical_indices(g)
        assert hyper_zagreb(g) == ci.f + 2 * ci.m2


def test_edge_sum_order_independence():
    rng = random.Random(11)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(2, 10), 0.5)
        edges = list(g.edges())
        rng.shuffle(edges)
        assert hyper_zagreb(g) == sum((g.degree(u) + g.degree(v)) ** 2 for u, v in edges)


def test_class_predicates():
    assert is_tree(path(5)) and not is_unicyclic(path(5))
    assert is_unicyclic(cycle_with_stars(4, [])) and not is_tree(cycle_with_stars(4, []))
    two_edges = make_graph(4, [(0, 1), (2, 3)])
    assert not is_tree(two_edges) and not is_unicyclic(two_edges)
    assert not is_connected(Graph(0, ()))  # the empty graph is not connected


def test_graph_immutability_surface():
    g = build_catalog_member("S_n", 4)
    assert isinstance(g.adj, tuple)
    assert all(isinstance(a, tuple) for a in g.adj)


def test_graph_refuses_assignment():
    g = build_catalog_member("S_n", 4)
    held = {g}
    for name in ("n", "adj", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 2)
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(AttributeError):
        g.adj = ((1,), (0,))
    assert g.n == 4 and g in held and build_catalog_member("S_n", 4) in held


def test_graph_equals_only_graphs_and_copies_whole():
    adj = ((1, 2), (0,), (0,))
    g = Graph(3, adj)
    assert g == Graph(3, adj) and hash(g) == hash(Graph(3, adj)) == hash((3, adj))
    assert g != (3, adj) and not g == (3, adj) and (3, adj) != g
    assert g != Graph(3, ((1,), (0, 2), (1,))) and repr(g) == "Graph(n=3, m=2)"
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is Graph and twin == g and hash(twin) == hash(g)


def test_values_exact_beyond_32_bits():
    g = build_catalog_member("S_n", 5000)
    assert hyper_zagreb(g) == 4999 * 5000**2
