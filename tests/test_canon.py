"""Soundness of the canonical code against pure permutation-search ground truth.

Codes cover trees and connected unicyclic graphs; every other graph is
refused with GraphError.
"""

import hashlib
import random
from collections import defaultdict
from itertools import combinations, permutations

import pytest

from brute_iso import brute_isomorphic
from hyperzagreb.canon import canonical_code, cycle_vertices, tree_centroids
from hyperzagreb.enumeration import (
    _graph_from_mask,
    _orbit_partition,
    labeled_oracle,
    prufer_edges,
    trees,
    unicyclic_graphs,
)
from hyperzagreb.families import cycle, cycle_with_stars, path, star
from hyperzagreb.graphs import GraphError, is_tree, is_unicyclic, make_graph

# Class counts per order, trees for n = 1..6 and unicyclic graphs for
# n = 1..6 (OEIS A000055 and A001429).
TREE_CLASSES = [1, 1, 1, 2, 3, 6]
UNICYCLIC_CLASSES = [0, 0, 1, 2, 5, 13]

# sha256 over the hex canonical code of every class of trees(1..12) then
# unicyclic_graphs(3..12), one line each in emission order (8,859 classes).
CODES_TO_12_SHA256 = "711318701b96a1bf335025c90f80d48b81cbe6e1e337ed9691c50d66e4e2151a"


def _relabel(g, perm):
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_relabeling_invariance_examples():
    a = make_graph(3, [(0, 1), (1, 2)])
    b = make_graph(3, [(1, 0), (0, 2)])
    assert canonical_code(a) == canonical_code(b)


def test_distinguishes_non_isomorphic():
    assert canonical_code(path(4)) != canonical_code(star(4))
    assert canonical_code(cycle(4)) != canonical_code(cycle_with_stars(3, [1]))


def _coded_classes(n):
    """Orbit representatives of the labeled trees and connected unicyclic
    graphs on n vertices; every other labeled graph must be refused."""
    kept = set()
    for mask in range(1 << (n * (n - 1) // 2)):
        g = _graph_from_mask(n, mask)
        if is_tree(g) or is_unicyclic(g):
            kept.add(mask)
        else:
            with pytest.raises(GraphError):
                canonical_code(g)
    reps = [rep for rep, _ in _orbit_partition(n, kept)] if n > 1 else [0]
    assert len(reps) == TREE_CLASSES[n - 1] + UNICYCLIC_CLASSES[n - 1]
    return reps


def test_exact_on_all_graphs_up_to_5():
    # Ground truth: full permutation orbits over every labeled graph.  The
    # code is sound iff it is constant on each orbit and distinct across
    # orbit representatives of the two coded classes.
    for n in range(1, 6):
        reps = _coded_classes(n)
        rep_codes = [canonical_code(_graph_from_mask(n, rep)) for rep in reps]
        assert len(set(rep_codes)) == len(reps)
        for rep, code in zip(reps, rep_codes):
            g = _graph_from_mask(n, rep)
            for perm in permutations(range(n)):
                assert canonical_code(_relabel(g, perm)) == code


def test_exact_on_all_graphs_order_6_sampled_relabelings():
    # The 19 tree and unicyclic classes among all 32,768 labeled graphs on
    # 6 vertices get distinct codes; the relabeling invariance is sampled
    # (the <= 5 test covers it in full).
    reps = _coded_classes(6)
    rep_codes = [canonical_code(_graph_from_mask(6, rep)) for rep in reps]
    assert len(set(rep_codes)) == len(reps) == 19
    rng = random.Random(2)
    perms = [tuple(rng.sample(range(6), 6)) for _ in range(40)]
    for rep, code in zip(reps, rep_codes):
        g = _graph_from_mask(6, rep)
        for perm in perms:
            assert canonical_code(_relabel(g, perm)) == code


def test_trees_on_7_vertices_distinct_codes():
    oracle = labeled_oracle(7, "trees")
    assert len(oracle.classes) == 11
    codes = [canonical_code(g) for g in oracle.classes]
    assert len(set(codes)) == 11
    for a, b in combinations(oracle.classes, 2):
        assert not brute_isomorphic(a, b)


def test_unicyclic_code_invariance_random():
    rng = random.Random(5)
    for counts in ([3], [1, 2], [2, 0, 5], [1, 1, 1, 1]):
        for m in (3, 4, 5, 6):
            g = cycle_with_stars(m, counts[: m - 1] or [1])
            code = canonical_code(g)
            for _ in range(40):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_code(_relabel(g, perm)) == code


def _complete(n):
    return make_graph(n, combinations(range(n), 2))


@pytest.mark.parametrize(
    "g",
    [
        _complete(4),
        make_graph(4, [(0, 1), (2, 3)]),  # matching: disconnected, too few edges
        make_graph(4, [(0, 1), (1, 2), (2, 0)]),  # n - 1 edges, not a tree
        make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # n edges
        _complete(12),  # refused at once: no search runs, whatever the order
    ],
    ids=["K4", "matching", "triangle+isolated", "two-triangles", "K12"],
)
def test_rejects_graphs_outside_both_classes(g):
    with pytest.raises(GraphError):
        canonical_code(g)


def test_code_bytes_pinned_to_n12():
    digest = hashlib.sha256()
    for n in range(1, 13):
        for r in trees(n):
            digest.update(canonical_code(r).hex().encode() + b"\n")
    for n in range(3, 13):
        for r in unicyclic_graphs(n):
            digest.update(canonical_code(r).hex().encode() + b"\n")
    assert digest.hexdigest() == CODES_TO_12_SHA256


def test_atlas_codes_match_generators():
    # Independent source: every tree and connected unicyclic graph in the
    # networkx graph atlas (all graphs on up to 7 vertices), test-only.
    nx = pytest.importorskip("networkx")
    groups = defaultdict(list)
    for a in nx.graph_atlas_g():
        n, m = a.number_of_nodes(), a.number_of_edges()
        if n == 0 or not nx.is_connected(a) or m not in (n - 1, n):
            continue
        kind = "trees" if m == n - 1 else "unicyclic"
        g = make_graph(n, a.edges())
        groups[kind, n].append(canonical_code(g))
    sizes = {key: len(codes) for key, codes in groups.items()}
    assert sizes == {
        **{("trees", n): c for n, c in zip(range(1, 8), [1, 1, 1, 2, 3, 6, 11])},
        **{("unicyclic", n): c for n, c in zip(range(3, 8), [1, 2, 5, 13, 33])},
    }
    generate = {"trees": trees, "unicyclic": unicyclic_graphs}
    for (kind, n), codes in groups.items():
        assert len(set(codes)) == len(codes), (kind, n)
        assert set(codes) == {canonical_code(r) for r in generate[kind](n)}, (kind, n)


def test_codes_agree_with_networkx_vf2():
    # Independent isomorphism test (VF2), test-only: equal codes exactly
    # when networkx finds the two graphs isomorphic.  Seeded Pruefer trees,
    # some with one extra edge, each with a relabelled twin; plus enumerated
    # classes that share a degree sequence, the pairs a weak code would merge.
    nx = pytest.importorskip("networkx")
    rng = random.Random(20)
    graphs = []
    for _ in range(80):
        n = rng.randint(2, 20)
        edges = prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)
        if n >= 3 and rng.random() < 0.5:
            absent = set(combinations(range(n), 2)) - {tuple(sorted(e)) for e in edges}
            edges.append(rng.choice(sorted(absent)))
        g = make_graph(n, edges)
        graphs += [g, _relabel(g, rng.sample(range(n), n))]
    for records in (trees(10), unicyclic_graphs(8)):
        by_degrees = defaultdict(list)
        for r in records:
            g = r.graph()
            by_degrees[tuple(sorted(map(g.degree, range(g.n))))].append(g)
        shared = [group for group in by_degrees.values() if len(group) > 1]
        assert shared
        for group in shared:
            graphs += group[:3]
    groups = defaultdict(list)
    for g in graphs:
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        groups[g.n, g.num_edges].append((canonical_code(g), h))
    same = hard = 0  # isomorphic pairs; non-isomorphic with one degree sequence
    for members in groups.values():
        for (code_a, a), (code_b, b) in combinations(members, 2):
            iso = nx.is_isomorphic(a, b)
            assert (code_a == code_b) == iso
            same += iso
            degrees_a, degrees_b = (sorted(d for _, d in h.degree) for h in (a, b))
            hard += not iso and degrees_a == degrees_b
    assert same >= 80 and hard >= 80


def test_centroids_and_cycle_helpers():
    assert tree_centroids(path(4)) == [1, 2]
    assert tree_centroids(path(5)) == [2]
    assert tree_centroids(star(7)) == [0]
    assert sorted(cycle_vertices(cycle_with_stars(4, [3, 1]))) == [0, 1, 2, 3]


def test_deterministic_across_runs():
    g = cycle_with_stars(5, [2, 0, 3])
    assert canonical_code(g) == canonical_code(g)
    expected = canonical_code(star(9))
    for _ in range(3):
        assert canonical_code(star(9)) == expected
