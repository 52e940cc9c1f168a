"""Soundness of the canonical code against pure permutation-search ground truth.

Codes cover trees and connected unicyclic graphs; every other graph is
refused with GraphError.
"""

import gc
import hashlib
import os
import random
import tracemalloc
from collections import defaultdict
from itertools import combinations, permutations, product

import pytest

import hyperzagreb
from brute_iso import brute_isomorphic
from hyperzagreb.canon import _least_rotation, canonical_code, dihedral_least, hanging_trees
from hyperzagreb.enumeration import (
    _graph_from_mask,
    _orbit_partition,
    labeled_oracle,
    prufer_edges,
    trees,
    unicyclic_graphs,
)
from hyperzagreb.families import build_catalog_member, cycle_with_stars
from hyperzagreb.graphs import Graph, GraphError, make_graph
from hyperzagreb.transforms import StructureError, reduce_to_single_attachment
from reference import is_tree, is_unicyclic, path

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
    assert canonical_code(path(4)) != canonical_code(build_catalog_member("S_n", 4))
    assert canonical_code(cycle_with_stars(4, [])) != canonical_code(cycle_with_stars(3, [1]))


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


def _connected_edges(rng, labels, extra):
    """A random labeled tree on labels plus `extra` edges it lacks."""
    k = len(labels)
    pairs = prufer_edges([rng.randrange(k) for _ in range(k - 2)], k) if k > 1 else []
    absent = sorted(set(combinations(range(k), 2)) - {tuple(sorted(e)) for e in pairs})
    pairs += rng.sample(absent, extra)
    return [(labels[a], labels[b]) for a, b in pairs]


def _guard_cases(rng, n):
    """Graphs on n vertices with n - 1 or n edges, connected or not, with
    their vertices shuffled so that no part sits at the low ids."""
    v = rng.sample(range(n), n)
    k = rng.randint(4, n - 3)
    theta = [(v[i], v[(i + 1) % (n - 2)]) for i in range(n - 2)]
    return [
        _connected_edges(rng, v, 0),  # a tree
        _connected_edges(rng, v, 1),  # connected unicyclic
        _connected_edges(rng, v[:k], 1) + _connected_edges(rng, v[k:], 0),  # cycle + tree
        _connected_edges(rng, v[:k], 1) + _connected_edges(rng, v[k:], 1),  # two cycles
        _connected_edges(rng, v[:k], 2) + _connected_edges(rng, v[k:], 0),  # two cycles + tree
        theta + [(v[0], v[(n - 2) // 2]), (v[-2], v[-1])],  # theta + K2
        _connected_edges(rng, v[1:], 1),  # an isolated vertex + unicyclic
        _connected_edges(rng, v[2:], 1) + [(v[0], v[1])],  # K2 + unicyclic
    ]


def test_leaf_strip_is_the_class_check():
    # canonical_code refuses exactly the graphs that are neither trees nor
    # connected unicyclic, and reduce exactly those that are not unicyclic,
    # with the tests' BFS predicates is_tree / is_unicyclic as the reference
    rng = random.Random(42)
    graphs = [Graph(0, ())]
    for n in range(7, 41):
        for _ in range(3):
            graphs += [make_graph(n, edges) for edges in _guard_cases(rng, n)]
    expected = [(is_tree(g) or is_unicyclic(g), is_unicyclic(g)) for g in graphs]
    assert sum(coded for coded, _ in expected) == 2 * 34 * 3
    assert all(g.num_edges in (g.n - 1, g.n) for g in graphs)
    for g, (coded, unicyclic) in zip(graphs, expected):
        try:
            code = canonical_code(g)
        except GraphError as exc:
            assert not coded and "cover trees and connected unicyclic" in str(exc), g
        else:
            assert coded and code[:1] == (b"U" if unicyclic else b"T"), g
        try:
            chain = reduce_to_single_attachment(g)
        except StructureError as exc:
            assert not unicyclic and str(exc) == "input must be connected and unicyclic", g
        else:
            assert unicyclic and chain[0] is g, g


def test_code_bytes_pinned_to_n12():
    # a record is coded through the graph it builds; the digest pins the
    # bytes of every code, and the smallest classes are written out
    assert canonical_code(next(iter(trees(1)))) == b"T1()"
    assert canonical_code(next(iter(trees(2)))) == b"T2()()"
    assert canonical_code(next(iter(unicyclic_graphs(3)))) == b"U\0\0\0\3()()()"
    digest = hashlib.sha256()
    streams = [trees(n) for n in range(1, 13)]
    streams += [unicyclic_graphs(n) for n in range(3, 13)]
    for stream in streams:
        for r in stream:
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
            by_degrees[tuple(sorted(map(len, g.adj)))].append(g)
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


def _largest_component_without(g, v):
    """Order of the largest component of g - v."""
    largest = 0
    for w in g.adj[v]:
        seen = {v, w}
        stack = [w]
        while stack:
            for y in g.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        largest = max(largest, len(seen) - 1)
    return largest


def _strip_leaves(g):
    """The vertices left once degree-1 vertices are deleted until none is."""
    alive = set(range(g.n))
    while True:
        leaves = {v for v in alive if sum(w in alive for w in g.adj[v]) == 1}
        if not leaves:
            return alive
        alive -= leaves


def test_hanging_trees_hang_from_the_centroids_or_the_cycle():
    rng = random.Random(21)

    def relabeled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return _relabel(g, perm)

    for n in range(1, 13):
        for r in trees(n):
            g = relabeled(r.graph())
            hanging = hanging_trees(g)
            worst = [_largest_component_without(g, v) for v in range(n)]
            assert list(hanging) == [v for v in range(n) if worst[v] == min(worst)]
            assert sum(s for s, _ in hanging.values()) == n
    for n in range(3, 11):
        for r in unicyclic_graphs(n):
            g = relabeled(r.graph())
            hanging = hanging_trees(g)
            walk = list(hanging)
            assert sorted(walk) == sorted(_strip_leaves(g))
            assert walk[0] == min(walk) and walk[1] < walk[-1]
            assert all(b in g.adj[a] for a, b in zip(walk, walk[1:] + walk[:1]))
            assert sum(s for s, _ in hanging.values()) == n


def test_deterministic_across_runs():
    g = cycle_with_stars(5, [2, 0, 3])
    assert canonical_code(g) == canonical_code(g)
    expected = canonical_code(build_catalog_member("S_n", 9))
    for _ in range(3):
        assert canonical_code(build_catalog_member("S_n", 9)) == expected


def _caterpillar(spine):
    # a path 0..spine-1 with one leaf spine + i hanging from each vertex i
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return make_graph(2 * spine, edges)


def _triangle_with_tail(tail):
    # a triangle 0-1-2 and a path of `tail` vertices 3..tail+2 hanging from 0
    edges = [(0, 1), (1, 2), (2, 0), (0, 3)] + [(v, v + 1) for v in range(3, tail + 2)]
    return make_graph(tail + 3, edges)


@pytest.mark.parametrize(
    "g, header",
    [
        (make_graph(3001, [(i, i + 1) for i in range(3000)]), b"T1"),
        (make_graph(20000, [(i, i + 1) for i in range(19999)]), b"T2"),
        (_caterpillar(3000), b"T2"),
        (_triangle_with_tail(5000), b"U" + (3).to_bytes(4, "big")),
    ],
    ids=["path-3001", "path-20000", "caterpillar-6000", "triangle-tail-5000"],
)
def test_deep_graphs_code_without_recursion(g, header):
    # Thousands of levels deep, under the default recursion limit: no step
    # of the code recurses over a hanging tree.  Each vertex writes one
    # bracket pair, and a relabelled copy gets the same code.
    code = canonical_code(g)
    assert code[: len(header)] == header
    assert len(code) == len(header) + 2 * g.n
    assert canonical_code(_relabel(g, list(reversed(range(g.n))))) == code


def test_deep_path_codes_are_exact():
    half = b"(" * 1500 + b")" * 1500
    assert canonical_code(path(3001)) == b"T1(" + half + half + b")"
    half = b"(" * 10000 + b")" * 10000
    assert canonical_code(path(20000)) == b"T2" + half + half


def test_least_rotation_is_the_least_of_all_rotations():
    rng = random.Random(12)
    keys = [(1, b"\x01\x00"), (2, b"\x01\x01\x00\x00"), (3, b"\x01\x01\x00\x01\x00\x00")]
    for _ in range(5000):
        m = rng.randint(1, 13)
        alphabet = keys[: rng.randint(1, 3)]
        period = [rng.choice(alphabet) for _ in range(rng.randint(1, m))]
        s = (period * m)[:m] if rng.random() < 0.5 else [rng.choice(alphabet) for _ in range(m)]
        assert _least_rotation(s) == min(s[i:] + s[:i] for i in range(m)), s


def test_least_rotation_matches_brute_force_to_length_9():
    # every int list over {0, 1, 2} of length 0..9 (29,524 of them)
    for m in range(10):
        for s in map(list, product(range(3), repeat=m)):
            rotations = [s[i:] + s[:i] for i in range(m)] or [[]]
            assert _least_rotation(s) == min(rotations), s
            reflected = [r[::-1] for r in rotations]
            assert dihedral_least(s) == min(rotations + reflected), s


class _Counted:
    """An int that counts every comparison made between two of its kind."""

    compared = 0

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        _Counted.compared += 1
        return self.v == other.v

    def __lt__(self, other):
        _Counted.compared += 1
        return self.v < other.v

    def __gt__(self, other):
        _Counted.compared += 1
        return self.v > other.v


@pytest.mark.parametrize(
    "s",
    [
        [0] * 1999 + [1],
        [1] + [0] * 1999,
        [1, 0] * 1000,
        [2] * 2000,
        [0, 0, 1] * 667,
        [random.Random(29).randrange(3) for _ in range(2000)],
    ],
    ids=["zeros-then-one", "one-then-zeros", "alternating", "all-equal", "period-3", "random"],
)
def test_least_rotation_makes_at_most_6n_comparisons(s):
    # at most 3n turns, each comparing two entries at most twice
    counted = [_Counted(v) for v in s]
    _Counted.compared = 0
    least = _least_rotation(counted)
    assert _Counted.compared <= 6 * len(s)
    m = len(s)
    assert [c.v for c in least] == min(s[i:] + s[:i] for i in range(m))


def test_long_cycle_code_is_exact():
    # 45,000 cycle vertices, a pendant on every third: the least rotation
    # starts at the two bare vertices before a pendant, whichever way round.
    m = 45000
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, m + i // 3) for i in range(0, m, 3)]
    g = make_graph(m + m // 3, edges)
    code = b"U" + m.to_bytes(4, "big") + b"()()(())" * (m // 3)
    assert canonical_code(g) == code
    assert canonical_code(_relabel(g, list(reversed(range(g.n))))) == code


@pytest.mark.parametrize("deep", ["path-20000", "triangle-tail-5000"])
def test_deep_codes_hold_little_memory(deep):
    # A vertex drops its children's keys once its own is built, so a path
    # holds O(n) key bytes at a time; a strip that kept every stripped
    # vertex's child keys peaks at about 196 and 25 MiB on these graphs.
    if deep == "path-20000":
        g = path(20000)
    else:
        n = 5000
        g = make_graph(n, [(0, 1), (1, 2), (0, 2)] + [(v - 1, v) for v in range(3, n)])
    tracemalloc.start()
    try:
        canonical_code(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_canonical_code_keeps_no_memory():
    # No cache outlives a call: coding a second round of fresh random trees
    # must not grow the memory that the library's own frames hold.
    rng = random.Random(11)
    package = os.path.join(os.path.dirname(hyperzagreb.__file__), "*")

    def one_round():
        for _ in range(500):
            canonical_code(make_graph(48, prufer_edges([rng.randrange(48) for _ in range(46)], 48)))
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        kept = snapshot.filter_traces([tracemalloc.Filter(True, package)])
        return sum(stat.size for stat in kept.statistics("filename"))

    tracemalloc.start()
    try:
        first, second = one_round(), one_round()
    finally:
        tracemalloc.stop()
    assert second - first <= 4096, (first, second)
