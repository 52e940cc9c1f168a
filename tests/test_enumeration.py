"""Generator certification: independent counting formulas and labeled oracle."""

import hashlib
import random
from collections import Counter, deque
from itertools import combinations

import pytest

from brute_iso import brute_isomorphic
from hyperzagreb.canon import canonical_code
from hyperzagreb.codec import encode_graph6
from hyperzagreb.enumeration import (
    _labeled_tree_masks,
    labeled_oracle,
    trees,
    unicyclic_graphs,
)
from hyperzagreb.graphs import hyper_zagreb, make_graph
from line_events import line_events
from nested_forms import form_key, form_size, placements
from reference import is_tree, is_unicyclic


def rooted_count_series(n_max):
    r = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            dsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += dsum * r[n - k + 1]
        r.append(total // n)
    return r


def free_tree_count(n, r):
    """Otter's dissimilarity formula from the rooted series."""
    if n <= 1:
        return 1
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    diag = r[n // 2] if n % 2 == 0 else 0
    return r[n] - (pairs - diag) // 2


def unicyclic_count(n, r):
    """Dihedral (necklace) counting of rooted forests around each cycle.

    Uses the cycle index of the dihedral group acting on the cycle
    positions, with the rooted-tree generating function as bead weight.
    Returns the class count for each cycle length m = 3..n (Burnside).
    """

    def poly_mul(a, b):
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if i + j <= n and bj:
                        out[i + j] += ai * bj
        return out

    def poly_pow(a, e):
        out = [0] * (n + 1)
        out[0] = 1
        for _ in range(e):
            out = poly_mul(out, a)
        return out

    def substituted(k):
        # R(x^k) truncated at degree n
        out = [0] * (n + 1)
        for i in range(1, n + 1):
            if i * k <= n:
                out[i * k] = r[i]
        return out

    def phi(d):
        result, x = d, d
        p = 2
        while p * p <= x:
            if x % p == 0:
                while x % p == 0:
                    x //= p
                result -= result // p
            p += 1
        if x > 1:
            result -= result // x
        return result

    counts = {}
    for m in range(3, n + 1):
        # rotations
        rot = 0
        for d in range(1, m + 1):
            if m % d == 0:
                rot += phi(d) * poly_pow(substituted(d), m // d)[n]
        # reflections
        if m % 2 == 1:
            refl = m * poly_mul(substituted(1), poly_pow(substituted(2), (m - 1) // 2))[n]
        else:
            refl = (m // 2) * (
                poly_pow(substituted(2), m // 2)[n]
                + poly_mul(poly_pow(substituted(1), 2), poly_pow(substituted(2), (m - 2) // 2))[n]
            )
        count2m = rot + refl
        assert count2m % (2 * m) == 0
        counts[m] = count2m // (2 * m)
    return counts


def test_tree_counts_match_otter():
    r = rooted_count_series(18)
    for n in range(1, 19):
        assert sum(1 for _ in trees(n)) == free_tree_count(n, r), n


def test_tree_count_at_15():
    r = rooted_count_series(16)
    assert free_tree_count(15, r) == 7741
    assert sum(1 for _ in trees(15)) == 7741


def test_unicyclic_counts_match_necklace_formula():
    r = rooted_count_series(16)
    known = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}
    for n in range(3, 11):
        formula = sum(unicyclic_count(n, r).values())
        assert formula == known[n]
        assert sum(1 for _ in unicyclic_graphs(n)) == formula, n


def test_unicyclic_formula_large_orders():
    # the n = 15 and 16 totals used by the ranking checks
    r = rooted_count_series(16)
    assert sum(unicyclic_count(15, r).values()) == 110381
    assert sum(unicyclic_count(16, r).values()) == 311465


def test_unicyclic_counts_per_cycle_length():
    # Burnside's count for every cycle length m, so periodic necklaces and
    # palindromes are checked length by length, not only in total.
    r = rooted_count_series(17)
    for n in range(3, 17):
        per_cycle = Counter(rec.cycle for rec in unicyclic_graphs(n))
        assert per_cycle == unicyclic_count(n, r), n


# sha256 over repr((n, hm, cycle, placements)) of every record in emission
# order, measured with the earlier generators (dihedral reject test and
# recursive forest walk): the bracelet and id-sequence walks must match them.
RECORD_STREAM_SHA256 = {
    ("unicyclic", 13): "d5e5f9013c1d83eb3f17a95af52ac9adc6e1372f61410c7ba571c1090f63ecce",
    ("unicyclic", 14): "43b3c504324d8fe970d17ee328df534a456d3ab5a62feb120e13d38de3dc58b0",
    ("trees", 16): "3a77843703c7ab39adb17b2e730a2d4bce4a176f62e471e1d2d99ef1933dae4b",
}


@pytest.mark.parametrize("kind, n", list(RECORD_STREAM_SHA256), ids=str)
def test_record_streams_pinned(kind, n):
    digest = hashlib.sha256()
    for rec in {"unicyclic": unicyclic_graphs, "trees": trees}[kind](n):
        digest.update(repr((rec.n, rec.hm, rec.cycle, placements(rec))).encode())
    assert digest.hexdigest() == RECORD_STREAM_SHA256[kind, n]


def ids_digest(records):
    """sha256 over repr((n, hm, cycle, ids)) of each record in order."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(repr((rec.n, rec.hm, rec.cycle, rec.ids)).encode())
    return digest.hexdigest()


# The id stream of unicyclic_graphs(15), the order the benchmark ranks,
# measured before the bracelet test moved into the prefix.
UNICYCLIC_15_IDS_SHA256 = "4147681c689b084bdce46b77b100d6bcf722d5eade7abc4c44bcc158a7b6c3ca"


def test_unicyclic_15_ids_stream_pinned():
    assert ids_digest(unicyclic_graphs(15)) == UNICYCLIC_15_IDS_SHA256


# The id stream of trees(18), the other order the benchmark ranks, measured
# before the walk took a class's single-vertex tail in one step.
TREES_18_IDS_SHA256 = "65c7a6c629217ffef90b3a7d69e72ae597812ef4e970649a09f94018316eebc9"


def test_trees_18_ids_stream_pinned():
    assert ids_digest(trees(18)) == TREES_18_IDS_SHA256


# The id stream of trees(17), an odd order: there n - 1 is twice the largest
# subtree, floor((n - 1) / 2), so one subtree of that size leaves a tail of
# exactly that size, which no even order meets.  Measured before the walk
# took the last ids of a class from a table of tails.
TREES_17_IDS_SHA256 = "4b46247367c33e1c916cd8dd48013048c93e14c9a38ba8b1657023d05e939eb5"


def test_trees_17_ids_stream_pinned():
    assert ids_digest(trees(17)) == TREES_17_IDS_SHA256


def walk_turns(walk, n):
    """Line events at the `while t >= 0:` head of walk while it yields every
    record of order n: one per turn, plus the test that ends each loop (one
    per cycle length in unicyclic_graphs)."""
    return line_events(walk, "while t >= 0:", lambda: deque(walk(n), 0))


# The streams above pin what the walks yield; these pin how much they walk
# for it, so a bound that lets dead prefixes back in fails even though the
# stream is unchanged.  Before every position took the last bead's size into
# its id bound, unicyclic_graphs read 9,146 and 183,166 here; before the tree
# walk took its tails from a table, trees read 20,391.
WALK_TURNS = {
    (unicyclic_graphs, 12): 1_872,
    (unicyclic_graphs, 15): 28_552,
    (trees, 16): 4_101,
}


@pytest.mark.parametrize("walk, n", list(WALK_TURNS), ids=lambda x: getattr(x, "__name__", None))
def test_walk_turns_pinned(walk, n):
    assert walk_turns(walk, n) == WALK_TURNS[walk, n]


def test_unicyclic_records_are_least_bracelets():
    # Each record's ids are <= every rotation of them and of their reversal,
    # and no (cycle, ids) pair repeats; with the per-cycle Burnside counts
    # above, the walk yields exactly one least bracelet per class.
    for n in range(3, 12):
        seen = set()
        for rec in unicyclic_graphs(n):
            ids, m = rec.ids, rec.cycle
            assert len(ids) == m
            for seq in (ids, ids[::-1]):
                for i in range(m):
                    assert ids <= seq[i:] + seq[:i], (n, ids)
            assert (m, ids) not in seen
            seen.add((m, ids))


def test_centroid_children_respect_cap():
    # A single-centroid tree hangs non-increasing subtrees of at most
    # floor((n - 1) / 2) vertices each, n - 1 in all, from vertex 0.  (The
    # one vertex is written out, and the edge has two centroids.)
    for n in range(3, 15):
        cap = (n - 1) // 2
        singles = [rec for rec in trees(n) if len(placements(rec)) == 1]
        assert singles  # the star at least
        for rec in singles:
            ((root, children),) = placements(rec)
            assert root == 0
            assert sum(form_size(c) for c in children) == n - 1
            assert all(form_size(c) <= cap for c in children)
            keys = [form_key(c) for c in children]
            assert keys == sorted(keys, reverse=True)


def test_class_purity_and_no_duplicates():
    # The generators skip edge validation, so each graph must also survive
    # the validating make_graph unchanged.
    for n in range(1, 10):
        seen = set()
        for r in trees(n):
            g = r.graph()
            assert is_tree(g)
            assert make_graph(g.n, list(g.edges())) == g
            code = canonical_code(g)
            assert code not in seen
            seen.add(code)
    for n in range(3, 10):
        seen = set()
        for r in unicyclic_graphs(n):
            g = r.graph()
            assert is_unicyclic(g)
            assert make_graph(g.n, list(g.edges())) == g
            code = canonical_code(g)
            assert code not in seen
            seen.add(code)


def test_records_agree_with_built_graphs():
    # The table index matches the built graph for trees 1..14, which guards the
    # tail sums, and the record's code matches the code of that graph under a
    # seeded relabeling, rebuilt through the validating make_graph: a code that
    # read the labels would differ.  The relabeled check stops at trees 13,
    # which takes its tails from the same tables as 14 (both have subtrees of
    # at most 6 vertices), to keep the test's time.
    rng = random.Random(5134)
    streams = [trees(n) for n in range(1, 15)]
    streams += [unicyclic_graphs(n) for n in range(3, 12)]
    for stream in streams:
        for r in stream:
            g = r.graph()
            assert g.n == r.n
            assert r.hm == hyper_zagreb(g), (r.n, encode_graph6(g))
            if r.cycle == 0 and r.n == 14:
                continue
            perm = rng.sample(range(r.n), r.n)
            h = make_graph(r.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_code(r) == canonical_code(h), (r.n, encode_graph6(g))


def test_only_the_triangle_of_two_leaves_hangs_a_top_size_bead():
    # unicyclic_graphs(n) reads form_tables(n - 2), which keeps no scores for
    # its top size n - 2.  A bead of n - 2 vertices leaves 2 for the rest, so
    # it ends the triangle (0, 0, x): one record per rooted form of n - 2
    # vertices, each scored by the walk from x's two parts.
    r = rooted_count_series(14)
    for n in range(4, 17):
        count = 0
        for rec in unicyclic_graphs(n):
            top = rec.tables.ids_by_size[n - 2]
            if max(rec.ids) >= top.start:
                assert rec.cycle == 3 and rec.ids[:2] == (0, 0) and rec.ids[2] in top
                assert rec.hm == hyper_zagreb(rec.graph()), (n, rec.ids)
                count += 1
        assert top.stop == rec.tables.ids_by_size[-1].stop and count == r[n - 2]


def test_trees_match_networkx():
    # second, independent tree generator (WROM), used by this test only
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        ours = sorted(canonical_code(r) for r in trees(n))
        theirs = sorted(
            canonical_code(make_graph(n, t.edges())) for t in nx.nonisomorphic_trees(n)
        )
        assert ours == theirs, n


def test_emission_deterministic():
    a = [encode_graph6(r.graph()) for r in trees(9)]
    b = [encode_graph6(r.graph()) for r in trees(9)]
    assert a == b
    a = [encode_graph6(r.graph()) for r in unicyclic_graphs(8)]
    b = [encode_graph6(r.graph()) for r in unicyclic_graphs(8)]
    assert a == b


def test_prufer_scan_agrees_with_subset_scan():
    # independent cross-check of the oracle's labeled-tree source
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        subset_masks = set()
        for chosen in combinations(range(len(pairs)), n - 1):
            edges = [pairs[i] for i in chosen]
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            merges = 0
            for u, v in edges:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    merges += 1
            if merges == n - 1:
                subset_masks.add(sum(1 << i for i in chosen))
        assert subset_masks == set().union(*_labeled_tree_masks(n).values())


def test_oracle_examples():
    r = labeled_oracle(4, "trees")
    assert len(r.classes) == 2
    r = labeled_oracle(4, "unicyclic")
    assert len(r.classes) == 2
    r = labeled_oracle(7, "trees")
    assert len(r.classes) == 11
    with pytest.raises(ValueError):
        labeled_oracle(9, "trees")
    with pytest.raises(ValueError):
        labeled_oracle(5, "multigraphs")
    with pytest.raises(ValueError):
        labeled_oracle(0, "trees")
    with pytest.raises(ValueError):
        labeled_oracle(2, "unicyclic")


def test_oracle_agrees_with_generators_to_7():
    # class-for-class bijection by canonical code (n = 8 runs in acceptance)
    for n in range(1, 8):
        oracle_codes = {canonical_code(g) for g in labeled_oracle(n, "trees").classes}
        gen_codes = {canonical_code(g) for g in trees(n)}
        assert oracle_codes == gen_codes
    for n in range(3, 8):
        oracle_codes = {
            canonical_code(g) for g in labeled_oracle(n, "unicyclic").classes
        }
        gen_codes = {canonical_code(g) for g in unicyclic_graphs(n)}
        assert oracle_codes == gen_codes


def test_brute_isomorphic():
    assert brute_isomorphic(
        make_graph(3, [(0, 1), (1, 2)]), make_graph(3, [(0, 2), (0, 1)])
    )
    assert not brute_isomorphic(
        make_graph(4, [(0, 1), (1, 2), (2, 3)]),
        make_graph(4, [(0, 1), (0, 2), (0, 3)]),
    )


def test_domain_guards():
    with pytest.raises(ValueError):
        list(trees(0))
    with pytest.raises(ValueError):
        list(unicyclic_graphs(2))
