"""The labeled oracle's parts against direct references.

The Pruefer decoder against the textbook heap decoder, the parent-function
tree scan against a scan of every Pruefer sequence, its buckets against
each tree's degree multiset and the count of trees with that multiset, the
oracle's one partition per bucket against one partition of the whole scan,
the Trotter-Johnson swap sequence and the chunk-table orbit partition
against explicit permutations, the partition's relabelings against a
pinned count, the labeled totals against Cayley's formula
and its unicyclic analogue, each class's orbit size against n!/|Aut|, and
the oracle's whole output against a digest.
"""

import hashlib
import heapq
import random
from collections import Counter
from itertools import permutations, product
from math import comb, factorial

import pytest

from hyperzagreb import enumeration
from hyperzagreb.codec import encode_graph6
from hyperzagreb.enumeration import (
    _edge_pairs,
    _graph_from_mask,
    _labeled_tree_masks,
    _labeled_unicyclic_masks,
    _orbit_partition,
    _trotter_johnson_swaps,
    labeled_oracle,
    prufer_edges,
)
from line_events import line_events

# sha256 over each labeled_total and the graph6 of each class in order, for
# trees n = 1..8 then unicyclic graphs n = 3..7; pinned while the orbits
# were still found by a breadth-first search over every transposition.
ORACLE_SHA256 = "49d6ea4dc7a62d1ffee3314a8c8332df542e1b0db764396afcc65f0d142951b8"


def heap_prufer_edges(seq, n):
    """Reference decoder: pop the smallest leaf from a heap at each step."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def prufer_tree_masks(n):
    """Reference scan: the edge-bit mask of each Pruefer sequence's tree."""
    if n == 1:
        return {0}
    index = {p: i for i, p in enumerate(_edge_pairs(n))}
    return {
        sum(1 << index[min(e), max(e)] for e in prufer_edges(seq, n))
        for seq in product(range(n), repeat=n - 2)
    }


def permutation_orbits(n, masks):
    """(smallest mask, orbit size) per orbit, smallest first, each orbit
    found by applying all n! relabelings to its smallest mask."""
    pairs = _edge_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    images = [
        [index[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs]
        for p in permutations(range(n))
    ]
    left, out = set(masks), []
    for start in sorted(masks):
        if start in left:
            bits = [i for i in range(len(pairs)) if start >> i & 1]
            orbit = {sum(1 << image[i] for i in bits) for image in images}
            left -= orbit
            out.append((start, len(orbit)))
    return out


def tree_masks(n):
    """The tree scan's masks as one set: the union of its buckets."""
    return set().union(*_labeled_tree_masks(n).values())


def partitions(total, parts):
    """Partitions of total into at most parts positive parts."""
    if total == 0:
        return 1
    if parts == 0:
        return 0
    return partitions(total, parts - 1) + (
        partitions(total - parts, parts) if total >= parts else 0
    )


def trees_with_degrees(degrees):
    """Labeled trees whose degree multiset is degrees: (n-2)!/prod (d-1)!
    trees per assignment of the degrees to vertices, n!/prod m_j! of them."""
    n = len(degrees)
    per_sequence = factorial(n - 2)
    for d in degrees:
        per_sequence //= factorial(d - 1)
    sequences = factorial(n)
    for m in Counter(degrees).values():
        sequences //= factorial(m)
    return per_sequence * sequences


def unicyclic_labeled_count(n):
    # a cycle on k chosen vertices, in (k-1)!/2 ways, and a forest of trees
    # rooted on its vertices spanning the rest, in k * n^(n-k-1) ways
    return sum(
        comb(n, k) * factorial(k - 1) // 2 * (k * n ** (n - k - 1) if k < n else 1)
        for k in range(3, n + 1)
    )


def test_decoder_matches_heap_reference_on_every_sequence():
    for n in range(2, 8):
        for seq in product(range(n), repeat=n - 2):
            assert prufer_edges(seq, n) == heap_prufer_edges(seq, n), seq


def test_decoder_matches_heap_reference_on_random_sequences():
    rng = random.Random(10)
    for _ in range(2000):
        n = rng.randint(2, 40)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        assert prufer_edges(seq, n) == heap_prufer_edges(seq, n), seq


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_scan_matches_prufer_scan(n):
    masks = tree_masks(n)
    assert masks == prufer_tree_masks(n)
    assert len(masks) == (n ** (n - 2) if n > 1 else 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_tree_buckets_split_the_scan_by_degree_multiset(n):
    # Per byte of a mask, the sum of (n+1)^u + (n+1)^v over its edges uv:
    # the sum over a mask's bytes holds each vertex's degree as a digit.
    base, pairs = n + 1, _edge_pairs(n)
    tables = [
        [sum(base**u + base**v for i, (u, v) in enumerate(pairs[lo:lo + 8])
             if val >> i & 1) for val in range(256)]
        for lo in range(0, len(pairs), 8)
    ]
    multiset = {}  # degree-sequence digits -> sorted degrees
    buckets = _labeled_tree_masks(n)
    seen = set()
    for key, bucket in buckets.items():
        masks = set(bucket)
        assert len(masks) == len(bucket) and not masks & seen
        seen |= masks
        found = set()
        for mask in bucket:
            digits = sum(t[mask >> 8 * k & 255] for k, t in enumerate(tables))
            if digits not in multiset:
                multiset[digits] = tuple(sorted(digits // base**v % base for v in range(n)))
            found.add(multiset[digits])
        (degrees,) = found
        assert key == sum(base**d for d in degrees)
        assert len(bucket) == (trees_with_degrees(degrees) if n > 1 else 1)
    assert len(seen) == (n ** (n - 2) if n > 1 else 1)
    # every degree multiset of a tree is met: d - 1 >= 0 summing to n - 2
    assert len(buckets) == (partitions(n - 2, n) if n > 1 else 1)
    if n == 8:
        assert len(buckets) == 11 and max(map(len, buckets.values())) == 100_800


def test_tree_oracle_partitions_one_bucket_at_a_time(monkeypatch):
    sizes = []
    partition = enumeration._orbit_partition

    def spy(n, masks):
        sizes.append(len(masks))
        return partition(n, masks)

    monkeypatch.setattr(enumeration, "_orbit_partition", spy)
    result = labeled_oracle(8, "trees")
    assert len(sizes) == 11
    assert max(sizes) == 100_800
    assert sum(sizes) == 262_144 == result.labeled_total


@pytest.mark.parametrize("n", range(1, 9))
def test_bucketed_oracle_matches_one_partition_of_the_scan(n):
    whole = _orbit_partition(n, tree_masks(n))
    result = labeled_oracle(n, "trees")
    assert result.orbit_sizes == tuple(size for _, size in whole)
    assert result.classes == tuple(_graph_from_mask(n, rep) for rep, _ in whole)
    assert result.labeled_total == sum(result.orbit_sizes)


@pytest.mark.parametrize("n", range(1, 9))
def test_swaps_visit_every_permutation_once(n):
    swaps = _trotter_johnson_swaps(n)
    perm = list(range(n))
    seen = {tuple(perm)}
    for g in swaps:
        assert 0 <= g < n - 1
        perm[g], perm[g + 1] = perm[g + 1], perm[g]
        seen.add(tuple(perm))
    assert len(swaps) + 1 == len(seen) == factorial(n)


def test_partition_matches_explicit_permutations():
    # n = 7 is the first order whose partition walks S_4 below all three
    # coset levels; below n = 4 the walk group is S_1.
    for n in range(1, 8):
        mask_sets = [tree_masks(n)]
        if n <= 5:  # every graph: 2^15 masks at n = 6 is too many to permute
            mask_sets.append(set(range(1 << len(_edge_pairs(n)))))
        if n >= 3:
            mask_sets.append(_labeled_unicyclic_masks(n))
        for masks in mask_sets:
            want = permutation_orbits(n, masks)
            total = len(masks)
            got = _orbit_partition(n, masks)
            assert got == want
            assert sum(size for _, size in got) == total
            assert not masks  # consumed


# The partition's output is pinned above; these pin how much its walks
# relabel for it, so a walk that a met image should have skipped, or a
# shallower chain, fails even though the orbits are unchanged.  With one
# coset level above an S_(n-1) walk the counts read 34,560 and 118,080.
WALK_RELABELINGS = {"trees": 21_312, "unicyclic": 82_896}


@pytest.mark.parametrize("kind", list(WALK_RELABELINGS))
def test_walk_relabelings_pinned(kind):
    # Line events at the two `add(x)` lines: one per mask a walk meets, its
    # start included.
    masks = tree_masks(7) if kind == "trees" else _labeled_unicyclic_masks(7)
    count = line_events(_orbit_partition, "add(x)", lambda: _orbit_partition(7, masks))
    assert count == WALK_RELABELINGS[kind]


def degree_orbit(n, masks, degrees):
    """The masks whose sorted degree sequence is degrees."""
    pairs = _edge_pairs(n)
    out = set()
    for mask in masks:
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if sorted(deg) == degrees:
            out.add(mask)
    return out


def test_partition_refuses_a_set_not_closed_under_relabeling():
    # At n = 5 drop each mask in turn, so every class loses one, wherever
    # the mask lies among the stabilizer walks that make up its orbit.
    for full in (tree_masks(5), _labeled_unicyclic_masks(5)):
        for missing in sorted(full):
            with pytest.raises(ValueError):
                _orbit_partition(5, full - {missing})
        extra = full | {1}  # one edge: neither a tree nor unicyclic
        with pytest.raises(ValueError):
            _orbit_partition(5, extra)
    # At n = 7, where three coset levels run above an S_4 walk: each of the
    # star's 7 masks, and masks spread over the path's 2,520 and C_7's 360.
    trees7, cycles7 = tree_masks(7), _labeled_unicyclic_masks(7)
    star = degree_orbit(7, trees7, [1] * 6 + [6])
    path = degree_orbit(7, trees7, [1, 1] + [2] * 5)
    ring = degree_orbit(7, cycles7, [2] * 7)
    assert (len(star), len(path), len(ring)) == (7, 2520, 360)
    for full, orbit in ((trees7, sorted(star)), (trees7, sorted(path)[::360]),
                        (cycles7, sorted(ring)[::60])):
        for missing in orbit:
            with pytest.raises(ValueError):
                _orbit_partition(7, full - {missing})
    for full in (trees7, cycles7):
        with pytest.raises(ValueError):
            _orbit_partition(7, full | {1})


def test_labeled_totals_match_counting_formulas():
    assert [unicyclic_labeled_count(n) for n in range(3, 8)] == [1, 15, 222, 3660, 68295]
    for n in range(1, 8):
        assert labeled_oracle(n, "trees").labeled_total == (n ** (n - 2) if n > 1 else 1)
    for n in range(3, 8):
        assert labeled_oracle(n, "unicyclic").labeled_total == unicyclic_labeled_count(n)


def test_oracle_output_pinned():
    h = hashlib.sha256()
    runs = [("trees", n) for n in range(1, 9)] + [("unicyclic", n) for n in range(3, 8)]
    for kind, n in runs:
        result = labeled_oracle(n, kind)
        h.update(b"%d\n" % result.labeled_total)
        for g in result.classes:
            h.update(encode_graph6(g).encode() + b"\n")
    assert h.hexdigest() == ORACLE_SHA256


def test_orbit_sizes_match_automorphism_counts():
    # A class's labeled graphs number n!/|Aut(G)|; networkx counts the
    # automorphisms (test-only).
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    runs = [("trees", n) for n in range(1, 8)] + [("unicyclic", n) for n in range(3, 7)]
    for kind, n in runs:
        result = labeled_oracle(n, kind)
        assert len(result.orbit_sizes) == len(result.classes)
        assert sum(result.orbit_sizes) == result.labeled_total
        for g, size in zip(result.classes, result.orbit_sizes):
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(n))
            automorphisms = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert size == factorial(n) // automorphisms, (kind, n, encode_graph6(g))
