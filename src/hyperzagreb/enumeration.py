"""Exhaustive generation of non-isomorphic trees and unicyclic graphs.

Free trees come from centroid decomposition: a tree with one centroid is a
multiset of rooted subtrees of size <= floor((n-1)/2) around a root, and a
tree with two centroids is an unordered pair of rooted halves of size n/2.
Both correspondences are bijections, so every isomorphism class is emitted
exactly once with no dedup pass.  The multisets are walked iteratively as
non-increasing sequences of form ids, carrying the score as they grow.

Unicyclic graphs come cycle-first: a class is a cycle length m plus a
bracelet (sequence up to rotation and reflection) of rooted-tree forms
hanging from the cycle positions.  A weighted Fredricksen-Kessler-Maiorana
walk visits the necklaces of form ids in lexicographic order, and a
necklace is emitted when no rotation of its reversal is smaller, again
exactly one per class (Sawada, "Generating bracelets in constant amortized
time", SIAM J. Comput. 31, 2001).

Both generators yield a ClassRecord per class, not a Graph.  Its exact
Hyper-Zagreb index is summed from per-form tables (rooted.form_tables),
built once per call: a class's index is the sum of each hanging form's
own edges at its root degree plus the edges joining the roots (the cycle
edges, the centroid edge or the centroid's child edges).  Ranking scores
every class this way and builds only the graphs it reports, through
record.graph(), with the same vertex labels as rooted.form_graph.

The labeled oracle is the independent ground truth used to certify both
generators at small orders: it scans every labeled graph of the class and
partitions them into isomorphism classes purely by permutation orbits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, NamedTuple, Sequence

from .graphs import Graph, from_adjacency, make_graph
from .rooted import (
    Form,
    cycle_adj,
    form_graph,
    form_tables,
    rooted_forms,  # noqa: F401  (perfbench traces enumeration.rooted_forms)
)

ORACLE_MAX_ORDER = 8


class ClassRecord(NamedTuple):
    """One isomorphism class as the enumerators yield it.

    hm is the exact Hyper-Zagreb index, summed from the per-form tables
    without building the graph.  graph() builds the class's representative:
    a tree grows from the single vertex 0 (cycle 0), a unicyclic graph from
    the cycle 0..cycle-1, and each (root, form) of placements hangs below its
    root vertex through rooted.form_graph.
    """

    n: int
    hm: int
    cycle: int
    placements: tuple[tuple[int, Form], ...]

    def graph(self) -> Graph:
        return form_graph(cycle_adj(self.cycle) if self.cycle else [[]], self.placements)


def trees(n: int) -> Iterator[ClassRecord]:
    """All free trees on n vertices, one record per class."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n <= 2:  # one vertex, or one edge with index (1 + 1)^2
        yield ClassRecord(n, 4 * (n - 1), 0, ((0, ((),) * (n - 1)),))
        return
    tables = form_tables(n // 2)
    forms, hung, ids_by_size = tables.forms, tables.hung, tables.ids_by_size
    k = [len(f) + 1 for f in forms]  # a hanging form's root degree
    # Single centroid: every hanging subtree has at most floor((n-1)/2)
    # vertices.  (A subtree of exactly n/2 vertices would move the centroid.)
    # Walk the non-increasing id sequences of total size n - 1, descending;
    # position t holds ids[t] and, before it is placed, the size left and
    # A = sum(hung + k^2), K = sum(k) of the positions before it.  A class
    # whose centroid has degree d scores A + d^3 + 2*d*K.
    size = [s for s, ids in enumerate(ids_by_size) for _ in ids]
    weight = [h + c * c for h, c in zip(hung, k)]
    half = (n - 1) // 2
    # top[s]: 1 + the largest id of size <= s that fits beside the centroid
    top = [ids_by_size[min(s, half)].stop for s in range(n)]
    ids, rem, big_a, big_k = [0] * n, [0] * n, [0] * n, [0] * n
    ids[0], rem[0], t = top[n - 1], n - 1, 0
    while t >= 0:
        fid = ids[t] - 1
        if fid < 0:
            t -= 1
            continue
        ids[t] = fid
        r = rem[t] - size[fid]
        a, kk = big_a[t] + weight[fid], big_k[t] + k[fid]
        if r:
            t += 1
            ids[t], rem[t], big_a[t], big_k[t] = min(fid + 1, top[r]), r, a, kk
        else:
            d = t + 1
            children = tuple(map(forms.__getitem__, ids[:d]))
            yield ClassRecord(n, a + d * d * d + 2 * d * kk, 0, ((0, children),))
    # Two adjacent centroids: unordered pair of rooted halves on n/2 vertices.
    # The second half hangs below a new neighbour of the first root.
    if n % 2 == 0:
        halves = ids_by_size[n // 2]
        for i in halves:
            for j in range(i, halves.stop):
                hm = hung[i] + hung[j] + (k[i] + k[j]) ** 2
                yield ClassRecord(n, hm, 0, ((0, forms[i]), (0, (forms[j],))))


def unicyclic_graphs(n: int) -> Iterator[ClassRecord]:
    """All connected unicyclic graphs on n vertices, one record per class.

    Cycle length by cycle length, a weighted FKM walk over prenecklaces of
    form ids: position t takes any id >= a[t - p], p the period of the
    prefix before it, whose size leaves each later position room for the
    first bead's size (a necklace starts at its smallest bead); the last
    position takes the size that is left.  A necklace (m % p == 0) is a
    bracelet iff it is <= every rotation of its reversal, and only rotations
    starting at a bead equal to a[0] can be smaller.  FKM visits necklaces
    in lexicographic order, so the classes come out ascending by id tuple.
    """
    if n < 3:
        raise ValueError(f"order must be >= 3, got {n}")
    tables = form_tables(n - 2)
    # On the cycle a form's root has degree D = count + 2; its own edges add
    # own = E(f, D), and each cycle edge adds (D_i + D_{i+1})^2.
    deg = [len(f) + 2 for f in tables.forms]
    own = [tables.edge_hm(fid, d) for fid, d in enumerate(deg)]
    forms, ids_by_size = tables.forms, tables.ids_by_size
    del tables  # free its hung list: enumeration needs only deg and own
    stop = [ids.stop for ids in ids_by_size]  # 1 + largest id of size <= s
    for m in range(3, n + 1):
        # Per position: the id and its size, the prefix's period, the size
        # left, the prefix's index (own edges plus the cycle edges inside it)
        # and the id bound.
        a, per, rem, hm, hi = [0] * m, [0] * m, [0] * m, [0] * m, [0] * m
        sz = [1] * m
        a[0], hi[0], t, last = -1, stop[n // m], 0, m - 2
        while t >= 0:
            fid = a[t] + 1
            if fid >= hi[t]:
                t -= 1
                continue
            a[t] = fid
            if fid == stop[sz[t]]:  # ids ascend by size, every size has one
                sz[t] += 1
            if t:
                p = per[t - 1]
                per[t] = p if fid == a[t - p] else t + 1
                rem[t] = rem[t - 1] - sz[t]
                hm[t] = hm[t - 1] + own[fid] + (deg[a[t - 1]] + deg[fid]) ** 2
            else:
                a0, s0, d0 = fid, sz[0], deg[fid]
                per[0], rem[0], hm[0] = 1, n - s0, own[fid]
            if t < last:
                t += 1
                p = per[t - 1]
                a[t], sz[t] = a[t - p] - 1, sz[t - p]
                hi[t] = stop[rem[t - 1] - (m - t - 1) * s0]
                continue
            # The last position: ids of exactly the size left, >= a[m - 1 - p].
            p, r, d_prev, base = per[last], rem[last], deg[fid], hm[last]
            lo = a[m - 1 - p]
            periodic = m % p == 0
            for fid in range(max(lo, ids_by_size[r].start), stop[r]):
                if fid == lo and not periodic:
                    continue
                a[m - 1] = fid
                rev = a[::-1] * 2
                i = rev.index(a0)
                while i < m and rev[i:i + m] >= a:
                    i = rev.index(a0, i + 1)
                if i < m:
                    continue  # a rotation of the reversal is smaller
                d = deg[fid]
                yield ClassRecord(
                    n,
                    base + own[fid] + (d_prev + d) ** 2 + (d + d0) ** 2,
                    m,
                    tuple(enumerate(map(forms.__getitem__, a))),
                )


# ---------------------------------------------------------------------------
# Labeled brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Isomorphism classes of all labeled graphs of one kind and order."""

    n: int
    kind: str
    classes: tuple[Graph, ...]
    labeled_total: int


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(_edge_pairs(n))}


def _graph_from_mask(n: int, mask: int) -> Graph:
    pairs = _edge_pairs(n)
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return make_graph(n, edges)


def prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n >= 2 vertices with Pruefer sequence seq.

    Each step joins the smallest current leaf to the next sequence entry;
    the last two remaining vertices form the final edge.
    """
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


def _labeled_tree_masks(n: int) -> set[int]:
    """Edge-bit masks of every labeled tree on n vertices.

    Scans the Cayley parametrization: each sequence in [0..n-1]^(n-2) is
    decoded to its labeled tree, covering all n^(n-2) trees exactly once.
    """
    if n == 1:
        return {0}
    bit = [[0] * n for _ in range(n)]  # bit[u][v]: the mask bit of edge uv
    for (u, v), i in _pair_index(n).items():
        bit[u][v] = bit[v][u] = 1 << i
    return {
        sum([bit[u][v] for u, v in prufer_edges(seq, n)])
        for seq in product(range(n), repeat=n - 2)
    }


def _labeled_unicyclic_masks(n: int) -> set[int]:
    """Edge-bit masks of every labeled connected unicyclic graph.

    Every connected graph with n edges is a labeled spanning tree plus one
    extra edge, so expanding each labeled tree by each absent edge and
    deduplicating covers the class exactly.
    """
    npairs = n * (n - 1) // 2
    masks: set[int] = set()
    for tmask in _labeled_tree_masks(n):
        for i in range(npairs):
            bit = 1 << i
            if not tmask & bit:
                masks.add(tmask | bit)
    return masks


def _transposition_tables(n: int) -> list[list[list[int]]]:
    """Byte-lookup tables applying each adjacent vertex transposition.

    Table[g][b][v] is the contribution of byte b with value v to the edge
    mask after swapping vertices g and g+1.
    """
    pairs = _edge_pairs(n)
    index = _pair_index(n)
    npairs = len(pairs)
    nbytes = (npairs + 7) // 8
    tables = []
    for g in range(n - 1):
        a, b = g, g + 1
        perm = list(range(npairs))
        for k, (u, v) in enumerate(pairs):
            uu = b if u == a else a if u == b else u
            vv = b if v == a else a if v == b else v
            if uu > vv:
                uu, vv = vv, uu
            perm[k] = index[(uu, vv)]
        byte_tables = []
        for bt in range(nbytes):
            table = [0] * 256
            for val in range(1, 256):
                out = 0
                for bit in range(8):
                    if val >> bit & 1:
                        k = bt * 8 + bit
                        if k < npairs:
                            out |= 1 << perm[k]
                table[val] = out
            byte_tables.append(table)
        tables.append(byte_tables)
    return tables


def _orbit_partition(n: int, masks: set[int]) -> list[tuple[int, int]]:
    """Split labeled masks into relabeling orbits by permutation search.

    Adjacent transpositions generate the full symmetric group, so the BFS
    closure of a mask under them is its complete isomorphism orbit.  Returns
    (representative mask, orbit size) pairs, smallest representative first.
    """
    tables = _transposition_tables(n)
    nbytes = len(tables[0])
    seen: set[int] = set()
    out = []
    for start in sorted(masks):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        orbit_size = 1
        while stack:
            x = stack.pop()
            bytes_x = [(x >> (8 * i)) & 255 for i in range(nbytes)]
            for byte_tables in tables:
                y = 0
                for i in range(nbytes):
                    y |= byte_tables[i][bytes_x[i]]
                if y not in seen:
                    seen.add(y)
                    orbit_size += 1
                    stack.append(y)
        out.append((start, orbit_size))
    return out


def labeled_oracle(n: int, kind: str) -> OracleResult:
    """Ground-truth isomorphism classes from a labeled brute-force scan.

    kind is "trees" or "unicyclic".  Guarded to n <= ORACLE_MAX_ORDER: the
    scan and the orbit partition are exponential in nature and exist to
    certify the generators, not to replace them.
    """
    if kind not in ("trees", "unicyclic"):
        raise ValueError(f"kind must be 'trees' or 'unicyclic', got {kind!r}")
    if n > ORACLE_MAX_ORDER:
        raise ValueError(f"labeled oracle supports n <= {ORACLE_MAX_ORDER}, got {n}")
    if kind == "trees":
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        masks = _labeled_tree_masks(n)
    else:
        if n < 3:
            raise ValueError(f"order must be >= 3, got {n}")
        masks = _labeled_unicyclic_masks(n)
    total = len(masks)
    if n == 1:
        return OracleResult(1, kind, (from_adjacency([[]]),), 1)
    classes = tuple(
        _graph_from_mask(n, rep) for rep, _ in _orbit_partition(n, masks)
    )
    return OracleResult(n, kind, classes, total)
