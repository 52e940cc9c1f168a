"""Exhaustive generation of non-isomorphic trees and unicyclic graphs.

Free trees come from centroid decomposition: a tree with one centroid is a
multiset of rooted subtrees of size <= floor((n-1)/2) around a root, and a
tree with two centroids is an unordered pair of rooted halves of size n/2.
Both correspondences are bijections, so every isomorphism class is emitted
exactly once with no dedup pass.  The multisets are walked iteratively as
non-increasing sequences of form ids, carrying the score as they grow;
once at most floor((n-1)/2) vertices are left, a table gives every ending.

Unicyclic graphs come cycle-first: a class is a cycle length m plus a
bracelet (sequence up to rotation and reflection) of rooted-tree forms
hanging from the cycle positions.  A weighted Fredricksen-Kessler-Maiorana
walk visits the necklaces of form ids in lexicographic order and emits a
necklace when no rotation of its reversal is smaller, again exactly one
per class.  As in Sawada's bracelet scheme ("Generating bracelets in
constant amortized time", SIAM J. Comput. 31, 2001) the prefix carries the
reversal test: a prefix whose reversal read back from a copy of the least
bead is already smaller is dropped with all its completions, and the last
bead starts at the least id that no palindromic prefix beats.  One bound
at every bead before it keeps room for that id (which only grows) at the
last bead and for the first, least size at each bead between; as each bead
met its own bound, the next never falls below the first bead's size.

Both generators walk form ids of the registry rooted.form_tables, built
once per call, and never build a nested form.  They yield a ClassRecord
per class, not a Graph: the class's form ids and its exact Hyper-Zagreb
index, summed from the registry's per-form tables.  A class's index is
the sum of each hanging form's own edges at its root degree plus the edges
joining the roots (the cycle edges, the centroid edge or the centroid's
child edges).  Ranking scores every class this way, then builds and codes
only the classes it reports: record.graph() reads their forms through
FormTables.kids, and canon.canonical_code codes the graph it builds.
The registry leaves its top size unscored: see FormTables.

The labeled oracle is the independent ground truth used to certify both
generators at small orders: it scans every labeled graph of the class as an
edge-bit mask (each labeled tree walked once as a parent function toward
vertex n - 1, a unicyclic graph as a tree plus one edge) and partitions
them into isomorphism classes purely by permutation orbits.  A walk
relabels a mask through the k! permutations that fix vertices k..n-1,
k = max(n - 3, 1), in Trotter-Johnson order, one adjacent vertex
transposition per step applied through three chunk lookup tables.  S_n is
the union of the n!/k! cosets of that stabilizer, reached three levels
down a stabilizer chain, so the orbit of any mask not yet placed is the
union of the walks from its coset images; an image that an earlier walk
met is skipped.  The orbit's masks are removed from its set:
the unicyclic graphs, or the labeled trees of one degree multiset at a time.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import cache
from itertools import chain, combinations
from typing import Iterator, NamedTuple, Sequence

from .graphs import Graph, make_graph
from .rooted import FormTables, form_graph, form_tables

ORACLE_MAX_ORDER = 8


class ClassRecord(NamedTuple):
    """One isomorphism class as the enumerators yield it.

    hm is the exact Hyper-Zagreb index, summed from the per-form tables
    without building the graph.  ids name the class's forms in the registry
    `tables`: for a unicyclic graph (cycle its length) the beads hanging from
    the cycle 0..cycle-1 in order; for a tree (cycle 0) the subtrees of its
    single centroid, vertex 0, or the pair of halves of a tree with two
    centroids.  graph() hangs them through rooted.form_graph, and canon
    codes a record through that graph.
    """

    n: int
    hm: int
    cycle: int
    ids: tuple[int, ...]
    tables: FormTables

    @property
    def halves(self) -> bool:
        # On an even order a single centroid has three subtrees or more: each
        # is below n/2 vertices and they sum to n - 1.
        return not self.cycle and len(self.ids) == 2 and self.n % 2 == 0

    def graph(self) -> Graph:
        ids, kids = self.ids, self.tables.kids
        if self.cycle:
            return form_graph(self.cycle, enumerate(ids), kids)
        # two halves: the second hangs below a new neighbour of vertex 0
        placements = ((0, ids[0]), (0, ids[1:])) if self.halves else ((0, ids),)
        return form_graph(0, placements, kids)


def trees(n: int) -> Iterator[ClassRecord]:
    """All free trees on n vertices, one record per class.

    The last subtrees of a class, at most floor((n-1)/2) vertices in all,
    come from a table of such tails built once per call.  The registry goes
    one size past the halves, n // 2, whose scores it reads (see FormTables).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        yield ClassRecord(1, 0, 0, (), form_tables(1))
        return
    tables = form_tables(n // 2 + 1)
    hung, ids_by_size, size = tables.hung, tables.ids_by_size, tables.size
    k = tables.deg  # a hanging form's root degree
    # Single centroid: every hanging subtree has at most half = floor((n-1)/2)
    # vertices.  (A subtree of exactly n/2 vertices would move the centroid.)
    # Walk the non-increasing id sequences of total size n - 1, descending;
    # position t holds ids[t] and, before it is placed, the size left and
    # A = sum(hung + k^2), K = sum(k) of the positions before it.  Once at
    # most half vertices are left, the prefix and each tail of them that
    # fits after it make a class; with A and K over both, its centroid has
    # degree d = t + 1 + the tail's length and it scores A + d^3 + 2*d*K.
    weight = [h + c * c for h, c in zip(hung, k)]
    half = (n - 1) // 2
    # top[s]: 1 + the largest id of size <= s that fits beside the centroid
    top = [ids_by_size[min(s, half)].stop for s in range(n)]
    # tails[r]: every non-increasing id sequence of size r <= half in the
    # walk's order, first ids falling, with its sum(hung + k^2), sum(k) and
    # length; those whose first id is at most fid are tails[r][start[r][fid]:].
    tails = [[((), 0, 0, 0)]] + [[] for _ in range(half)]
    start = [[0] * top[half] for _ in range(half + 1)]
    for r in range(1, half + 1):
        for f in reversed(range(top[r])):
            start[r][f], s = len(tails[r]), r - size[f]
            tails[r] += [((f,) + tail, weight[f] + w, k[f] + kt, ln + 1)
                         for tail, w, kt, ln in tails[s][start[s][f]:]]
    ids, rem, big_a, big_k = [0] * n, [0] * n, [0] * n, [0] * n
    new = tuple.__new__  # a record without NamedTuple's Python-level __new__
    ids[0], rem[0], t = top[n - 1], n - 1, 0 if half else -1  # order 2 has no walk
    while t >= 0:
        fid = ids[t] - 1
        if fid < 0:
            t -= 1
            continue
        ids[t] = fid
        r = rem[t] - size[fid]
        a, kk = big_a[t] + weight[fid], big_k[t] + k[fid]
        if r > half:
            t += 1
            ids[t], rem[t], big_a[t], big_k[t] = min(fid + 1, top[r]), r, a, kk
            continue
        prefix, t1 = tuple(ids[:t + 1]), t + 1
        for tail, w, kt, ln in tails[r][start[r][fid]:]:
            d = t1 + ln
            hm = a + w + d * d * d + 2 * d * (kk + kt)
            yield new(ClassRecord, (n, hm, 0, prefix + tail, tables))
    # Two adjacent centroids (n = 2 too): unordered pair of rooted halves on
    # n/2 vertices.  The second half hangs below a new neighbour of the first.
    if n % 2 == 0:
        halves = ids_by_size[n // 2]
        for i in halves:
            for j in range(i, halves.stop):
                hm = hung[i] + hung[j] + (k[i] + k[j]) ** 2
                yield new(ClassRecord, (n, hm, 0, (i, j), tables))


def unicyclic_graphs(n: int) -> Iterator[ClassRecord]:
    """All connected unicyclic graphs on n vertices, one record per class.

    Cycle length by cycle length, a weighted FKM walk over prenecklaces of
    form ids: position t takes any id >= a[t - p], p the period of the
    prefix before it, and the last position takes the size that is left.
    A necklace (m % p == 0) is a bracelet iff it is <= every rotation of
    its reversal.  Only a rotation starting at a bead a[j] == a[0] can be
    smaller, and for j < m - 1 it reads a[j], ..., a[0], then the last bead
    x.  So a prefix with a[t::-1] < a[:t + 1] at such a t is skipped, and x
    must be at least a[j + 1] for every palindrome a[0..j]: x starts at
    need, the largest such bead, or past it, and only the first x can equal
    it or a[0] and take the full test.  Each t <= m - 2 caps a[t]'s size at R - max(s0, s_nu):
    s0 = size(a[0]) (a necklace starts at its least bead), R the size left
    for a[t] and x once the m - t - 2 beads between take s0 each, s_nu =
    size(need[t - 1]); after a palindrome, if s_nu is within that, the cap
    is min(R - s0, R // 2), as a larger a[t] raises need to itself.  It is
    sound as need only grows, x >= need[m - 2] and no bead is below s0, and
    needs no guard: each bead fit its cap, which leaves the next one >= s0.
    FKM visits necklaces in lexicographic order, so the classes come out
    ascending by id tuple.
    """
    if n < 3:
        raise ValueError(f"order must be >= 3, got {n}")
    tables = form_tables(n - 2)
    ids_by_size, size = tables.ids_by_size, tables.size
    # On the cycle a form's root has degree D = k + 1, k = deg: own_score is
    # its own edges, E(f, D) = hung + (k - 1)(2k + 1) + 2*S1 (FormTables' E at
    # d = D), plus 2D^2, the square terms of its two cycle edges, so a cycle
    # edge adds 2 * D_i * D_{i+1}.  Both lists stop below the top size.

    def own_score(k: int, hung: int, s1: int) -> int:
        return hung + 2 * s1 + 4 * k * k + 3 * k + 1

    own = list(map(own_score, tables.deg, tables.hung, tables.s1))
    deg = [k + 1 for k in tables.deg]
    stop = [ids.stop for ids in ids_by_size]  # 1 + largest id of size <= s
    scored = len(own)
    new = tuple.__new__  # as in trees: no NamedTuple __new__ call per record
    for m in range(3, n + 1):
        # Per position: the id, the prefix's period, the size left, the
        # prefix's score (own terms plus the cycle edges inside it), the id
        # bound, whether the prefix is a palindrome, and need: the largest
        # a[j + 1] over palindromes a[0..j], j < t (the least last bead).
        a, per, rem, hm, hi = [0] * m, [0] * m, [0] * m, [0] * m, [0] * m
        pal, need = [True] * m, [0] * m
        a[0], hi[0], t, last = -1, stop[n // m], 0, m - 2
        while t >= 0:
            fid = a[t] + 1
            if fid >= hi[t]:
                t -= 1
                continue
            a[t] = fid
            if t:
                if fid == a0:
                    # The reversal rotation read back from here starts with
                    # a[t::-1]; if that is smaller, no completion is a
                    # bracelet, and if equal, the prefix is a palindrome.
                    back, ahead = a[t::-1], a[:t + 1]
                    if back < ahead:
                        continue
                    pal[t] = back == ahead
                else:
                    pal[t] = False
                p = per[t - 1]
                per[t] = p if fid == a[t - p] else t + 1
                rem[t] = rem[t - 1] - size[fid]
                hm[t] = hm[t - 1] + own[fid] + 2 * deg[a[t - 1]] * deg[fid]
                need[t] = fid if pal[t - 1] and fid > need[t - 1] else need[t - 1]
            else:
                a0, s0, d0 = fid, size[fid], deg[fid]
                per[0], rem[0], hm[0] = 1, n - s0, own[fid]
            if t < last:
                t += 1
                a[t] = a[t - per[t - 1]] - 1
                r = rem[t - 1] - (m - t - 2) * s0  # R in the docstring
                s_nu = size[need[t - 1]]
                cap = r - max(s0, s_nu)  # the largest size a[t] may have
                if pal[t - 1] and s_nu <= cap:
                    cap = min(r - s0, r // 2)
                hi[t] = stop[cap]
                continue
            # The last position: ids of exactly the size left, from first,
            # which is >= lo = a[m - 1 - p], need[last] and a0: only first can
            # be an aperiodic prefix's lo, skipped, or take the full test.
            p, r, base, bound = per[last], rem[last], hm[last], need[last]
            lo = a[m - 1 - p]
            first = max(lo, ids_by_size[r].start, bound)
            if first >= stop[r]:
                continue  # a periodic prefix's lo is past the size left
            a[m - 1], c = first, 2 * (deg[fid] + d0)  # its cycle edges add c * D
            keep = first != lo or m % p == 0
            if keep and (first == bound or first == a0):
                rev = a[::-1] * 2
                i = rev.index(a0)
                while i < m and rev[i:i + m] >= a:
                    i = rev.index(a0, i + 1)
                keep = i >= m  # else a rotation of the reversal is smaller
            xs = range(first if keep else first + 1, stop[r])
            if stop[r] <= scored:
                for x in xs:
                    a[m - 1] = x
                    yield new(ClassRecord, (n, base + own[x] + c * deg[x], m, tuple(a), tables))
                continue
            # Only the triangle (0, 0) ends in the top size n - 2: see FormTables.
            for x, (k, hung, s1) in zip(xs, tables.scores(xs)):
                a[m - 1] = x
                yield new(ClassRecord, (n, base + own_score(k, hung, s1) + c * (k + 1), m,
                                        tuple(a), tables))


# ---------------------------------------------------------------------------
# Labeled brute-force oracle
# ---------------------------------------------------------------------------


class OracleResult(NamedTuple):
    """Isomorphism classes of all labeled graphs of one kind and order."""

    n: int
    kind: str
    classes: tuple[Graph, ...]
    labeled_total: int
    orbit_sizes: tuple[int, ...]  # labeled graphs in each class, in order


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _graph_from_mask(n: int, mask: int) -> Graph:
    return make_graph(n, [e for i, e in enumerate(_edge_pairs(n)) if mask >> i & 1])


def prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n >= 2 vertices with Pruefer sequence seq.

    Each step joins the smallest current leaf to the next sequence entry;
    the last two remaining vertices, that leaf and n - 1, form the final
    edge.  Linear time: a pointer only moves up to the next leaf, unless
    the entry just joined became a leaf below it, and so the smallest one.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaf = ptr = degree.index(1)
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if x < ptr and degree[x] == 1:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, n - 1))
    return edges


def _labeled_tree_masks(n: int) -> dict[int, array]:
    """Edge-bit masks of every labeled tree on n vertices, by degree multiset.

    Scans every tree as its parent function toward the root n - 1, depth
    first: vertex v = 0..n-2 takes any parent p whose chain of parents
    already placed does not lead back to v.  Acyclic parent functions are
    in bijection with the n^(n-2) labeled trees, so each is met once.  A
    mask goes to the array of its degree multiset, coded as sum (n + 1)^deg:
    a non-root vertex starts at degree 1 and raises its parent's when placed.
    """
    if n == 1:
        return {1: array("q", [0])}
    bit = [[0] * n for _ in range(n)]  # bit[u][v]: the mask bit of edge uv
    for i, (u, v) in enumerate(_edge_pairs(n)):
        bit[u][v] = bit[v][u] = 1 << i
    rise = [n * (n + 1) ** d for d in range(n)]  # the code's step from degree d
    deg, parent, last = [1] * (n - 1) + [0], [0] * n, n - 2
    buckets: dict[int, array] = defaultdict(lambda: array("q"))

    def place(v: int, mask: int, code: int) -> None:
        row = bit[v]
        for p in range(n):
            x = p
            while x < v:  # up the placed chain to its first unplaced vertex
                x = parent[x]
            if x == v:
                continue
            d = deg[p]
            if v < last:
                parent[v], deg[p] = p, d + 1
                place(v + 1, mask | row[p], code + rise[d])
                deg[p] = d
            else:
                buckets[code + rise[d]].append(mask | row[p])

    place(0, 0, (n - 1) * (n + 1) + 1)
    del place  # it refers to itself; that cycle would hold the buckets until a gc
    return buckets


def _labeled_unicyclic_masks(n: int) -> set[int]:
    """Edge-bit masks of every labeled connected unicyclic graph.

    Every connected graph with n edges is a labeled spanning tree plus one
    extra edge, so expanding each labeled tree by each absent edge and
    deduplicating covers the class exactly.
    """
    bits = [1 << i for i in range(n * (n - 1) // 2)]
    masks: set[int] = set()
    for tmask in chain.from_iterable(_labeled_tree_masks(n).values()):
        masks.update([tmask | bit for bit in bits if not tmask & bit])
    return masks


@cache
def _trotter_johnson_swaps(n: int) -> tuple[int, ...]:
    """Positions g whose swaps with g + 1 take range(n) through all n!
    permutations, each once (Trotter, "Algorithm 115: Perm", CACM 5, 1962).
    Cached per order, as a tuple so the shared copy cannot change.

    Between consecutive swaps of the first k - 1 elements, element k - 1
    sweeps across all k positions, down and then back up; at the bottom it
    sits at position 0 and shifts the others' positions up by one.
    """
    swaps: list[int] = []
    for k in range(2, n + 1):
        down, up = list(range(k - 2, -1, -1)), list(range(k - 1))
        out = []
        for j, g in enumerate(swaps):
            out += up if j % 2 else down
            out.append(g + 1 - j % 2)
        swaps = out + (up if len(swaps) % 2 else down)
    return tuple(swaps)


@cache
def _chunk_tables(n: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
    """Lookup tables relabeling an edge mask by each adjacent transposition.

    The C(n, 2) mask bits split into three chunks of w = ceil(C(n, 2) / 3)
    bits (the last may be shorter); tables[g][c][val] is the image, with
    vertices g and g + 1 swapped, of the edges whose bits in chunk c read
    val.  Each entry is the entry with val's lowest bit cleared, plus that
    bit's image.  Returns (tables, w), all tuples, cached per order: the
    oracle partitions each order's masks in several calls.
    """
    pairs = _edge_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    w = -(-len(pairs) // 3)
    tables = []
    for g in range(n - 1):
        swap = {g: g + 1, g + 1: g}
        image = [
            1 << index[min(uu, vv), max(uu, vv)]
            for uu, vv in ((swap.get(u, u), swap.get(v, v)) for u, v in pairs)
        ]
        chunks = []
        for lo in (0, w, 2 * w):
            bits = image[lo:lo + w]
            table = [0] * (1 << len(bits))
            for val in range(1, len(table)):
                low = val & -val
                table[val] = table[val ^ low] | bits[low.bit_length() - 1]
            chunks.append(tuple(table))
        tables.append(tuple(chunks))
    return tuple(tables), w


def _orbit_partition(n: int, masks: set[int]) -> list[tuple[int, int]]:
    """Split labeled masks into relabeling orbits, consuming the set.

    A stabilizer chain S_n > S_(n-1) > S_(n-2) > S_k, k = max(n - 3, 1)
    (Sims, 1970): at level m the rotation c_i = s_(m-2) ... s_i (apply s_i
    first) sends i to m - 1, so S_m = S_(m-1) c_0 u ... u S_(m-1) c_(m-1),
    and the n!/k! products of one rotation per level, built level by level,
    send x into every right coset of S_k.  The Trotter-Johnson swaps of
    range(k) walk an image through S_k, one chunk-table lookup per step, so
    the orbit of x is the union of the walks from its images.  An image
    already met lies in a sub-orbit already walked and is skipped: at n = 8
    the 23 tree classes take 3,023 walks of 120 masks (362,760 relabelings;
    579,600 with one level) plus 23,828 steps to build the images.

    Each orbit is removed from the set in one pass, which must shrink by its
    size (else ValueError: the set is not a union of orbits).  Returns
    (smallest mask, orbit size) pairs, smallest first.
    """
    tables, w = _chunk_tables(n)
    k = max(n - 3, 1)
    steps = [tables[g] for g in _trotter_johnson_swaps(k)]
    low, w2 = (1 << w) - 1, 2 * w
    out = []
    while masks:
        images = [next(iter(masks))]
        for m in range(n, k, -1):  # c_i swaps i and i + 1, ..., m - 2 and m - 1
            level = []
            for y in images:
                for i in range(m):
                    x = y
                    for t0, t1, t2 in tables[i:m - 1]:
                        x = t0[x & low] | t1[x >> w & low] | t2[x >> w2]
                    level.append(x)
            images = level
        orbit: set[int] = set()
        add = orbit.add
        for x in images:
            if x in orbit:
                continue
            add(x)
            for t0, t1, t2 in steps:
                x = t0[x & low] | t1[x >> w & low] | t2[x >> w2]
                add(x)
        left = len(masks) - len(orbit)
        masks -= orbit
        if len(masks) != left:
            raise ValueError("mask set is not closed under relabeling")
        out.append((min(orbit), len(orbit)))
    out.sort()
    return out


def labeled_oracle(n: int, kind: str) -> OracleResult:
    """Ground-truth isomorphism classes from a labeled brute-force scan.

    kind is "trees" or "unicyclic".  Guarded to n <= ORACLE_MAX_ORDER: the
    scan and the orbit partition are exponential in nature and exist to
    certify the generators, not to replace them.  The partition consumes the
    trees one degree multiset at a time; its closure check covers each one.
    """
    if kind not in ("trees", "unicyclic"):
        raise ValueError(f"kind must be 'trees' or 'unicyclic', got {kind!r}")
    if n > ORACLE_MAX_ORDER:
        raise ValueError(f"labeled oracle supports n <= {ORACLE_MAX_ORDER}, got {n}")
    if kind == "trees":
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        buckets = _labeled_tree_masks(n)
        mask_sets = (set(buckets.pop(key)) for key in list(buckets))
    else:
        if n < 3:
            raise ValueError(f"order must be >= 3, got {n}")
        mask_sets = [_labeled_unicyclic_masks(n)]
    total, pairs = 0, []
    for masks in mask_sets:
        total += len(masks)
        pairs += _orbit_partition(n, masks)
        del masks  # an emptied set keeps its table: free it before the next
    reps, sizes = zip(*sorted(pairs))
    classes = tuple(_graph_from_mask(n, rep) for rep in reps)
    return OracleResult(n, kind, classes, total, sizes)
