import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from hyperzagreb.canon import canonical_code, dihedral_least, hanging_trees
from hyperzagreb.codec import encode_graph6
from hyperzagreb.enumeration import prufer_edges, trees, unicyclic_graphs
from hyperzagreb.families import (
    build_catalog_member,
    cycle_star_hm,
    cycle_with_stars,
)
from hyperzagreb.graphs import GraphError, VertexRangeError, hyper_zagreb, make_graph, site
from hyperzagreb import canon, transforms
from hyperzagreb.rooted import form_graph, path_form
from hyperzagreb.transforms import (
    StructureError,
    _hanging_counts,
    _move_star,
    attach_conditions,
    coalesce,
    join_identify_gap,
    join_vs_identify,
    reduce_to_single_attachment,
    site_gain,
)
from random_graphs import random_base_graph, random_tree
from reference import path


BOUNDED = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def edge_list_coalesce(g, u, h, z):
    """Reference: relabel h's edges and validate the union through make_graph."""
    remap = {}
    nxt = g.n
    for v in range(h.n):
        if v == z:
            remap[v] = u
        else:
            remap[v] = nxt
            nxt += 1
    edges = list(g.edges())
    edges.extend((remap[a], remap[b]) for a, b in h.edges())
    return make_graph(g.n + h.n - 1, edges)


def edge_list_join_vs_identify(g1, u, g2, v):
    """Reference (joined, identified) pair, both built through make_graph."""
    offset = g1.n
    joined_edges = list(g1.edges())
    joined_edges.extend((a + offset, b + offset) for a, b in g2.edges())
    joined_edges.append((u, v + offset))
    merged = edge_list_coalesce(g1, u, g2, v)
    ident_edges = list(merged.edges())
    ident_edges.append((u, merged.n))
    return (
        make_graph(g1.n + g2.n, joined_edges),
        make_graph(merged.n + 1, ident_edges),
    )


@st.composite
def small_trees_and_unicyclic(draw):
    """A Pruefer tree on 1..9 vertices, or such a tree plus one edge."""
    n = draw(st.integers(1, 9))
    if n == 1:
        return make_graph(1, [])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    edges = prufer_edges(seq, n)
    if n >= 3 and draw(st.booleans()):
        present = {frozenset(e) for e in edges}
        absent = [p for p in combinations(range(n), 2) if frozenset(p) not in present]
        edges.append(draw(st.sampled_from(absent)))
    return make_graph(n, edges)


def check_rewrite_counts_and_scores(g, u, h, z):
    """What coalesce and join_vs_identify give whatever h's labels: their
    orders and sizes, u's degree, the index each rewrite adds (read off the
    two sites), and g's edges under their own labels."""
    merged, pair = coalesce(g, u, h, z), join_vs_identify(g, u, h, z)
    at_u, at_z = site(g.adj, u), site(h.adj, z)
    assert (merged.n, merged.num_edges) == (g.n + h.n - 1, g.num_edges + h.num_edges)
    assert len(merged.adj[u]) == at_u[0] + at_z[0]
    assert hyper_zagreb(merged) - hyper_zagreb(g) - hyper_zagreb(h) == site_gain(*at_u, *at_z)
    for built in pair.joined, pair.identified:
        assert (built.n, built.num_edges) == (g.n + h.n, g.num_edges + h.num_edges + 1)
    assert (len(pair.joined.adj[u]), len(pair.identified.adj[u])) == (
        at_u[0] + 1, at_u[0] + at_z[0] + 1
    )
    gap = hyper_zagreb(pair.identified) - hyper_zagreb(pair.joined)
    assert gap == join_identify_gap(at_u, at_z)
    kept = set(g.edges())
    assert all(kept <= set(b.edges()) for b in (merged, pair.joined, pair.identified))


@BOUNDED
@given(small_trees_and_unicyclic(), small_trees_and_unicyclic())
def test_rewrites_match_edge_list_references(g, h):
    for u in range(g.n):
        for z in range(h.n):
            assert coalesce(g, u, h, z) == edge_list_coalesce(g, u, h, z)
            pair = join_vs_identify(g, u, h, z)
            want = edge_list_join_vs_identify(g, u, h, z)
            assert (pair.joined, pair.identified) == want
            check_rewrite_counts_and_scores(g, u, h, z)
        for z in range(g.n):  # g coalesced with itself
            assert coalesce(g, u, g, z) == edge_list_coalesce(g, u, g, z)
            check_rewrite_counts_and_scores(g, u, g, z)


def test_rewrite_edge_cases():
    g, dot = cycle_with_stars(4, []), make_graph(1, [])
    for u in range(4):
        for z in range(4):
            assert coalesce(g, u, g, z) == edge_list_coalesce(g, u, g, z)
        assert coalesce(g, u, dot, 0) == g
        assert coalesce(dot, 0, g, u) == edge_list_coalesce(dot, 0, g, u)
        pair = join_vs_identify(g, u, dot, 0)
        assert (pair.joined, pair.identified) == edge_list_join_vs_identify(g, u, dot, 0)
    for bad in (-1, 4):
        with pytest.raises(VertexRangeError, match="^vertex -?[0-9]+ out of range for g$"):
            coalesce(g, bad, dot, 0)
        with pytest.raises(VertexRangeError, match="^vertex -?[0-9]+ out of range for h$"):
            coalesce(dot, 0, g, bad)
        with pytest.raises(VertexRangeError, match="^vertex -?[0-9]+ out of range for g$"):
            join_vs_identify(g, bad, dot, 0)
        with pytest.raises(VertexRangeError, match="^vertex -?[0-9]+ out of range for h$"):
            join_vs_identify(dot, 0, g, bad)


def test_coalesce_examples():
    p3 = coalesce(path(2), 1, path(2), 0)
    assert canonical_code(p3) == canonical_code(path(3))
    s6 = coalesce(build_catalog_member("S_n", 4), 0, build_catalog_member("S_n", 3), 0)
    assert canonical_code(s6) == canonical_code(build_catalog_member("S_n", 6))
    g = coalesce(cycle_with_stars(3, []), 0, build_catalog_member("S_n", 13), 0)
    assert hyper_zagreb(g) == 3228
    assert g.n == 3 + 13 - 1


def test_coalesce_merged_degree():
    g = coalesce(path(3), 1, build_catalog_member("S_n", 4), 0)
    assert len(g.adj[1]) == 2 + 3


def test_attachment_comparison_example():
    g, h = path(3), build_catalog_member("S_n", 3)
    holds_a, holds_b, _, _ = attach_conditions(site(g.adj, 0), site(g.adj, 1), 1 in g.adj[0])
    assert holds_a and holds_b
    assert hyper_zagreb(coalesce(g, 1, h, 0)) >= hyper_zagreb(coalesce(g, 0, h, 0))


def test_attachment_comparison_symmetric_sites():
    # both endpoints of a path give isomorphic results; conditions are tight
    g, h = path(4), build_catalog_member("S_n", 3)
    at_0, at_3 = site(g.adj, 0), site(g.adj, 3)
    assert attach_conditions(at_0, at_3, 3 in g.adj[0]) == (True, True, True, True)
    g1, g2 = coalesce(g, 0, h, 0), coalesce(g, 3, h, 0)
    assert hyper_zagreb(g1) == hyper_zagreb(g2)
    assert canonical_code(g1) == canonical_code(g2)


def merge_gain(g, u, h, z):
    """What coalesce(g, u, h, z) adds to the index, from the two sites."""
    return site_gain(*site(g.adj, u), *site(h.adj, z))


def test_coalesce_gain_matches_the_built_coalescence():
    rng = random.Random(34)
    unicyclic = adjacent = apart = 0
    dot = make_graph(1, [])
    for _ in range(150):
        g = random_base_graph(rng, rng.randint(3, 10))
        h = random_tree(rng, rng.randint(1, 8))
        unicyclic += g.num_edges == g.n
        base = hyper_zagreb(g) + hyper_zagreb(h)
        hm = [[hyper_zagreb(coalesce(g, u, h, z)) for z in range(h.n)] for u in range(g.n)]
        gain = [[merge_gain(g, u, h, z) for z in range(h.n)] for u in range(g.n)]
        assert [[base + x for x in row] for row in gain] == hm
        for u in range(g.n):
            for z in range(g.n):  # g coalesced with itself
                want = hyper_zagreb(coalesce(g, u, g, z)) - 2 * hyper_zagreb(g)
                assert merge_gain(g, u, g, z) == want
            assert merge_gain(g, u, dot, 0) == merge_gain(dot, 0, g, u) == 0
            # the attachment-shift check compares two sites' gains
            for w in range(g.n):
                if w != u:
                    adjacent += w in g.adj[u]
                    apart += w not in g.adj[u]
                    for z in range(h.n):
                        assert (gain[w][z] < gain[u][z]) == (hm[w][z] < hm[u][z])
                        assert (gain[w][z] == gain[u][z]) == (hm[w][z] == hm[u][z])
    assert unicyclic and adjacent and apart
    g = cycle_with_stars(4, [])
    for bad in (-1, 4):
        with pytest.raises(GraphError, match="out of range for g$"):
            site(g.adj, bad)


def _built_gap(g1, u, g2, v):
    pair = join_vs_identify(g1, u, g2, v)
    return hyper_zagreb(pair.identified) - hyper_zagreb(pair.joined)


def test_join_identify_gap_matches_the_built_pair():
    # every pair of the lemma check's pool at every root pair, then seeded
    # random trees (from one vertex on) and unicyclic graphs
    pool = [t.graph() for n in range(2, 7) for t in trees(n)]
    for g1, g2 in product(pool, repeat=2):
        for u, v in product(range(g1.n), range(g2.n)):
            gap = join_identify_gap(site(g1.adj, u), site(g2.adj, v))
            assert gap == _built_gap(g1, u, g2, v)
    rng = random.Random(38)
    dot = make_graph(1, [])
    orders = set()
    for _ in range(150):
        g = random_base_graph(rng, rng.randint(3, 10))
        h = random_tree(rng, rng.randint(1, 8))
        orders.add(h.n)
        for g1, g2 in ((g, h), (h, g), (g, g), (h, dot)):
            for u, v in product(range(g1.n), range(g2.n)):
                gap = join_identify_gap(site(g1.adj, u), site(g2.adj, v))
                assert gap == _built_gap(g1, u, g2, v)
                assert (gap > 0) == (len(g1.adj[u]) >= 1 and len(g2.adj[v]) >= 1)
    assert orders == set(range(1, 9))


def reference_attach_conditions(g, u, w):
    """The dominance conditions read straight off g's rows, u and w in range."""
    adj = g.adj
    du, dw = len(adj[u]), len(adj[w])
    su = sum(len(adj[x]) for x in adj[u] if x != w)
    sw = sum(len(adj[x]) for x in adj[w] if x != u)
    return (du <= dw, su <= sw, du == dw, su == sw)


def test_attach_conditions_match_the_accessor_reference():
    rng = random.Random(35)
    for _ in range(200):
        g = random_base_graph(rng, rng.randint(3, 10))
        for u in range(g.n):
            for w in range(g.n):
                if u != w:
                    got = attach_conditions(site(g.adj, u), site(g.adj, w), w in g.adj[u])
                    assert got == reference_attach_conditions(g, u, w)
    g = path(4)
    for u, w in ((-1, 0), (0, -1), (0, g.n), (g.n, 0)):
        with pytest.raises(VertexRangeError):  # site refuses before adjacency is read
            attach_conditions(site(g.adj, u), site(g.adj, w), False)


def test_join_vs_identify_examples():
    # both roots of degree 2: identifying beats joining; a lone root: a tie
    pair = join_vs_identify(path(3), 1, path(3), 1)
    assert pair.joined.n == pair.identified.n == 6
    assert hyper_zagreb(pair.joined) < hyper_zagreb(pair.identified)
    dot = make_graph(1, [])
    assert len(dot.adj[0]) == 0 and _built_gap(dot, 0, path(3), 1) == 0


def test_star_profile_recognizer():
    # vertices hanging at each cycle vertex, in cycle walk order, and
    # whether every one of them is a leaf
    counts, stars = _hanging_counts(cycle_with_stars(4, [2, 0, 1]))
    assert stars and sorted(counts, reverse=True) == [2, 1, 0, 0]
    deep = form_graph(3, [(0, path_form(2)), (1, ((), ((),)))])
    counts, stars = _hanging_counts(deep)
    assert not stars and sorted(counts, reverse=True) == [3, 2, 0]
    with pytest.raises(StructureError):
        _hanging_counts(path(5))


def test_merge_examples():
    # moving one pendant star onto another: C_3(1, 11) and C_3(2, 10) both
    # become C_3(12)
    for counts, before in (([1, 11, 0], 2678), ([2, 10, 0], 2228)):
        moved = _move_star(counts, 0, 1)
        assert moved == [0, 12, 0]
        assert hyper_zagreb(cycle_with_stars(3, counts)) == before
        assert hyper_zagreb(cycle_with_stars(3, moved)) == 3228
    counts = [1, 1, 0, 0]
    moved = cycle_with_stars(4, _move_star(counts, 0, 1))
    assert hyper_zagreb(moved) > hyper_zagreb(cycle_with_stars(4, counts))


def test_merge_strict_increase_random():
    # The adjacent-star lemma: moving the pendants at src onto an adjacent
    # attachment tgt whose degree is at least that of src and of src's
    # other cycle neighbor strictly raises the index.
    rng = random.Random(9)
    done = 0
    while done < 300:
        m = rng.randint(3, 7)
        counts = [rng.randint(0, 4) for _ in range(m)]
        if sum(counts) == 0:
            continue
        positions = [p for p, c in enumerate(counts) if c > 0]
        src = positions[rng.randrange(len(positions))]
        deg = lambda p: 2 + counts[p]
        targets = sorted(
            {t for t in ((src + 1) % m, (src - 1) % m) if t != src and counts[t] > 0},
            key=lambda t: (-counts[t], (t - src) % m != 1),
        )
        tgt = next(
            (t for t in targets if deg(src) <= deg(t) and deg((2 * src - t) % m) <= deg(t)),
            None,
        )
        if tgt is None:
            continue
        moved = cycle_with_stars(m, _move_star(counts, src, tgt))
        assert moved.n == m + sum(counts)
        assert hyper_zagreb(moved) > hyper_zagreb(cycle_with_stars(m, counts))
        done += 1


def test_reduction_keys_no_tree_and_scores_no_graph(monkeypatch):
    # reduce reads the pendant counts off the leaf strip without keying a
    # hanging tree; canonical_code keys them through the same function
    keyed = []
    real = canon._key

    def counting(kids):
        keyed.append(len(kids))
        return real(kids)

    monkeypatch.setattr(canon, "_key", counting)
    g = form_graph(5, [(0, path_form(3)), (2, ((), ((),))), (3, ())])
    chain = reduce_to_single_attachment(g)
    assert len(chain) == 3 and keyed == []
    assert not hasattr(transforms, "hyper_zagreb")
    canonical_code(g)
    assert keyed


def test_reduction_chain_examples():
    chain = reduce_to_single_attachment(cycle_with_stars(5, [1, 1, 1, 1, 1]))
    hms = [hyper_zagreb(g) for g in chain]
    assert all(a < b for a, b in zip(hms, hms[1:]))
    assert canonical_code(chain[-1]) == canonical_code(cycle_with_stars(5, [5]))

    assert len(reduce_to_single_attachment(cycle_with_stars(3, [12]))) == 1
    assert len(reduce_to_single_attachment(cycle_with_stars(9, []))) == 1
    # a tree, two disjoint triangles (n edges) and a bowtie (connected,
    # n + 1 edges): the leaf strip refuses each, the bowtie by its edge count
    two_triangles = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    bowtie = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    for g in (path(6), two_triangles, bowtie):
        with pytest.raises(StructureError):
            reduce_to_single_attachment(g)


def test_source_order_is_the_canonical_code_order():
    # reduce takes the largest dihedral-least count list for the least code:
    # every ordered pair of count vectors of one cycle length compares the
    # other way round, and equal keys are equal codes
    groups = [[list(c) for c in product(range(4), repeat=m)] for m in (3, 4)]
    rng = random.Random(14)
    for _ in range(40):
        m = rng.randint(7, 40)
        draw = lambda: [rng.choice((0, 0, 1, 2, rng.randint(0, 30))) for _ in range(m)]
        group = [draw() for _ in range(6)]
        # near neighbours too: one merge apart, and a rotated reflection
        group.append(_move_star(group[0], 0, m - 1))
        group.append(group[0][::-1][3:] + group[0][::-1][:3])
        groups.append(group)
    for group in groups:
        keyed = [
            (dihedral_least(c), canonical_code(cycle_with_stars(len(c), c))) for c in group
        ]
        for (key_a, code_a), (key_b, code_b) in product(keyed, repeat=2):
            assert (code_a < code_b) == (key_a > key_b)
            assert (code_a == code_b) == (key_a == key_b)


def test_reduction_builds_one_graph_per_appended_step(monkeypatch):
    # a leaf on every other vertex of C_40: every step has several
    # non-adjacent candidate sources, and only the chosen one is built
    built = []

    def counting(m, counts):
        built.append(list(counts))
        return cycle_with_stars(m, counts)

    monkeypatch.setattr(transforms, "cycle_with_stars", counting)
    g = cycle_with_stars(40, [1, 0] * 20)
    chain = reduce_to_single_attachment(g)
    assert len(chain) == 20
    assert len(built) == len(chain) - 1
    assert sorted(built[-1]) == [0] * 39 + [20]
    assert hyper_zagreb(chain[-1]) == cycle_star_hm(40, 60)


def test_lone_source_is_taken_without_a_key(monkeypatch):
    # the target 0 has one neighbour with stars, 1 and then 2 once 1 has
    # merged: each merge has a lone source, so no dihedral-least key is
    # computed (two were before a lone source was taken unkeyed)
    calls = []

    def counting(s):
        calls.append(s)
        return dihedral_least(s)

    monkeypatch.setattr(transforms, "dihedral_least", counting)
    chain = reduce_to_single_attachment(cycle_with_stars(7, [2, 1, 1, 0, 0, 0, 0]))
    assert len(chain) == 3
    assert _hanging_counts(chain[-1])[0] == [4, 0, 0, 0, 0, 0, 0]
    assert calls == []


def test_reduction_chain_exhaustive_small():
    # Every chain, for each class and a relabelled twin, hashed as graph6
    # lines (one blank line per chain); pinned at the commit before reduce
    # carried its star counts from step to step.
    rng = random.Random(0)
    digest = hashlib.sha256()
    for n in range(3, 10):
        for r in unicyclic_graphs(n):
            g = r.graph()
            perm = list(range(n))
            rng.shuffle(perm)
            twin = make_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            for start in (g, twin):
                chain = reduce_to_single_attachment(start)
                assert all(x.n == n and x.num_edges == n for x in chain)
                hms = [hyper_zagreb(x) for x in chain]
                assert all(a < b for a, b in zip(hms, hms[1:]))
                m = len(hanging_trees(g))
                assert hms[-1] == cycle_star_hm(m, n)
                assert hms[0] <= cycle_star_hm(m, n)
                for y in chain:
                    digest.update((encode_graph6(y) + "\n").encode())
                digest.update(b"\n")
    assert digest.hexdigest() == (
        "43860d00bd032d4849538623a3df1b2008c114c91a6323618c999b6d68252620"
    )


def test_reduction_survives_deep_hanging_trees():
    # A triangle with a 3,000-edge pendant path, built twice so that no
    # cache is shared between the copies: the traversal must be iterative.
    n = 3003
    for _ in range(2):
        edges = [(0, 1), (1, 2), (0, 2)] + [(v - 1 if v > 3 else 0, v) for v in range(3, n)]
        chain = reduce_to_single_attachment(make_graph(n, edges))
        assert len(chain) == 2
        assert hyper_zagreb(chain[-1]) == cycle_star_hm(3, n)


def seeded_unicyclic(rng, n):
    """A unicyclic graph on n vertices with shuffled labels: three draws in
    ten are stars only, two a leaf on every other vertex of the longest
    such cycle, and the rest random trees hung on a random cycle."""
    kind = rng.randrange(10)
    if kind < 2:
        m = n - n // 3
        parents = list(range(0, 2 * (n // 3), 2))
    else:
        m = rng.randint(3, n - 1)
        if kind < 5:
            sites = rng.sample(range(m), rng.randint(1, m))
            parents = [rng.choice(sites) for _ in range(n - m)]
        else:
            parents = [rng.randrange(v) for v in range(m, n)]
    edges = [(p, (p + 1) % m) for p in range(m)]
    edges += [(u, m + i) for i, u in enumerate(parents)]
    perm = list(range(n))
    rng.shuffle(perm)
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_reduction_chains_pinned_past_order_nine():
    # 2,000 seeded graphs on 10..60 vertices, every chain hashed as graph6
    # lines (one blank line per chain); pinned before reduce chose its
    # sources by pendant counts.
    rng = random.Random(23)
    digest = hashlib.sha256()
    for _ in range(2000):
        n = rng.randint(10, 60)
        g = seeded_unicyclic(rng, n)
        chain = reduce_to_single_attachment(g)
        hms = [hyper_zagreb(x) for x in chain]
        assert all(a < b for a, b in zip(hms, hms[1:]))
        assert hms[-1] == cycle_star_hm(len(hanging_trees(g)), n)
        for y in chain:
            digest.update((encode_graph6(y) + "\n").encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "c4498d8a73b7faa56bd4f5319be36486a23c3ee7846bcaff0dc62a80b8b0232e"
    )


@pytest.mark.parametrize("m, digest", [
    (160, "62118b9c2fd3d4addc7983b2a59815dd880ed899863632f26190ba5ffd7986d3"),
    (332, "a28688e700306da4e5b6641f57d629a3e6cd6d214547bfdb39563cc716f715f2"),
], ids=["240-vertices", "498-vertices"])
def test_worst_case_chains_pinned(m, digest):
    # a leaf on every other vertex of C_m (240 and 498 vertices), the input
    # that bounds MAX_REDUCE_ORDER: the chain's newline-joined graph6 lines,
    # pinned before reduce picked its target once
    chain = reduce_to_single_attachment(cycle_with_stars(m, [1, 0] * (m // 2)))
    lines = "\n".join(encode_graph6(y) for y in chain)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_worst_case_keys_only_the_shortest_zero_runs(monkeypatch):
    # on C_160 with a leaf on every other vertex, half the candidates leave
    # a longer zero run and are never keyed (3,159 keys when all were)
    calls = []

    def counting(s):
        calls.append(len(s))
        return dihedral_least(s)

    monkeypatch.setattr(transforms, "dihedral_least", counting)
    chain = reduce_to_single_attachment(cycle_with_stars(160, [1, 0] * 80))
    assert len(chain) == 80
    assert len(calls) == 1591


def longest_zero_run(counts):
    """The longest cyclic run of zeros in counts, which has a positive entry."""
    longest = run = 0
    for c in counts + counts:
        run = 0 if c else run + 1
        longest = max(longest, run)
    return longest


def keyed_reduction(counts):
    """The count lists reduce merges through, every candidate source keyed:
    the target's neighbours if either has stars, else each star whose two
    neighbours hold no more than the target."""
    m, steps = len(counts), []
    while True:
        positions = [p for p, c in enumerate(counts) if c]
        if len(positions) <= 1:
            return steps
        tgt = max(positions, key=lambda p: (counts[p], -p))
        sources = [p for p in positions if (p - tgt) % m in (1, m - 1)] or [
            p for p in positions
            if p != tgt and counts[(p + 1) % m] + counts[(p - 1) % m] <= counts[tgt]
        ]
        src = max(sources, key=lambda p: dihedral_least(_move_star(counts, p, tgt)))
        counts = _move_star(counts, src, tgt)
        steps.append(counts)


def test_zero_runs_rule_out_merges():
    # A moved count list has a zero at its source and a positive target, so
    # its dihedral-least form is its longest zero run, then a positive
    # count: keying only the candidates of the shortest run picks the same
    # source as keying them all, and so does reduce.
    rng = random.Random(48)
    tied = 0
    for _ in range(400):
        m = rng.randint(3, 30)
        counts = [rng.choice((0, 0, 0, 1, 2, rng.randint(1, 9))) for _ in range(m)]
        positions = [p for p, c in enumerate(counts) if c]
        if len(positions) < 2:
            continue
        tgt = max(positions, key=lambda p: (counts[p], -p))
        runs, keys = {}, {}
        for src in positions:
            if src == tgt:
                continue
            moved = _move_star(counts, src, tgt)
            run, keys[src] = longest_zero_run(moved), dihedral_least(moved)
            assert keys[src][:run] == [0] * run and keys[src][run] > 0
            runs[src] = run
        shortest = min(runs.values())
        kept = [p for p in runs if runs[p] == shortest]
        assert max(runs, key=keys.get) == max(kept, key=keys.get)
        tied += len(kept) > 1
        chain = reduce_to_single_attachment(cycle_with_stars(m, counts))
        assert [_hanging_counts(x)[0] for x in chain[1:]] == keyed_reduction(counts)
    assert tied > 200
