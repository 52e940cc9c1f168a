import hashlib
import random

import pytest

from hyperzagreb.canon import canonical_code, cycle_vertices
from hyperzagreb.codec import encode_graph6
from hyperzagreb.enumeration import unicyclic_graphs
from hyperzagreb.families import (
    cycle,
    cycle_star_hm,
    cycle_with_attachments,
    cycle_with_stars,
    path,
    star,
)
from hyperzagreb.graphs import hyper_zagreb, make_graph
from hyperzagreb.rooted import path_form
from hyperzagreb.transforms import (
    StructureError,
    coalesce,
    compare_attachment_sites,
    join_vs_identify,
    merge_adjacent_star,
    reduce_to_single_attachment,
    star_attachment_profile,
)


def test_coalesce_examples():
    p3 = coalesce(path(2), 1, path(2), 0)
    assert canonical_code(p3) == canonical_code(path(3))
    s6 = coalesce(star(4), 0, star(3), 0)
    assert canonical_code(s6) == canonical_code(star(6))
    g = coalesce(cycle(3), 0, star(13), 0)
    assert hyper_zagreb(g) == 3228
    assert g.n == 3 + 13 - 1


def test_coalesce_merged_degree():
    g = coalesce(path(3), 1, star(4), 0)
    assert g.degree(1) == 2 + 3


def test_attachment_comparison_example():
    cmp = compare_attachment_sites(path(3), 0, 1, star(3), 0)
    assert cmp.degree_condition and cmp.neighbor_sum_condition
    assert cmp.applicable
    assert hyper_zagreb(cmp.g2) >= hyper_zagreb(cmp.g1)


def test_attachment_comparison_symmetric_sites():
    # both endpoints of a path give isomorphic results; conditions are tight
    cmp = compare_attachment_sites(path(4), 0, 3, star(3), 0)
    assert hyper_zagreb(cmp.g1) == hyper_zagreb(cmp.g2)
    assert canonical_code(cmp.g1) == canonical_code(cmp.g2)
    with pytest.raises(ValueError):
        compare_attachment_sites(path(4), 2, 2, star(3), 0)


def test_join_vs_identify_examples():
    pair = join_vs_identify(path(3), 1, path(3), 1)
    assert pair.applicable
    assert pair.joined.n == pair.identified.n == 6
    assert hyper_zagreb(pair.joined) < hyper_zagreb(pair.identified)
    guard = join_vs_identify(make_graph(1, []), 0, path(3), 1)
    assert not guard.applicable


def test_star_profile_recognizer():
    g = cycle_with_stars(4, [2, 0, 1])
    prof = star_attachment_profile(g)
    assert prof is not None
    assert sorted(prof.counts, reverse=True) == [2, 1, 0, 0]
    deep = cycle_with_attachments(3, [(0, path_form(2))])
    assert star_attachment_profile(deep) is None
    with pytest.raises(StructureError):
        star_attachment_profile(path(5))


def test_merge_examples():
    g = cycle_with_stars(3, [1, 11])
    out = merge_adjacent_star(g, 0)
    assert out.applicable
    assert (hyper_zagreb(g), hyper_zagreb(out.result)) == (2678, 3228)
    assert canonical_code(out.result) == canonical_code(cycle_with_stars(3, [12]))

    g = cycle_with_stars(3, [2, 10])
    out = merge_adjacent_star(g, 0)
    assert (hyper_zagreb(g), hyper_zagreb(out.result)) == (2228, 3228)

    g = cycle_with_stars(4, [1, 1])
    out = merge_adjacent_star(g, 0)
    assert out.applicable and hyper_zagreb(out.result) > hyper_zagreb(g)


def test_merge_inapplicable_outcomes():
    # no adjacent attachment
    g = cycle_with_stars(5, [2, 0, 3])
    out = merge_adjacent_star(g, 0)
    assert not out.applicable and out.result is None and out.reason
    # moving the big star onto the small one violates the degree dominance
    g = cycle_with_stars(3, [8, 1])
    out = merge_adjacent_star(g, 0)
    assert not out.applicable
    with pytest.raises(StructureError):
        merge_adjacent_star(cycle_with_attachments(3, [(0, path_form(2))]), 0)
    with pytest.raises(ValueError):
        merge_adjacent_star(cycle_with_stars(3, [1, 1]), 5)


def test_merge_strict_increase_random():
    rng = random.Random(9)
    done = 0
    while done < 300:
        m = rng.randint(3, 7)
        counts = [rng.randint(0, 4) for _ in range(m)]
        if sum(counts) == 0:
            continue
        g = cycle_with_stars(m, counts)
        k = len([c for c in counts if c > 0])
        out = merge_adjacent_star(g, rng.randrange(k))
        if not out.applicable:
            continue
        assert out.result.n == g.n
        assert hyper_zagreb(out.result) > hyper_zagreb(g)
        done += 1


def test_reduction_chain_examples():
    chain = reduce_to_single_attachment(cycle_with_stars(5, [1, 1, 1, 1, 1]))
    hms = [hyper_zagreb(g) for g in chain]
    assert all(a < b for a, b in zip(hms, hms[1:]))
    assert canonical_code(chain[-1]) == canonical_code(cycle_with_stars(5, [5]))

    assert len(reduce_to_single_attachment(cycle_with_stars(3, [12]))) == 1
    assert len(reduce_to_single_attachment(cycle(9))) == 1
    with pytest.raises(StructureError):
        reduce_to_single_attachment(path(6))


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
                m = len(cycle_vertices(g))
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
