import tracemalloc
from bisect import bisect_right

from hyperzagreb.canon import CLOSE, OPEN, hanging_trees
from hyperzagreb.graphs import hyper_zagreb, make_graph
from hyperzagreb.rooted import (
    FormTables,
    form_graph,
    form_tables,
    path_form,
    star_form,
)
from nested_forms import form_key, form_size, nested_form


def rooted_counts(n_max):
    """Independent count of rooted trees by the divisor-sum recurrence."""
    r = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            dsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += dsum * r[n - k + 1]
        assert total % n == 0
        r.append(total // n)
    return r


def test_rooted_form_counts_match_recurrence():
    r = rooted_counts(12)
    ids_by_size = form_tables(12).ids_by_size
    assert ids_by_size[1].start == 0
    for n in range(1, 13):
        assert len(ids_by_size[n]) == r[n]
        assert ids_by_size[n].start == ids_by_size[n - 1].stop


def test_forms_sorted_and_unique():
    # Ids ascend strictly in (size, nested tuple) order, so comparing id
    # tuples agrees with comparing forms; children are listed largest first.
    tables = form_tables(10)
    every = range(tables.ids_by_size[10].stop)
    forms = [nested_form(tables, fid) for fid in every]
    keys = [form_key(f) for f in forms]
    assert keys == sorted(set(keys))
    for n in range(1, 11):
        assert all(form_size(forms[fid]) == n for fid in tables.ids_by_size[n])
    # the size column stops below the top size
    assert tables.size == [form_size(f) for f in forms[:tables.ids_by_size[10].start]]
    assert all(list(kids) == sorted(kids, reverse=True) for kids in map(tables.kids, every))


def test_hung_is_the_index_below_a_parent():
    # hung[f] is the index of the form's own edges when its root hangs below
    # a parent: the index of f under one new parent vertex, minus the edge
    # from that parent (degree 1) to f's root (its child count plus one).
    # form_tables(9) scores every form of up to 8 vertices.
    tables = form_tables(9)
    assert len(tables.hung) == tables.ids_by_size[9].start
    for fid in range(len(tables.hung)):
        g = form_graph(0, [(0, (nested_form(tables, fid),))])
        assert tables.hung[fid] == hyper_zagreb(g) - (1 + len(tables.kids(fid)) + 1) ** 2


def reference_form_tables(max_size):
    """(children, keys, ids_by_size, hung) built the plain way.

    Each size's forms go into a dict keyed by bracket key, in any order,
    and are then numbered by a sort of the keys; hung sums over each
    form's children.  form_tables writes them in key order instead.
    """
    children, keys, hung, deg = [()], [OPEN + CLOSE], [0], [1]
    ids_by_size = [range(0), range(1)]
    by_first = [([], []), ([-1], [0])]
    for s in range(2, max_size + 1):
        level = {}
        for k in range(1, s):
            firsts, gids = by_first[s - k]
            for f in ids_by_size[k]:
                for g in gids[:bisect_right(firsts, f)]:
                    level[OPEN + keys[f] + keys[g][1:]] = (f,) + children[g]
        start = len(children)
        ids_by_size.append(range(start, start + len(level)))
        for key in sorted(level):
            kids = level[key]
            c = len(kids)
            hung.append(
                sum(hung[x] + deg[x] ** 2 for x in kids)
                + c * (c + 1) ** 2 + 2 * (c + 1) * sum(deg[x] for x in kids)
            )
            deg.append(c + 1)
            keys.append(key)
            children.append(kids)
        gids = sorted(ids_by_size[s], key=lambda g: children[g][0])
        by_first.append(([children[g][0] for g in gids], gids))
    return children, keys, ids_by_size, hung


def test_registry_matches_the_sorted_build():
    # Ids, children and keys reach the top size; the scores stop below it,
    # but always hold id 0: form_tables(13) scores every size up to 12.
    ref = reference_form_tables(13)
    for max_size in range(1, 14):
        tables = form_tables(max_size)
        count = ref[2][max_size].stop
        scored = ref[2][max_size].start if max_size > 1 else 1
        assert tables.ids_by_size == ref[2][:max_size + 1]
        sizes = [s for s, ids in enumerate(ref[2][:max_size + 1]) for _ in ids]
        assert tables.size == sizes[:scored]
        children = [tables.kids(fid) for fid in range(count)]
        assert children == ref[0][:count]
        # the bracket key of each id of the top size, as canon writes it for
        # the form hung from vertex 0 of a triangle; the smaller ids, with the
        # same children, had theirs read at a smaller max_size
        top = ref[2][max_size]
        keys = [hanging_trees(form_graph(3, [(0, fid)], tables.kids))[0][1] for fid in top]
        assert keys == ref[1][top.start:count]
        children = children[:scored]
        assert tables.deg == [len(kids) + 1 for kids in children]
        assert tables.hung == ref[3][:scored]
        assert tables.s1 == [sum(len(children[x]) + 1 for x in kids) for kids in children]


def test_every_id_is_its_first_child_and_rest():
    # Every size, the top one too, stores a form as its first child and the
    # smaller form whose children follow it, in integer columns only: no
    # column holds a bracket key.  The score columns stop below the top size,
    # and a top-size form's parts are both scored.
    assert FormTables._fields == ("first", "rest", "deg", "ids_by_size", "size", "hung", "s1")
    for max_size in range(1, 13):
        tables = form_tables(max_size)
        count, scored = tables.ids_by_size[max_size].stop, len(tables.size)
        assert scored == (tables.ids_by_size[max_size].start if max_size > 1 else 1)
        assert len(tables.first) == len(tables.rest) == count
        assert len(tables.deg) == len(tables.hung) == len(tables.s1) == scored
        first, rest, size, deg = tables.first, tables.rest, tables.size, tables.deg
        for fid in range(1, count):
            assert tables.kids(fid) == (first[fid],) + tables.kids(rest[fid])
            parts = size[first[fid]] + size[rest[fid]]
            assert parts == (size[fid] if fid < scored else max_size)
            if fid < scored:
                assert deg[fid] == deg[rest[fid]] + 1


def test_top_size_scores_are_the_next_registrys():
    # form_tables(m) keeps no scores for its top size m; scores() derives them
    # from each form's first and rest exactly as form_tables(m + 1) writes
    # them, and as the plain sums over the form's children give them.
    for m in range(2, 14):
        tables, bigger = form_tables(m), form_tables(m + 1)
        ids = tables.ids_by_size[m]
        assert ids == bigger.ids_by_size[m]
        scores = list(tables.scores(ids))
        columns = (bigger.deg, bigger.hung, bigger.s1)
        assert scores == list(zip(*(col[ids.start:ids.stop] for col in columns))), m
        deg, hung = tables.deg, tables.hung
        for fid, (d, h, s1) in zip(ids, scores):
            kids = tables.kids(fid)
            c = len(kids)
            assert (d, s1) == (c + 1, sum(deg[x] for x in kids))
            assert h == sum(hung[x] + deg[x] ** 2 for x in kids) + c * d * d + 2 * d * s1


def test_registry_memory_is_bounded():
    # form_tables(13), unicyclic_graphs(15)'s registry, keeps no scores for
    # its 12,486 forms of 13 vertices and sorts each size by one integer key.
    # Scoring them and sorting by rank tuples, it kept 1.48-1.54 MiB and
    # peaked at 1.84-1.92 MiB; now 0.69-0.71 and 1.21-1.28 MiB (Python
    # 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13).
    tracemalloc.start()
    try:
        tables = form_tables(13)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables.first) == tables.ids_by_size[13].stop == 20_299
    assert kept < 1.0 * 2**20 and peak < 1.5 * 2**20, (kept, peak)


def test_form_graph_round_trip():
    tables = form_tables(7)
    for n in range(1, 8):
        for fid in tables.ids_by_size[n]:
            f = nested_form(tables, fid)
            g = form_graph(0, [(0, f)])
            assert g.n == n
            assert make_graph(n, list(g.edges())) == g
            # rows come out sorted on a cycle too, wherever the form hangs
            for m in (3, 4):
                g = form_graph(m, [(m - 1, f), (0, f)])
                assert make_graph(g.n, list(g.edges())) == g


def test_ids_hang_and_key_like_their_nested_forms():
    # form_graph lays out an id exactly as its nested tuple, and the (size,
    # bracket key) hanging_trees reads off the form hung from vertex 0 of a
    # triangle rises with the id: ids order as their keys do.
    tables = form_tables(8)
    hung = []
    for fid in range(tables.ids_by_size[8].stop):
        g = form_graph(0, [(0, fid)], tables.kids)
        assert g == form_graph(0, [(0, nested_form(tables, fid))])
        hung.append(hanging_trees(form_graph(3, [(0, fid)], tables.kids))[0])
    assert hung == sorted(set(hung))
    assert [size for size, _ in hung] == [s for s, ids in enumerate(tables.ids_by_size) for _ in ids]


def test_deepest_form_keys_like_its_hanging_tree():
    # the path on 13 vertices is the deepest form of form_tables(13), each
    # level its one child and nothing after it: its key nests 13 deep.
    tables = form_tables(13)
    first, rest, path = tables.first, tables.rest, 0
    for s in range(2, 14):
        path = next(f for f in tables.ids_by_size[s] if (first[f], rest[f]) == (path, 0))
    g = form_graph(3, [(0, path)], tables.kids)
    assert hanging_trees(g)[0] == (13, OPEN * 13 + CLOSE * 13)


def test_shorthand_forms():
    assert star_form(3) == ((), (), ())
    assert form_size(path_form(4)) == 5
    assert nested_form(form_tables(1), 0) == ()
