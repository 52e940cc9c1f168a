from bisect import bisect_right

from hyperzagreb.canon import hanging_trees
from hyperzagreb.graphs import hyper_zagreb, make_graph
from hyperzagreb.rooted import (
    CLOSE,
    OPEN,
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
    every = range(len(tables.size))
    forms = [nested_form(tables, fid) for fid in every]
    keys = [form_key(f) for f in forms]
    assert keys == sorted(set(keys))
    for n in range(1, 11):
        assert all(form_size(forms[fid]) == n for fid in tables.ids_by_size[n])
    assert tables.size == [form_size(f) for f in forms]
    assert all(list(kids) == sorted(kids, reverse=True) for kids in map(tables.kids, every))


def test_hung_is_the_index_below_a_parent():
    # hung[f] is the index of the form's own edges when its root hangs below
    # a parent: the index of f under one new parent vertex, minus the edge
    # from that parent (degree 1) to f's root (its child count plus one).
    tables = form_tables(8)
    for fid in range(len(tables.size)):
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
    ref = reference_form_tables(12)
    for max_size in range(1, 13):
        tables = form_tables(max_size)
        count = ref[2][max_size].stop
        assert tables.ids_by_size == ref[2][:max_size + 1]
        assert tables.size == [s for s, ids in enumerate(ref[2][:max_size + 1]) for _ in ids]
        children = [tables.kids(fid) for fid in range(count)]
        assert children == ref[0][:count]
        assert [tables.key(fid) for fid in range(count)] == ref[1][:count]
        assert tables.deg == [len(kids) + 1 for kids in children]
        assert tables.hung == ref[3][:count]
        assert tables.s1 == [sum(len(children[x]) + 1 for x in kids) for kids in children]


def test_every_id_is_its_first_child_and_rest():
    # Every size, the top one too, stores a form as its first child and the
    # smaller form whose children follow it, in integer columns only: no
    # column holds a bracket key.
    assert FormTables._fields == ("first", "rest", "deg", "ids_by_size", "size", "hung", "s1")
    for max_size in range(1, 13):
        tables = form_tables(max_size)
        count = len(tables.size)
        assert len(tables.first) == len(tables.rest) == len(tables.deg) == count
        first, rest, size, deg = tables.first, tables.rest, tables.size, tables.deg
        for fid in range(1, count):
            assert tables.kids(fid) == (first[fid],) + tables.kids(rest[fid])
            assert size[fid] == size[first[fid]] + size[rest[fid]]
            assert deg[fid] == deg[rest[fid]] + 1


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
    # form_graph lays out an id exactly as its nested tuple, and key(fid)
    # is the bracket key hanging_trees reads off the form hung from vertex 0
    # of a triangle.
    tables = form_tables(8)
    for fid in range(len(tables.size)):
        g = form_graph(0, [(0, fid)], tables.kids)
        assert g == form_graph(0, [(0, nested_form(tables, fid))])
        g = form_graph(3, [(0, fid)], tables.kids)
        assert hanging_trees(g)[0] == (g.n - 2, tables.key(fid))


def test_deepest_form_keys_like_its_hanging_tree():
    # key() recurses once per level: the path on 13 vertices is the deepest
    # form of form_tables(13), each level its one child and nothing after it.
    tables = form_tables(13)
    first, rest, path = tables.first, tables.rest, 0
    for s in range(2, 14):
        path = next(f for f in tables.ids_by_size[s] if (first[f], rest[f]) == (path, 0))
    g = form_graph(3, [(0, path)], tables.kids)
    assert hanging_trees(g)[0] == (13, tables.key(path)) == (13, OPEN * 13 + CLOSE * 13)


def test_shorthand_forms():
    assert star_form(3) == ((), (), ())
    assert form_size(path_form(4)) == 5
    assert nested_form(form_tables(1), 0) == ()
