from hyperzagreb.graphs import hyper_zagreb, make_graph
from hyperzagreb.rooted import (
    form_graph,
    form_tables,
    hanging_keys,
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
    forms = [nested_form(tables, fid) for fid in range(len(tables.children))]
    keys = [form_key(f) for f in forms]
    assert keys == sorted(set(keys))
    for n in range(1, 11):
        assert all(form_size(forms[fid]) == n for fid in tables.ids_by_size[n])
    assert all(list(kids) == sorted(kids, reverse=True) for kids in tables.children)


def test_hung_is_the_index_below_a_parent():
    # hung[f] is the index of the form's own edges when its root hangs below
    # a parent: the index of f under one new parent vertex, minus the edge
    # from that parent (degree 1) to f's root (its child count plus one).
    tables = form_tables(8)
    for fid, kids in enumerate(tables.children):
        g = form_graph([[]], [(0, (nested_form(tables, fid),))])
        assert tables.hung[fid] == hyper_zagreb(g) - (1 + len(kids) + 1) ** 2


def test_form_graph_round_trip():
    tables = form_tables(7)
    for n in range(1, 8):
        for fid in tables.ids_by_size[n]:
            f = nested_form(tables, fid)
            g = form_graph([[]], [(0, f)])
            assert g.n == n
            assert make_graph(n, list(g.edges())) == g


def test_ids_hang_and_key_like_their_nested_forms():
    # form_graph lays out an id exactly as its nested tuple, and keys[fid]
    # is the bracket key hanging_keys reads off the built tree.
    tables = form_tables(8)
    for fid in range(len(tables.children)):
        g = form_graph([[]], [(0, fid)], tables.children)
        assert g == form_graph([[]], [(0, nested_form(tables, fid))])
        assert hanging_keys(g.adj, [0])[0][1] == tables.keys[fid]


def test_shorthand_forms():
    assert star_form(3) == ((), (), ())
    assert form_size(path_form(4)) == 5
    assert nested_form(form_tables(1), 0) == ()
