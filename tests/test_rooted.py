from hyperzagreb.graphs import make_graph
from hyperzagreb.rooted import (
    forests,
    form_graph,
    form_key,
    form_size,
    path_form,
    rooted_form,
    rooted_forms,
    star_form,
)


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
    for n in range(1, 13):
        assert len(rooted_forms(n)) == r[n]


def test_forms_sorted_and_unique():
    for n in range(1, 9):
        forms = rooted_forms(n)
        keys = [form_key(f) for f in forms]
        assert keys == sorted(keys)
        assert len(set(forms)) == len(forms)
        assert all(form_size(f) == n for f in forms)


def test_form_graph_round_trip():
    for n in range(1, 8):
        for f in rooted_forms(n):
            g = form_graph([[]], [(0, f)])
            assert g.n == n
            assert make_graph(n, list(g.edges())) == g
            assert rooted_form(g.adj, 0) == f


def test_shorthand_forms():
    assert star_form(3) == ((), (), ())
    assert form_size(path_form(4)) == 5
    assert rooted_forms(1) == ((),)


def test_forests_respect_cap():
    for budget in range(1, 9):
        for cap in range(1, budget + 1):
            for children in forests(budget, cap):
                assert sum(form_size(c) for c in children) == budget
                assert all(form_size(c) <= cap for c in children)
                keys = [form_key(c) for c in children]
                assert keys == sorted(keys, reverse=True)
