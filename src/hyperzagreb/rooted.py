"""Canonical rooted-tree forms.

A rooted tree is represented by a nested tuple: the empty tuple is a single
vertex, and a node is the tuple of its child forms sorted in descending
(size, form) order.  This representation is unique per rooted isomorphism
class, hashable, and totally ordered via form_key, which makes it the shared
currency between canonical codes, family builders and the enumerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import Graph, from_adjacency

Form = tuple  # nested tuples of Form


@lru_cache(maxsize=None)
def form_size(form: Form) -> int:
    """Number of vertices in the rooted tree."""
    return 1 + sum(form_size(c) for c in form)


def form_key(form: Form) -> tuple[int, Form]:
    """Total order on forms: by size, then lexicographically."""
    return (form_size(form), form)


@lru_cache(maxsize=None)
def rooted_forms(size: int) -> tuple[Form, ...]:
    """All canonical rooted-tree forms on `size` vertices, ascending by key."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if size == 1:
        return ((),)
    forms = [tuple(children) for children in _forests(size - 1, None)]
    forms.sort(key=form_key)
    return tuple(forms)


def _forests(budget: int, bound: tuple[int, Form] | None) -> Iterator[tuple[Form, ...]]:
    """All non-increasing form sequences with the given total vertex count.

    Each emitted form's key is <= bound, keeping multiset representations
    unique.
    """
    if budget == 0:
        yield ()
        return
    max_size = budget if bound is None else min(budget, bound[0])
    for s in range(max_size, 0, -1):
        for f in reversed(rooted_forms(s)):
            k = (s, f)
            if bound is not None and k > bound:
                continue
            for rest in _forests(budget - s, k):
                yield (f,) + rest


def forests(budget: int, max_part: int) -> Iterator[tuple[Form, ...]]:
    """Non-increasing form multisets of total size `budget`, parts <= max_part.

    Used to enumerate the subtrees hanging from a tree's centroid.
    """
    if max_part < 1:
        raise ValueError(f"max_part must be >= 1, got {max_part}")
    top = rooted_forms(min(budget, max_part))[-1] if budget else ()
    yield from _forests(budget, (min(budget, max_part), top) if budget else None)


@dataclass(frozen=True)
class FormTables:
    """Hyper-Zagreb parts of every rooted form of size 1..max_size.

    Ids ascend in (size, form) order, so tuple-of-id comparisons agree with
    form_key.  A form's own edges are those from its root down.  With c
    children of degrees d_j (a child's own child count plus one, for the
    edge up to its parent) and its root at degree d they add up to

        E(f, d) = B + c*d^2 + 2*d*S1 + S2,  S1 = sum d_j,  S2 = sum d_j^2,

    where B, the index of the edges below the children, is the sum of
    E(child, d_j).  hung holds E(f, c + 1), the form hanging below a parent;
    only the terms in d differ at any other root degree.
    """

    forms: list[Form]
    ids_by_size: list[range]  # index 0 unused
    hung: list[int]

    def edge_hm(self, fid: int, d: int) -> int:
        """E(f, d) for form id fid with its root at degree d."""
        f = self.forms[fid]
        c = len(f)
        s1 = sum(map(len, f)) + c
        return self.hung[fid] + c * (d * d - (c + 1) ** 2) + 2 * (d - c - 1) * s1


def form_tables(max_size: int) -> FormTables:
    """Per-form tables over rooted_forms(1..max_size), built bottom-up."""
    forms: list[Form] = []
    ids_by_size = [range(0)]
    for s in range(1, max_size + 1):
        level = rooted_forms(s)
        ids_by_size.append(range(len(forms), len(forms) + len(level)))
        forms.extend(level)
    hung_of: dict[Form, int] = {}  # children come first: ids ascend by size
    for f in forms:
        c = len(f)
        degs = [len(child) + 1 for child in f]
        below = sum([hung_of[child] for child in f])
        hung_of[f] = below + c * (c + 1) ** 2 + 2 * (c + 1) * sum(degs) + sum(
            [d * d for d in degs]
        )
    return FormTables(forms, ids_by_size, list(hung_of.values()))


def star_form(pendants: int) -> Form:
    """Star with `pendants` leaves, rooted at the center."""
    return ((),) * pendants


def path_form(length_edges: int) -> Form:
    """Path with the given edge count, rooted at one endpoint."""
    f: Form = ()
    for _ in range(length_edges):
        f = (f,)
    return f


def rooted_form(adj, root: int, skip: frozenset[int] | set[int] = frozenset()) -> Form:
    """Canonical form of the tree hanging from `root` in an adjacency list.

    Traversal never enters vertices in `skip`; for a hanging tree of a
    unicyclic graph, `skip` holds the other cycle vertices.  The reachable
    region must be acyclic.
    """
    parent: dict[int, int] = {root: -1}
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in skip or v in parent:
                continue
            parent[v] = u
            order.append(v)
            stack.append(v)
    children: dict[int, list[Form]] = {u: [] for u in order}
    for u in reversed(order):
        kids = children[u]
        kids.sort(key=form_key, reverse=True)
        f = tuple(kids)
        p = parent[u]
        if p == -1:
            return f
        children[p].append(f)
    raise AssertionError("unreachable")


def cycle_adj(m: int) -> list[list[int]]:
    """Adjacency lists of the cycle 0-1-...-(m-1)-0, the base of a unicyclic graph."""
    return [[(i - 1) % m, (i + 1) % m] for i in range(m)]


def form_graph(adj: list[list[int]], placements: Iterable[tuple[int, Form]]) -> Graph:
    """Hang each (root, form) of `placements` below existing vertex `root`.

    `adj` is extended in place.  New vertices take consecutive ids from
    len(adj) on, placement by placement; within a form the children of a
    vertex get consecutive ids and subtrees are laid out last child first.
    The result is simple by construction, so it is built through the
    trusted from_adjacency path.
    """
    for root, form in placements:
        stack = [(form, root)]
        while stack:
            f, vid = stack.pop()
            for child in f:
                new = len(adj)
                adj[vid].append(new)
                adj.append([vid])
                stack.append((child, new))
    return from_adjacency(adj)
