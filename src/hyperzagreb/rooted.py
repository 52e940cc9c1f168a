"""Rooted-tree forms: integer ids, bracket keys and nested tuples.

A rooted tree has one canonical form per rooted isomorphism class.  The
enumerators name each form by an integer id in the registry that
form_tables builds: a form is the non-increasing tuple of its children's
ids, and ids ascend by size, then by bracket key.  A form's bracket key is
OPEN, its children's keys in descending (size, key) order, then CLOSE.
CLOSE sorts below OPEN, so within one size the byte order of keys is the
lexicographic order of nested tuples, and comparing id tuples agrees with
comparing forms; form_tables writes each size in that order, unsorted.
canon codes a class record from the keys of its ids, and a graph from the
keys of its hanging trees, which canon.hanging_trees builds without
recursion however deep the tree.

Family builders describe forms to form_graph as nested tuples: the empty
tuple is a single vertex and a node is the tuple of its child forms in
descending (size, form) order.  A tuple may also hold registry ids.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import merge
from typing import Iterable, Sequence

from .graphs import Graph, from_adjacency

Form = tuple  # nested tuples of Form

OPEN, CLOSE = b"\x01", b"\x00"  # as a tuple that ends sorts before one that goes on


# Every class record refers to its registry: compare by identity, keep repr short.
@dataclass(frozen=True, eq=False, repr=False)
class FormTables:
    """Registry of every rooted form of size 1..max_size, by integer id.

    children[fid] holds the form's child ids, largest first, keys[fid] its
    bracket key and ids_by_size[s] the ids of size s.  A form's own edges
    are those from its root down.  With c children of degrees d_j (a child's
    own child count plus one, for the edge up to its parent) and its root at
    degree d they add up to

        E(f, d) = B + c*d^2 + 2*d*S1 + S2,  S1 = sum d_j,  S2 = sum d_j^2,

    where B, the index of the edges below the children, is the sum of
    E(child, d_j).  hung holds E(f, c + 1), the form hanging below a parent,
    and s1 holds S1; only the terms in d differ at any other root degree.
    """

    children: list[tuple[int, ...]]
    keys: list[bytes]
    ids_by_size: list[range]  # index 0 unused
    hung: list[int]
    s1: list[int]


def form_tables(max_size: int) -> FormTables:
    """The registry of rooted forms on 1..max_size >= 1 vertices.

    Built size by size without recursion: a form of size s whose first
    child f has size k is f followed by the children of a form g of size
    s - k whose own first child is at most f; its key is OPEN, f's key and
    g's key after its OPEN.  No key is a proper prefix of another, so keys
    order by f's key, then by g's id.  So each size is written in key order
    with no sort: f runs over every smaller id in key order (one list,
    merged with each size), and for each f the ids of g ascend.
    """
    children: list[tuple[int, ...]] = [()]
    keys = [OPEN + CLOSE]
    ids_by_size = [range(0), range(1)]
    hung, s1 = [0], [0]
    stop, by_key = [0, 1], []  # 1 + largest id of size <= s; smaller ids in key order
    by_first = [([], []), ([-1], [0])]  # per size: first child ids, ascending; the ids
    for s in range(2, max_size + 1):
        by_key = list(merge(by_key, ids_by_size[s - 1], key=keys.__getitem__))
        for f in by_key:
            firsts, gids = by_first[s - bisect_right(stop, f)]
            key_f, one, d_f = OPEN + keys[f], (f,), len(children[f]) + 1
            for g in sorted(gids[:bisect_right(firsts, f)]):
                # g's root, at degree d below a parent, gains f: E(g, d + 1) =
                # hung[g] + (d - 1)(2d + 1) + 2*S1, plus hung[f] and the roots' edge.
                kids = children[g]
                d = len(kids) + 1
                hung.append(hung[g] + (d - 1) * (2 * d + 1) + 2 * s1[g]
                            + hung[f] + (d + 1 + d_f) ** 2)
                s1.append(s1[g] + d_f)
                keys.append(key_f + keys[g][1:])
                children.append(one + kids)
        ids_by_size.append(range(stop[-1], len(children)))
        stop.append(len(children))
        if s < max_size:
            gids = sorted(ids_by_size[s], key=lambda g: children[g][0])
            by_first.append(([children[g][0] for g in gids], gids))
    return FormTables(children, keys, ids_by_size, hung, s1)


def star_form(pendants: int) -> Form:
    """Star with `pendants` leaves, rooted at the center."""
    return ((),) * pendants


def path_form(length_edges: int) -> Form:
    """Path with the given edge count, rooted at one endpoint."""
    f: Form = ()
    for _ in range(length_edges):
        f = (f,)
    return f


def cycle_adj(m: int) -> list[list[int]]:
    """Adjacency lists of the cycle 0-1-...-(m-1)-0, the base of a unicyclic graph."""
    return [[(i - 1) % m, (i + 1) % m] for i in range(m)]


def form_graph(adj: list[list[int]], placements: Iterable[tuple[int, Form | int]],
               children: Sequence[tuple[int, ...]] = ()) -> Graph:
    """Hang each (root, form) of `placements` below existing vertex `root`.

    A form is a tuple of forms, or an id whose children are children[id].
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
            for child in f if isinstance(f, tuple) else children[f]:
                new = len(adj)
                adj[vid].append(new)
                adj.append([vid])
                stack.append((child, new))
    return from_adjacency(adj)
