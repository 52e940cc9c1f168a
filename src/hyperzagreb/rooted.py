"""Rooted-tree forms: integer ids, bracket keys and nested tuples.

A rooted tree has one canonical form per rooted isomorphism class.  The
enumerators name each form by an integer id in the registry that
form_tables builds: a form is its first child's id and a smaller form
with the rest, and ids ascend by size, then by bracket key.  Its bracket
key is OPEN, its children's keys in descending (size, key) order, then CLOSE.
CLOSE sorts below OPEN, so within one size the byte order of keys is the
lexicographic order of nested tuples, and comparing id tuples agrees with
comparing forms.  The registry stores integers only; FormTables.key
builds a key when a code needs one.  canon codes a class record from the
keys of its ids, and a graph from the keys of its hanging trees, which
canon.hanging_trees builds without recursion however deep the tree.

Family builders describe forms to form_graph as nested tuples: the empty
tuple is a single vertex and a node is the tuple of its child forms in
descending (size, form) order.  A tuple may also hold registry ids.
form_graph hangs them on a cycle or a lone root, writing each row sorted.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, NamedTuple

from .graphs import Graph

Form = tuple  # nested tuples of Form

OPEN, CLOSE = b"\x01", b"\x00"  # as a tuple that ends sorts before one that goes on


class FormTables(NamedTuple):
    """Registry of every rooted form of size 1..max_size, by integer id.

    size[fid] holds a form's vertex count and ids_by_size[s] the ids of size
    s.  Every form fid >= 1 is its first child first[fid] followed by the
    children of the smaller form rest[fid]; id 0, the single vertex, holds
    the placeholders -1 and 0.  deg[fid] is its root's degree below a
    parent, its child count plus one.  kids() and key() read a form's
    children and bracket key off first and rest; no column holds a key.  A
    form's own edges are those from its root down.  With c children of
    degrees d_j and its root at degree d they add up to

        E(f, d) = B + c*d^2 + 2*d*S1 + S2,  S1 = sum d_j,  S2 = sum d_j^2,

    where B, the index of the edges below the children, is the sum of
    E(child, d_j).  hung holds E(f, c + 1), the form hanging below a parent,
    and s1 holds S1; only the terms in d differ at any other root degree.
    """

    first: array
    rest: array
    deg: list[int]
    ids_by_size: list[range]  # index 0 unused
    size: list[int]
    hung: list[int]
    s1: list[int]

    # Every class record refers to its registry: compare by identity, keep repr short.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __repr__ = object.__repr__

    def kids(self, fid: int) -> tuple[int, ...]:
        """The child ids of form fid, largest first."""
        return (self.first[fid],) + self.kids(self.rest[fid]) if fid else ()

    def key(self, fid: int) -> bytes:
        """The bracket key of form fid, recursing on first children only."""
        parts = [OPEN]
        while fid:
            parts.append(self.key(self.first[fid]))
            fid = self.rest[fid]
        return b"".join(parts) + CLOSE


def form_tables(max_size: int) -> FormTables:
    """The registry of rooted forms on 1..max_size >= 1 vertices.

    Built size by size without recursion: a form of size s whose first
    child f has size k is f followed by the children of a form g of size
    s - k whose first child is at most f; its key is OPEN, f's key, then
    g's key after its OPEN.  No key is a proper prefix of another, so keys
    compare like f's keys, then g's: f runs over order, every smaller id
    in key order, g over the ids of size s - k, skipping each whose first
    child exceeds f (ids order by size first, keys do not).  Below the top
    size, order takes in the new ids by the ranks of their f and g in it.
    """
    first, rest = array("l", [-1]), array("l", [0])
    ids_by_size = [range(0), range(1)]
    size, deg, hung, s1 = [1], [1], [0], [0]
    order = [0]  # every id of a smaller size, in key order
    for s in range(2, max_size + 1):
        for f in order:
            d_f = deg[f]
            for g in ids_by_size[s - size[f]]:
                if first[g] > f:
                    continue
                # g's root, at degree d below a parent, gains f: E(g, d + 1) =
                # hung[g] + (d - 1)(2d + 1) + 2*S1, plus hung[f] and the roots' edge.
                d = deg[g]
                hung.append(hung[g] + (d - 1) * (2 * d + 1) + 2 * s1[g]
                            + hung[f] + (d + 1 + d_f) ** 2)
                s1.append(s1[g] + d_f)
                first.append(f)
                rest.append(g)
                deg.append(d + 1)
        ids_by_size.append(range(len(size), len(hung)))
        size += [s] * len(ids_by_size[s])
        if s < max_size:  # id 0, OPEN CLOSE, stays least
            rank = {x: i for i, x in enumerate(order)}
            order[1:] = sorted([*order[1:], *ids_by_size[s]],
                               key=lambda x: (rank[first[x]], rank[rest[x]]))
            del rank  # the top size's scan needs no ranks
    return FormTables(first, rest, deg, ids_by_size, size, hung, s1)


def star_form(pendants: int) -> Form:
    """Star with `pendants` leaves, rooted at the center."""
    return ((),) * pendants


def path_form(length_edges: int) -> Form:
    """Path with the given edge count, rooted at one endpoint."""
    f: Form = ()
    for _ in range(length_edges):
        f = (f,)
    return f


def form_graph(cycle: int, placements: Iterable[tuple[int, Form | int]],
               kids: Callable[[int], tuple[int, ...]] | None = None) -> Graph:
    """Hang each (root, form) of `placements` below a vertex of the base:
    the cycle 0-1-...-(cycle-1)-0, or a lone root 0 when cycle is 0.

    A form is a tuple of forms, or an id whose child ids are kids(id).
    New vertices take consecutive ids from the base's size on, placement by
    placement; within a form the children of a vertex get consecutive ids
    and subtrees are laid out last child first.  A new id exceeds every id
    in the row it joins, so rows are written sorted, and nothing is checked:
    the graph is simple by construction.
    """
    adj = [[p - 1, p + 1] for p in range(cycle)] or [[]]
    if cycle:  # the rows that wrap around
        adj[0], adj[-1] = [1, cycle - 1], [0, cycle - 2]
    for root, form in placements:
        stack = [(form, root)]
        while stack:
            f, vid = stack.pop()
            for child in f if isinstance(f, tuple) else kids(f):
                new = len(adj)
                adj[vid].append(new)
                adj.append([vid])
                stack.append((child, new))
    return Graph(len(adj), tuple(map(tuple, adj)))
