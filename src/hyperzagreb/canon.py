"""Exact canonical codes for trees and connected unicyclic graphs.

Two graphs of these classes receive the same code iff they are isomorphic;
codes are bytes, so they sort deterministically and serve both as dedup
keys and as tie-breakers.  Trees use a centroid-rooted form, unicyclic
graphs a dihedral-minimal necklace of hanging-tree forms.  These are the
only classes the system ranks; any other graph raises GraphError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graphs import Graph, GraphError, is_tree, is_unicyclic
from .rooted import Form, form_key, rooted_form

if TYPE_CHECKING:
    from .enumeration import ClassRecord


def canonical_code(g: Graph | ClassRecord) -> bytes:
    if not isinstance(g, Graph):
        g = g.graph()  # an enumerator's class record: code its built graph
    if is_tree(g):
        return _tree_code(g)
    if is_unicyclic(g):
        return _unicyclic_code(g)
    raise GraphError(
        f"canonical codes cover trees and connected unicyclic graphs only, "
        f"got n={g.n} with {g.num_edges} edges"
    )


def _form_bytes(form: Form) -> bytes:
    out = bytearray()
    stack: list[object] = [form]
    while stack:
        item = stack.pop()
        if item == 0:
            out.append(0x29)  # ')'
            continue
        out.append(0x28)  # '('
        stack.append(0)
        stack.extend(reversed(item))  # type: ignore[arg-type]
    return bytes(out)


def tree_centroids(g: Graph) -> list[int]:
    """The one or two vertices minimizing the largest hanging subtree."""
    n = g.n
    if n == 1:
        return [0]
    # Subtree sizes from an arbitrary root via iterative post-order.
    root = 0
    parent = [-2] * n
    parent[root] = -1
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
                stack.append(v)
    size = [1] * n
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    out = []
    for v in range(n):
        heaviest = n - size[v]
        for w in g.adj[v]:
            if parent[w] == v:
                heaviest = max(heaviest, size[w])
        if heaviest <= n // 2:
            out.append(v)
    return out


def _tree_code(g: Graph) -> bytes:
    cents = tree_centroids(g)
    if len(cents) == 1:
        return b"T1" + _form_bytes(rooted_form(g.adj, cents[0]))
    c1, c2 = cents
    f1 = rooted_form(g.adj, c1, skip={c2})
    f2 = rooted_form(g.adj, c2, skip={c1})
    if form_key(f2) < form_key(f1):
        f1, f2 = f2, f1
    return b"T2" + _form_bytes(f1) + _form_bytes(f2)


def cycle_vertices(g: Graph) -> list[int]:
    """The unique cycle of a unicyclic graph, in traversal order.

    Found by repeatedly stripping leaves; the walk starts at the smallest
    surviving vertex, direction unspecified (callers canonicalize).
    """
    deg = [len(a) for a in g.adj]
    queue = [v for v in range(g.n) if deg[v] == 1]
    alive = [True] * g.n
    while queue:
        v = queue.pop()
        alive[v] = False
        for w in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    cycle_set = [v for v in range(g.n) if alive[v]]
    start = cycle_set[0]
    walk = [start]
    prev = -1
    cur = start
    in_cycle = set(cycle_set)
    while True:
        nxt = next(w for w in g.adj[cur] if w in in_cycle and w != prev)
        if nxt == start:
            break
        walk.append(nxt)
        prev, cur = cur, nxt
    return walk


def _dihedral_min(seq: tuple) -> tuple[tuple, int, bool]:
    """Lexicographic minimum over rotations and reflections.

    Returns (minimal tuple, start index, reversed flag) so callers can
    recover the winning alignment.
    """
    m = len(seq)
    best = None
    best_at = (0, False)
    for rev in (False, True):
        s = seq[::-1] if rev else seq
        for i in range(m):
            rot = s[i:] + s[:i]
            if best is None or rot < best:
                best = rot
                best_at = (i, rev)
    return best, best_at[0], best_at[1]


def _unicyclic_code(g: Graph) -> bytes:
    cyc = cycle_vertices(g)
    m = len(cyc)
    in_cycle = frozenset(cyc)
    forms = tuple(rooted_form(g.adj, v, skip=in_cycle - {v}) for v in cyc)
    keys = tuple(form_key(f) for f in forms)
    _, start, reflected = _dihedral_min(keys)
    ordered = forms[::-1] if reflected else forms
    ordered = ordered[start:] + ordered[:start]
    return b"U" + m.to_bytes(4, "big") + b"".join(_form_bytes(f) for f in ordered)
