"""Exact isomorphism-complete canonical codes.

Two graphs receive the same code iff they are isomorphic; codes are bytes,
so they sort deterministically and serve both as dedup keys and as
tie-breakers.  Trees use a centroid-rooted form, unicyclic graphs a
dihedral-minimal necklace of hanging-tree forms, and everything else a
branch-and-bound minimal adjacency bitstring (intended for small orders).
Disconnected graphs combine sorted component codes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graphs import Graph, connected_components, induced_subgraph
from .rooted import Form, form_key, rooted_form

if TYPE_CHECKING:
    from .enumeration import ClassRecord


def canonical_code(g: Graph | ClassRecord) -> bytes:
    if not isinstance(g, Graph):
        g = g.graph()  # an enumerator's class record: code its built graph
    comps = connected_components(g)
    if len(comps) > 1:
        parts = sorted(_connected_code(induced_subgraph(g, c)) for c in comps)
        body = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
        return b"D" + len(parts).to_bytes(4, "big") + body
    return _connected_code(g)


def _connected_code(g: Graph) -> bytes:
    if g.num_edges == g.n - 1:
        return _tree_code(g)
    if g.num_edges == g.n:
        return _unicyclic_code(g)
    return _general_code(g)


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


def _general_code(g: Graph) -> bytes:
    """Minimal adjacency bitstring over all vertex orderings.

    Exhaustive with prefix pruning; exact for any graph but meant for small
    orders (the tree/unicyclic fast paths cover the large ones).
    """
    n = g.n
    adjsets = [frozenset(a) for a in g.adj]
    best: tuple[tuple[int, ...], ...] | None = None

    def extend(placed: list[int], remaining: list[int], rows: tuple) -> None:
        nonlocal best
        k = len(placed)
        if not remaining:
            if best is None or rows < best:
                best = rows
            return
        scored = sorted(
            (tuple(1 if placed[i] in adjsets[v] else 0 for i in range(k)), v)
            for v in remaining
        )
        for row, v in scored:
            new_rows = rows + (row,)
            if best is not None and new_rows > best[: k + 1]:
                break
            placed.append(v)
            extend(placed, [w for w in remaining if w != v], new_rows)
            placed.pop()

    extend([], list(range(n)), ())
    assert best is not None
    bits = [b for row in best for b in row]
    packed = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i : i + 8]:
            byte = (byte << 1) | b
        byte <<= (8 - min(8, len(bits) - i)) % 8
        packed.append(byte)
    return b"G" + n.to_bytes(4, "big") + bytes(packed)
