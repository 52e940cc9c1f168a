"""Exact canonical codes for trees and connected unicyclic graphs.

Two graphs of these classes receive the same code iff they are isomorphic;
codes are bytes, so they sort deterministically and serve both as dedup
keys and as tie-breakers.  Trees use their centroid-rooted form, unicyclic
graphs a dihedral-minimal necklace of hanging-tree forms.  Each hanging
tree is ordered by its (size, bracket key), the order the form registry
uses, and written with the key's bytes as ASCII parentheses: a graph's
from rooted.hanging_keys, a class record's from its form ids and
cycle_code's from its caller, with no graph built.  No step recurses, so
depth costs no stack.  These are the only classes the system ranks; any
other graph raises GraphError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .graphs import Graph, GraphError, is_tree, is_unicyclic
from .rooted import CLOSE, OPEN, hanging_keys

if TYPE_CHECKING:
    from .enumeration import ClassRecord


def canonical_code(g: Graph | ClassRecord) -> bytes:
    if not isinstance(g, Graph):
        return _record_code(g)
    if is_tree(g):
        return _tree_code(g)
    if is_unicyclic(g):
        return cycle_code(hanging_keys(g.adj, cycle_vertices(g)))
    raise GraphError(
        f"canonical codes cover trees and connected unicyclic graphs only, "
        f"got n={g.n} with {g.num_edges} edges"
    )


_ASCII = bytes.maketrans(OPEN + CLOSE, b"()")


def _code(head: bytes, keys: Iterable[bytes]) -> bytes:
    return head + b"".join(keys).translate(_ASCII)


def _record_code(r: ClassRecord) -> bytes:
    # Ids ascend by (size, key): a bracelet's are least over rotations and
    # reflections, a centroid's children descend, and halves come in order.
    keys = [r.tables.keys[f] for f in r.ids]
    if r.cycle:
        return _code(b"U" + r.cycle.to_bytes(4, "big"), keys)
    return _code(b"T2", keys) if r.halves else _code(b"T1", [OPEN, *keys, CLOSE])


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
    # one centroid, or two adjacent ones: their halves, smaller key first
    cents = tree_centroids(g)
    keys = sorted(hanging_keys(g.adj, cents))
    return _code(b"T%d" % len(cents), [key for _, key in keys])


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


def cycle_code(keys: list[tuple[int, bytes]]) -> bytes:
    """Code of a unicyclic graph from its hanging trees' (size, bracket key)
    pairs in cycle walk order: their least rotation or reflection."""
    best = min(_least_rotation(keys), _least_rotation(keys[::-1]))
    return _code(b"U" + len(keys).to_bytes(4, "big"), [key for _, key in best])


def _least_rotation(s: list) -> list:
    """The lexicographically least rotation of s, in linear time.

    Booth's algorithm ("Lexicographically least circular substrings", IPL
    10, 1980): a Knuth-Morris-Pratt failure function f over s + s, relative
    to the best start k found so far, which moves k past every start a
    mismatch proves larger.
    """
    ss = s + s
    f = [-1] * len(ss)
    k = 0
    for j in range(1, len(ss)):
        c = ss[j]
        i = f[j - k - 1]
        while i != -1 and c != ss[k + i + 1]:
            if c < ss[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if i == -1 and c != ss[k]:
            if c < ss[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return ss[k:k + len(s)]
