"""Exact canonical codes for trees and connected unicyclic graphs.

Two graphs of these classes receive the same code iff they are isomorphic;
codes are bytes, so they sort deterministically and serve both as dedup
keys and as tie-breakers.  A graph is read through its core, which
hanging_trees finds in one leaf strip: a tree is coded by its form rooted
at the centroid, a unicyclic graph by a dihedral-minimal necklace of its
hanging-tree forms.  Each hanging tree is ordered by its (size, bracket
key), the order the form registry uses, and written with the key's bytes
as ASCII parentheses: a graph's keys come from the strip and a class
record's from its form ids, with no graph built.
No step recurses, so depth costs no stack.  These are the only classes
the system ranks; any other graph raises GraphError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .graphs import Graph, GraphError, is_tree, is_unicyclic
from .rooted import CLOSE, OPEN

if TYPE_CHECKING:
    from .enumeration import ClassRecord


def canonical_code(g: Graph | ClassRecord) -> bytes:
    if not isinstance(g, Graph):
        return _record_code(g)
    if is_tree(g):
        # one centroid, or two adjacent ones: their halves, smaller key first
        halves = sorted(hanging_trees(g).values())
        return _code(b"T%d" % len(halves), [key for _, key in halves])
    if is_unicyclic(g):
        walk = dihedral_least(list(hanging_trees(g).values()))
        return _code(b"U" + len(walk).to_bytes(4, "big"), [key for _, key in walk])
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
    keys = list(map(r.tables.key, r.ids))
    if r.cycle:
        return _code(b"U" + r.cycle.to_bytes(4, "big"), keys)
    return _code(b"T2", keys) if r.halves else _code(b"T1", [OPEN, *keys, CLOSE])


def hanging_trees(g: Graph) -> dict[int, tuple[int, bytes]]:
    """The core of a tree or connected unicyclic graph: each core vertex
    with the (size, bracket key) of the tree hanging from it.

    One stack strips leaves.  A stripped vertex builds its key from its
    children's and hands its size and key to its one remaining neighbour,
    so no vertex is keyed before its children and a path holds O(n) bytes
    at a time.  The edge count picks the core.  In a tree a leaf holding at
    least n/2 vertices is kept: what remains has only such leaves, so it is
    the centroid or the two adjacent centroids (Jordan, 1869), in vertex
    order.  In a unicyclic graph everything off the cycle is stripped, and
    the cycle is walked from its smallest vertex toward the smaller of its
    neighbours.  Callers check the class first; the walk needs one cycle.
    """
    n, adj = g.n, g.adj
    deg = [len(a) for a in adj]
    tree = sum(deg) < 2 * n
    size = [1] * n
    below: list = [[] for _ in range(n)]  # (size, key) per child; None once stripped
    stack = [v for v in range(n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if tree and 2 * size[v] >= n:
            continue
        kids, below[v] = below[v], None
        for w in adj[v]:  # its one neighbour left
            if below[w] is not None:
                break
        # a leaf's key needs no sort
        below[w].append((size[v], _key(kids) if kids else OPEN + CLOSE))
        size[w] += size[v]
        deg[w] -= 1
        if deg[w] == 1:
            stack.append(w)
    core = [v for v in range(n) if below[v] is not None]
    if not tree:
        walk, prev, cur = [], -1, core[0]
        for _ in core:
            walk.append(cur)
            prev, cur = cur, next(x for x in adj[cur] if x != prev and below[x] is not None)
        core = walk
    return {v: (size[v], _key(below[v])) for v in core}


def _key(kids: list[tuple[int, bytes]]) -> bytes:
    """Bracket key of a vertex from its children's (size, key) pairs."""
    kids.sort(reverse=True)
    return OPEN + b"".join([k for _, k in kids]) + CLOSE


def dihedral_least(s: list) -> list:
    """The lexicographically least rotation or reflection of s."""
    return min(_least_rotation(s), _least_rotation(s[::-1]))


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
