"""Exact canonical codes for trees and connected unicyclic graphs.

Two graphs of these classes receive the same code iff they are isomorphic;
codes are bytes, so they sort deterministically and serve both as dedup
keys and as tie-breakers.  A graph is read through its core, which
leaf_strip finds: a tree is coded by its form rooted at the centroid, a
unicyclic graph by a dihedral-minimal necklace of its hanging-tree forms.
Each hanging tree is ordered by its (size, bracket key), the order the
form registry uses, and written with the key's bytes as ASCII
parentheses: a graph's keys come from hanging_trees, in strip order with
no recursion, and a record's from FormTables.key, which recurses on first
children only, to the form's height, with no graph built.  These are the
only classes the system ranks; any other graph raises GraphError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .graphs import Graph, GraphError
from .rooted import CLOSE, OPEN

if TYPE_CHECKING:
    from .enumeration import ClassRecord


def canonical_code(g: Graph | ClassRecord) -> bytes:
    if not isinstance(g, Graph):
        return _record_code(g)
    core = list(hanging_trees(g).values())
    if 0 < len(core) <= 2:
        # one centroid, or two adjacent ones: their halves, smaller key first
        core.sort()
        return _code(b"T%d" % len(core), [key for _, key in core])
    if core:
        walk = dihedral_least(core)
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


def leaf_strip(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """(size, core, up, order): the core of a tree or connected unicyclic
    graph, each vertex's size (itself and all hanging below it), up[v], the
    vertex v was stripped onto (-1 on the core), and the stripped vertices
    in strip order, each after its children.  Any other graph gets four
    empty lists: the strip is the class check.

    A graph with neither n - 1 nor n edges is refused before any leaf is
    stripped.  One stack strips leaves; the edge count picks the core.  A
    tree keeps a leaf holding at least n/2 vertices, so what remains has
    only such leaves: the centroid or the two adjacent centroids (Jordan,
    1869), in vertex order; with n - 1 edges, g is a tree iff at most two
    remain, as a cycle never strips.  A unicyclic graph keeps its cycle,
    walked from its smallest vertex toward the smaller of its neighbours;
    with n edges, g is one iff every vertex left has two neighbours left
    and the walk meets them all before it returns to its start.
    """
    n, adj = g.n, g.adj
    deg = [len(a) for a in adj]
    ends = sum(deg)  # twice the edge count
    tree = ends == 2 * n - 2
    if n == 0 or not tree and ends != 2 * n:
        return [], [], [], []
    size, up, order = [1] * n, [-1] * n, []
    stack = [v for v in range(n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if tree and 2 * size[v] >= n:
            continue
        for w in adj[v]:  # its one neighbour left
            if up[w] < 0:
                break
        up[v] = w
        order.append(v)
        size[w] += size[v]
        deg[w] -= 1
        if deg[w] == 1:
            stack.append(w)
    core = [v for v in range(n) if up[v] < 0]
    if tree:
        return (size, core, up, order) if len(core) <= 2 else ([], [], [], [])
    walk, prev, cur = [], -1, core[0]
    while deg[cur] == 2:
        walk.append(cur)
        for x in adj[cur]:
            if x != prev and up[x] < 0:
                break
        prev, cur = cur, x
        if cur == core[0]:
            break
    return (size, walk, up, order) if len(walk) == len(core) else ([], [], [], [])


def hanging_trees(g: Graph) -> dict[int, tuple[int, bytes]]:
    """Each core vertex of leaf_strip, in its order, with the (size, bracket
    key) of the tree hanging from it; empty for a graph of neither class.
    Keys are built in strip order, and a vertex drops its children's keys
    once its own is built, so a path holds O(n) bytes at a time."""
    size, core, up, order = leaf_strip(g)
    below: list = [[] for _ in size]  # (size, key) per child; None once keyed
    for v in order:
        kids, below[v] = below[v], None
        # a leaf's key needs no sort
        below[up[v]].append((size[v], _key(kids) if kids else OPEN + CLOSE))
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

    Two candidate starts i < j are compared over s + s, k entries in.  At
    a mismatch, say ss[i + k] > ss[j + k], each start i + p with p <= k
    reads a larger rotation than j + p, so none of them is least: i jumps
    to max(i + k + 1, j + 1) and the two swap, keeping i < j (a larger
    ss[j + k] moves j to j + k + 1 the same way).  No start below j but i
    can then be least.  Each turn raises i + j + k by one or more, so the
    scan ends within 3n turns: at j >= n, i is the last start left; at
    k >= n, rotations i and j are equal, so s repeats every j - i entries.
    """
    n, ss = len(s), s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(i + k + 1, j + 1), 0
        else:
            j, k = j + k + 1, 0
    return ss[i:i + n]
