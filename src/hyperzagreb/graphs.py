"""Simple undirected graphs with exact integer degree-based indices.

Vertices are dense ids 0..n-1, adjacency is stored as sorted tuples, and
graphs are immutable after construction.  All index arithmetic is plain
Python int, so every value is exact regardless of size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class VertexRangeError(GraphError):
    """A vertex id is outside 0..n-1."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered edge was given twice."""


class Graph(NamedTuple):
    """Immutable simple undirected graph on vertices 0..n-1.

    Unchecked: make_graph validates edges; the three builders whose cost a
    workload times (rooted.form_graph, codec.decode_graph6,
    families.cycle_with_stars) write sorted rows and call it directly.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    # equal only to a Graph, never to a plain (n, adj) tuple; hashed as one
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def make_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated simple graph from an edge list.

    Raises VertexRangeError, SelfLoopError or DuplicateEdgeError so callers
    can tell the rejection reasons apart.
    """
    if order < 1:
        raise VertexRangeError(f"order must be >= 1, got {order}")
    adj: list[list[int]] = [[] for _ in range(order)]
    pairs = set()  # u * order + v for each edge, u < v
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise VertexRangeError(f"edge ({u},{v}) out of range 0..{order - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        pair = u * order + v if u < v else v * order + u
        if pair in pairs:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        pairs.add(pair)
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return Graph(order, tuple(map(tuple, adj)))


def site(adj: Sequence[Sequence[int]], v: int) -> tuple[int, int]:
    """v's degree and its neighbours' degree sum, all that a merge at v
    reads, from a Graph's adj or from unsorted neighbour lists."""
    if not 0 <= v < len(adj):
        raise VertexRangeError(f"vertex {v} out of range for g")
    return len(adj[v]), sum([len(adj[x]) for x in adj[v]])


def hyper_zagreb(g: Graph) -> int:
    """Sum of (d(u)+d(v))**2 over all edges uv; 0 for edgeless graphs."""
    adj = g.adj
    degs = [len(a) for a in adj]
    total = 0
    for u in range(g.n):
        du = degs[u]
        for v in adj[u]:
            if v > u:
                total += (du + degs[v]) ** 2
    return total


class ZagrebIndices(NamedTuple):
    """First Zagreb M1, second Zagreb M2 and forgotten index F."""

    m1: int
    m2: int
    f: int


def classical_indices(g: Graph) -> ZagrebIndices:
    """M1 = sum d(v)^2, M2 = sum_{uv} d(u)d(v), F = sum_{uv} d(u)^2 + d(v)^2.

    These satisfy hyper_zagreb(g) == F + 2*M2 for every graph.
    """
    degs = [len(a) for a in g.adj]
    m1 = sum(d * d for d in degs)
    m2 = 0
    f = 0
    for u in range(g.n):
        du = degs[u]
        for v in g.adj[u]:
            if v > u:
                dv = degs[v]
                m2 += du * dv
                f += du * du + dv * dv
    return ZagrebIndices(m1=m1, m2=m2, f=f)

