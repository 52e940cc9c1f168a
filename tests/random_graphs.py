"""The lemma suite's random draws as built graphs, used by the tests only.

The suite reads its base graphs as unsorted rows and its hanging trees off
their Pruefer sequences.  These builders make the same draws from the
generator and build sorted Graphs, a random unicyclic graph by adding its
closing edge to a built tree's tuples.
"""

from hyperzagreb.enumeration import prufer_edges
from hyperzagreb.graphs import Graph, make_graph


def random_tree(rng, n):
    """A uniform random labeled tree, decoded from a random Pruefer sequence;
    the one tree on a single vertex has no sequence and no edge."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return make_graph(n, prufer_edges(seq, n) if n > 1 else [])


def random_base_graph(rng, n):
    """Random tree, or random unicyclic obtained by closing one extra edge."""
    g = random_tree(rng, n)
    if n >= 3 and rng.random() < 0.5:
        adj = g.adj
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and v not in adj[u]:
                rows = list(adj)
                rows[u] = tuple(sorted(adj[u] + (v,)))
                rows[v] = tuple(sorted(adj[v] + (u,)))
                return Graph(n, tuple(rows))
    return g


def rows_graph(rows):
    """The Graph of unsorted neighbour rows, each edge passed once, u < v."""
    n = len(rows)
    return make_graph(n, [(u, v) for u in range(n) for v in rows[u] if u < v])
