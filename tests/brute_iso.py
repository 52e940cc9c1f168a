"""Reference isomorphism check for small graphs, used by the tests only."""

from itertools import permutations

from hyperzagreb.graphs import Graph


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by raw permutation search (small graphs only)."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    n = g.n
    if sorted(map(len, g.adj)) != sorted(map(len, h.adj)):
        return False
    if n > 9:
        raise ValueError("brute_isomorphic is limited to n <= 9")
    g_edges = list(g.edges())
    h_sets = h.adj
    for perm in permutations(range(n)):
        ok = True
        for u, v in g_edges:
            if perm[v] not in h_sets[perm[u]]:
                ok = False
                break
        if ok:
            return True
    return False
