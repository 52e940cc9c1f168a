"""Plain references the tests check the package against, used by the tests only.

A breadth-first connectivity check and the two class predicates built on
it, the edge-list writer that parse_edgelist's round trips read back, the
path P_n, and the CLI's every subcommand word.
"""

from hyperzagreb.graphs import Graph
from hyperzagreb.rooted import form_graph, path_form


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == g.n


def is_tree(g: Graph) -> bool:
    """Connected with exactly n-1 edges."""
    return g.num_edges == g.n - 1 and is_connected(g)


def is_unicyclic(g: Graph) -> bool:
    """Connected with exactly n edges (exactly one cycle)."""
    return g.num_edges == g.n and is_connected(g)


def format_edgelist(g: Graph) -> str:
    """The "n m" header, then one "u v" line per edge, u < v, sorted."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def path(n: int) -> Graph:
    """P_n, labelled 0-1-...-(n-1) by rooted.form_graph; n >= 1."""
    return form_graph(0, [(0, path_form(n - 1))])


# Every subcommand name at every level: the CLI's parser built from these
# words is its whole tree, which a parser built from one call's argv is
# checked against.
EVERY_COMMAND_WORD = [
    "compute", "family", "enumerate", "rank", "verify", "transform",
    "trees", "unicyclic", "lemmas", "closed-forms", "reduce", "coalesce",
]
