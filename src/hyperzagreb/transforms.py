"""Index-monotone graph rewrites.

coalesce hangs one graph on a vertex of another.  The lemma kernels are
arithmetic on sites (graphs.site: a vertex's degree and its neighbours'
degree sum): site_gain is what a coalescence at two sites adds to the
index, attach_conditions gives the degree conditions under which moving
that attachment to a second site cannot lower it, and join_identify_gap is
how far identifying two sites beats joining them (join_vs_identify builds
that pair).  reduce_to_single_attachment replays the star-merge chain from
a unicyclic graph down to one pendant star on its pendant counts.
Rewrites return new graphs (inputs are never mutated); inputs outside a
rewrite's structural domain raise.
"""

from __future__ import annotations

from typing import NamedTuple

from .canon import dihedral_least, leaf_strip
from .graphs import Graph, GraphError, VertexRangeError, make_graph
from .families import cycle_with_stars


class StructureError(GraphError):
    """Input graph is outside the rewrite's structural domain."""


def coalesce(g: Graph, u: int, h: Graph, z: int) -> Graph:
    """Identify vertex u of g with vertex z of h.

    g keeps its vertex ids; h's remaining vertices follow, in id order.  The
    merged vertex has degree deg_g(u) + deg_h(z).
    """
    if not 0 <= u < g.n:
        raise VertexRangeError(f"vertex {u} out of range for g")
    if not 0 <= z < h.n:
        raise VertexRangeError(f"vertex {z} out of range for h")
    # h's vertex x becomes u at x = z, else the next free id past g's
    r = [g.n + x - (x > z) for x in range(h.n)]
    r[z] = u
    return make_graph(g.n + h.n - 1, [*g.edges(), *[(r[x], r[y]) for x, y in h.edges()]])


def site_gain(a: int, sa: int, b: int, sb: int) -> int:
    """The index that merging sites (a, sa) and (b, sb) adds: an edge ux at
    the first rises from (a + dx)**2 to (a + b + dx)**2, by
    b * (2 * (a + dx) + b), likewise at the second, so 3ab(a + b) + 2(b sa + a sb)."""
    return 3 * a * b * (a + b) + 2 * (b * sa + a * sb)


def join_identify_gap(at_u: tuple[int, int], at_v: tuple[int, int]) -> int:
    """hyper_zagreb(identified) - hyper_zagreb(joined) of join_vs_identify at
    sites at_u and at_v: the bridge and the pendant score alike, and as u and
    v have one edge more in both graphs, each edge at u adds 2b to
    site_gain's rise and at v 2a."""
    return site_gain(*at_u, *at_v) + 4 * at_u[0] * at_v[0]


def attach_conditions(
    at_u: tuple[int, int], at_w: tuple[int, int], adjacent: bool
) -> tuple[bool, bool, bool, bool]:
    """The two dominance conditions for moving an attachment from site at_u
    to site at_w; adjacent says whether their two vertices are.

    Returns (degree holds, sum holds, degree tight, sum tight).
    """
    (du, su), (dw, sw) = at_u, at_w
    if adjacent:  # each sum leaves out the other site
        su -= dw
        sw -= du
    return (du <= dw, su <= sw, du == dw, su == sw)


class JoinIdentifyPair(NamedTuple):
    """Same vertex budget spent two ways: a bridging edge vs a pendant.

    joined adds an edge between u in g1 and v in g2; identified merges u
    with v and attaches one new pendant to the merged vertex.  Both graphs
    have order n(g1) + n(g2).  With a = deg(u), b = deg(v) and S_u, S_v
    their neighbours' degree sums, identified exceeds joined in the index by
    ab(3(a + b) + 4) + 2(b S_u + a S_v) (join_identify_gap).  That is > 0
    when a, b >= 1, as its first term is > 0 and the sums are >= 0.
    """

    joined: Graph
    identified: Graph


def join_vs_identify(g1: Graph, u: int, g2: Graph, v: int) -> JoinIdentifyPair:
    offset = g1.n  # g2's ids shift past g1's
    shifted = [(x + offset, y + offset) for x, y in g2.edges()]
    merged = coalesce(g1, u, g2, v)
    return JoinIdentifyPair(
        joined=make_graph(g1.n + g2.n, [*g1.edges(), *shifted, (u, v + offset)]),
        identified=make_graph(merged.n + 1, [*merged.edges(), (u, merged.n)]),
    )


def _hanging_counts(g: Graph) -> tuple[list[int], bool]:
    """Vertices hanging at each cycle vertex, in leaf_strip's walk order,
    and whether every one of them is a leaf (so all trees are stars)."""
    size, walk, _, _ = leaf_strip(g)
    if len(walk) < 3:  # a tree's core, or no graph of the two classes
        raise StructureError("input must be connected and unicyclic")
    counts = [size[v] - 1 for v in walk]
    # every leaf hangs off the cycle, so the two counts agree iff all do
    return counts, sum(counts) == [len(a) for a in g.adj].count(1)


def _move_star(counts: list[int], src: int, tgt: int) -> list[int]:
    """The pendant counts with those at cycle position src moved onto tgt."""
    moved = counts[:]
    moved[tgt] += moved[src]
    moved[src] = 0
    return moved


def reduce_to_single_attachment(g: Graph) -> list[Graph]:
    """Monotone chain from a unicyclic graph down to one pendant star.

    Steps: collapse every hanging tree to a pendant star of the same vertex
    count, then repeatedly merge stars into the currently largest attachment
    until one remains.  The index strictly increases at every appended step,
    and the final graph is the cycle with a single pendant star (or the bare
    cycle when there was nothing to move).

    The target is picked once, the largest count, the first of equal ones:
    each merge adds a positive count to it, so it stays the unique largest.

    Of the candidate sources, the merge whose result has the least
    canonical code is taken, the first of equal ones.  It is found from the
    pendant counts alone.  canonical_code orders a star of c leaves by
    (c + 1, bracket key), which rises with c, so the rotation or reflection
    it writes is the dihedral-least one of the counts.  A star's key
    reads "(" + "()" * c + ")", so two codes of one cycle length first
    differ where those count lists first differ.  There the larger count
    writes "(" and the smaller ")", which sorts above it: the least code
    belongs to the largest dihedral-least count list.  A merged list has a
    zero at its source and a positive target, so its dihedral-least form
    starts with exactly its longest cyclic run of zeros and then a positive
    count: a longer run makes a smaller list.  When no star sits beside the
    target, only the candidates whose merge leaves the shortest such run
    are keyed.
    """
    counts, stars = _hanging_counts(g)
    m = len(counts)
    chain = [g]
    if not stars:
        # Star-collapse: keep the cycle, flatten each hanging tree.
        chain.append(cycle_with_stars(m, counts))
    # cycle_with_stars numbers the cycle 0..m-1 in leaf_strip's walk order,
    # so counts stay the profile of the chain's last graph.
    positions = [p for p, c in enumerate(counts) if c > 0]
    tgt = max(positions, key=lambda p: (counts[p], -p), default=0)
    sides = sorted({(tgt - 1) % m, (tgt + 1) % m})
    while len(positions) > 1:
        sources = [p for p in sides if counts[p]]
        if not sources:
            # No attachment touches the target: move a star whose dominance
            # conditions hold with the target (one always exists); with the
            # target's neighbours bare, they compare the neighbours' counts.
            k = len(positions)
            gap = [(positions[i] - positions[i - 1] - 1) % m for i in range(k)]
            longest = max(gap)
            run = {  # the longest zero run once p's star has moved
                p: max(longest, gap[i] + 1 + gap[(i + 1) % k])
                for i, p in enumerate(positions)
                if p != tgt and counts[(p + 1) % m] + counts[(p - 1) % m] <= counts[tgt]
            }
            if not run:
                raise AssertionError("no dominance-compatible source attachment")
            least = min(run.values())
            sources = [p for p in run if run[p] == least]
        # the least code (see above): max keeps the first of equal keys
        key = lambda p: dihedral_least(_move_star(counts, p, tgt))
        src = sources[0] if len(sources) == 1 else max(sources, key=key)
        counts = _move_star(counts, src, tgt)
        positions.remove(src)
        chain.append(cycle_with_stars(m, counts))
    return chain
