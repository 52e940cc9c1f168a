"""Index-monotone graph rewrites.

coalesce hangs one graph on a vertex of another, and coalesce_gain reads
the index that hanging adds off the two graphs' rows, without building
the result.  attach_conditions gives the degree conditions under which
moving that attachment to a second vertex cannot lower the index.
join_vs_identify spends one vertex budget two ways and reports whether
its strict inequality is guaranteed.
reduce_to_single_attachment replays the star-merge chain from a unicyclic
graph down to one pendant star.  Rewrites return new graphs (inputs are
never mutated); inputs outside a rewrite's structural domain raise.
"""

from __future__ import annotations

from typing import NamedTuple

from .canon import dihedral_least, hanging_trees
from .graphs import Graph, GraphError, VertexRangeError, hyper_zagreb, is_unicyclic
from .families import cycle_with_stars


class StructureError(GraphError):
    """Input graph is outside the rewrite's structural domain."""


def coalesce(g: Graph, u: int, h: Graph, z: int) -> Graph:
    """Identify vertex u of g with vertex z of h.

    g keeps its vertex ids; h's remaining vertices follow, in id order.  The
    merged vertex has degree deg_g(u) + deg_h(z).  Both inputs are simple
    and share only the merged vertex, so the result is built unvalidated.
    """
    if not 0 <= u < g.n:
        raise GraphError(f"vertex {u} out of range for g")
    if not 0 <= z < h.n:
        raise GraphError(f"vertex {z} out of range for h")
    # h's vertex x becomes u at x = z, else the next free id past g's.  The
    # map rises on x != z and u lies below every new id, so each list comes
    # out sorted: u leads the list of each neighbour of z, and at u the new
    # ids follow g's.
    r = [g.n + x - (x > z) for x in range(h.n)]
    r[z] = u
    adj = list(g.adj)
    adj[u] += tuple([r[y] for y in h.adj[z]])
    for x, nbrs in enumerate(h.adj):
        if x != z:
            mapped = tuple([r[y] for y in nbrs if y != z])
            adj.append((u, *mapped) if z in nbrs else mapped)
    return Graph(len(adj), tuple(adj))


def coalesce_gain(g: Graph, u: int, h: Graph, z: int) -> int:
    """hyper_zagreb(coalesce(g, u, h, z)) - hyper_zagreb(g) - hyper_zagreb(h).

    Only the edges at the merged vertex change their terms: with a = deg_g(u)
    and b = deg_h(z), an edge ux of g goes from (a + dx)**2 to
    (a + b + dx)**2, a rise of b * (2 * (a + dx) + b), and an edge zy of h
    rises by a * (2 * (b + dy) + a).  Summed over the a + b edges, that is
    3ab(a + b) plus twice b times the degree sum of u's neighbours and a
    times that of z's.
    """
    gadj, hadj = g.adj, h.adj
    if not 0 <= u < len(gadj):
        raise GraphError(f"vertex {u} out of range for g")
    if not 0 <= z < len(hadj):
        raise GraphError(f"vertex {z} out of range for h")
    nu, nz = gadj[u], hadj[z]
    a, b = len(nu), len(nz)
    su = sum([len(gadj[x]) for x in nu])
    sz = sum([len(hadj[y]) for y in nz])
    return 3 * a * b * (a + b) + 2 * (b * su + a * sz)


def attach_conditions(g: Graph, u: int, w: int) -> tuple[bool, bool, bool, bool]:
    """The two dominance conditions for moving an attachment from u to w.

    Returns (degree holds, sum holds, degree tight, sum tight).
    """
    adj = g.adj
    n = len(adj)
    if not (0 <= u < n and 0 <= w < n):
        raise VertexRangeError(f"vertices ({u},{w}) out of range 0..{n - 1}")
    au, aw = adj[u], adj[w]
    du, dw = len(au), len(aw)
    su = sum([len(adj[x]) for x in au])
    sw = sum([len(adj[x]) for x in aw])
    if w in au:  # each sum leaves out the other site
        su -= dw
        sw -= du
    return (du <= dw, su <= sw, du == dw, su == sw)


class JoinIdentifyPair(NamedTuple):
    """Same vertex budget spent two ways: a bridging edge vs a pendant.

    joined adds an edge between u in g1 and v in g2; identified merges u
    with v and attaches one new pendant to the merged vertex.  Both graphs
    have order n(g1) + n(g2).  When both merged endpoints have degree >= 2
    in joined, the identified graph has the strictly larger index.
    """

    joined: Graph
    identified: Graph
    applicable: bool


def join_vs_identify(g1: Graph, u: int, g2: Graph, v: int) -> JoinIdentifyPair:
    if not 0 <= u < g1.n:
        raise GraphError(f"vertex {u} out of range for g1")
    if not 0 <= v < g2.n:
        raise GraphError(f"vertex {v} out of range for g2")
    # Sorted tuples throughout: g2's ids shift past g1's, so v's new
    # neighbour u leads its list and u's new neighbour closes its list.
    offset = g1.n
    adj = list(g1.adj) + [tuple([y + offset for y in a]) for a in g2.adj]
    adj[u] += (v + offset,)
    adj[v + offset] = (u, *adj[v + offset])
    joined = Graph(len(adj), tuple(adj))

    adj = list(coalesce(g1, u, g2, v).adj)
    adj[u] += (len(adj),)  # the pendant, the largest id
    adj.append((u,))
    identified = Graph(len(adj), tuple(adj))

    applicable = joined.degree(u) >= 2 and joined.degree(v + offset) >= 2
    return JoinIdentifyPair(joined=joined, identified=identified, applicable=applicable)


def _hanging_counts(g: Graph) -> tuple[list[int], bool]:
    """Vertices hanging at each cycle vertex, in hanging_trees' walk order,
    and whether every one of them is a leaf (so all trees are stars)."""
    if not is_unicyclic(g):
        raise StructureError("input must be connected and unicyclic")
    counts = [s - 1 for s, _ in hanging_trees(g).values()]
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

    Of the candidate sources, the merge whose result has the least
    canonical code is taken, the first of equal ones.  It is found from the
    pendant counts alone.  canonical_code orders a star of c leaves by
    (c + 1, bracket key), which rises with c, so the rotation or reflection
    it writes is the dihedral-least one of the counts.  A star's key
    reads "(" + "()" * c + ")", so two codes of one cycle length first
    differ where those count lists first differ.  There the larger count
    writes "(" and the smaller ")", which sorts above it: the least code
    belongs to the largest dihedral-least count list.
    """
    counts, stars = _hanging_counts(g)
    m = len(counts)
    chain = [g]
    if not stars:
        # Star-collapse: keep the cycle, flatten each hanging tree.
        chain.append(cycle_with_stars(m, counts))
    # cycle_with_stars numbers the cycle 0..m-1, the order hanging_trees
    # walks it in (from 0 toward 1), so counts stay the profile of the last
    # graph in the chain.
    hm = hyper_zagreb(chain[-1])
    while True:
        positions = [p for p, c in enumerate(counts) if c > 0]
        if len(positions) <= 1:
            break
        deg = lambda p: 2 + counts[p]
        # Target: the attachment of maximum degree, deterministic tie-break.
        tgt = max(positions, key=lambda p: (counts[p], -p))
        sources = [p for p in positions if (p - tgt) % m in (1, m - 1)]
        if not sources:
            # No attachment touches the target: move a star whose dominance
            # conditions hold with the target (one always exists).
            rhs = deg((tgt + 1) % m) + deg((tgt - 1) % m) + counts[tgt]
            sources = [
                p for p in positions
                if p != tgt and deg((p + 1) % m) + deg((p - 1) % m) <= rhs
            ]
            if not sources:
                raise AssertionError("no dominance-compatible source attachment")
        # the least code (see above): max keeps the first of equal keys
        key = lambda p: dihedral_least(_move_star(counts, p, tgt))
        src = sources[0] if len(sources) == 1 else max(sources, key=key)
        counts = _move_star(counts, src, tgt)
        nxt = cycle_with_stars(m, counts)
        nxt_hm = hyper_zagreb(nxt)
        if nxt_hm <= hm:
            raise AssertionError("merge step failed to increase the index")
        chain.append(nxt)
        hm = nxt_hm
    return chain
