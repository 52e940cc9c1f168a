"""Named extremal families and their closed-form index polynomials.

Every family is a fixed core plus leaves on one hub vertex (Core): the
star S_n is a lone vertex, the brooms T^1 (star with one subdivided edge),
T^2 (star center adjoining a degree-3 vertex with two leaves), T^3 (star
with two subdivided edges) and T^4 (star center adjoining a degree-4
vertex with three leaves) and the long broom (one pendant path of three
edges) are small rooted trees, and each unicyclic family is a cycle C_m
whose vertices carry small rooted trees, given as nested-tuple forms
(rooted.path_form, rooted.star_form).  A member on n vertices adds
n - |core| leaves at the hub, so its index is a cubic in n that
Core.cubic derives exactly from the core alone.

The catalog maps stable string keys to the paper's cubic polynomials in n,
each with a validity floor, and to the core that builds its members;
build_catalog_member builds a member by key, and the audit checks every
table polynomial against the cubic derived from its core.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graphs import Graph, GraphError, hyper_zagreb, site
from .rooted import Form, form_graph, path_form, star_form


class FamilyDomainError(GraphError):
    """Requested order or cycle length is outside the family's domain."""


class UnknownFamilyError(KeyError):
    """Catalog key not recognized."""


class ClosedFormPoly(NamedTuple):
    """Exact cubic a3*n^3 + a2*n^2 + a1*n + a0 valid from n >= valid_n_min."""

    a3: int
    a2: int
    a1: int
    a0: int
    valid_n_min: int

    def evaluate(self, n: int) -> int:
        if n < self.valid_n_min:
            raise FamilyDomainError(
                f"polynomial valid from n={self.valid_n_min}, got {n}"
            )
        return self.a3 * n**3 + self.a2 * n**2 + self.a1 * n + self.a0

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a3, self.a2, self.a1, self.a0)


class Core(NamedTuple):
    """A family's fixed part; a member on n vertices adds leaves at the hub.

    cycle is 0 for a tree, else the cycle length m.  forms[p] is the
    nested-tuple form hung at cycle position p, or for a tree the whole
    tree's form from its root.  The member on n vertices pads forms[hub]
    with n - size trailing leaves, so leaves come last among its children.
    """

    cycle: int
    forms: tuple[Form, ...]
    hub: int

    @property
    def size(self) -> int:
        """Vertices of the core: the cycle (or the root) and those below it."""
        count, stack = self.cycle or 1, [c for f in self.forms for c in f]
        while stack:
            count += 1
            stack.extend(stack.pop())
        return count

    def build(self, n: int) -> Graph:
        """The member on n >= size vertices, labelled by rooted.form_graph."""
        leaves = n - self.size
        if leaves < 0:
            raise FamilyDomainError(f"core needs n >= {self.size}, got {n}")
        forms = list(self.forms)
        forms[self.hub] += ((),) * leaves
        return form_graph(self.cycle, enumerate(forms))

    def cubic(self) -> tuple[int, int, int, int]:
        """Coefficients (a3, a2, a1, a0) of hyper_zagreb(build(n)) as a cubic
        in n, exact for every n >= size.

        L leaves at a hub of core degree a change only the hub's edges: a
        core neighbour v of degree d_v gives (a + L + d_v)^2 and a leaf
        (a + L + 1)^2, so with S1 = sum of (a + d_v) over the neighbours
        (a^2 + S for the hub's site (a, S))

            HM = L^3 + (3a + 2) L^2 + (2 S1 + (a + 1)^2) L + HM(core).

        L = n - size is substituted by Horner's rule in exact integers.
        """
        g = self.build(self.size)
        a, s = site(g.adj, self.hub)
        coeffs: list[int] = []
        for c in (1, 3 * a + 2, 2 * (a * a + s) + (a + 1) ** 2, hyper_zagreb(g)):
            # times (n - size), then plus the next coefficient in L
            coeffs = [x - self.size * y for x, y in zip(coeffs + [0], [0] + coeffs)]
            coeffs[-1] += c
        return tuple(coeffs)


def cycle_with_stars(m: int, pendant_counts: Sequence[int]) -> Graph:
    """C_m(l_1, ..., l_k): pendant stars at the first k cycle positions.

    A zero count means the position carries nothing.  A star's center is
    its cycle vertex, whose degree is 2 plus the count.  The labels are
    rooted.form_graph's: the cycle is 0..m-1, then each star's leaves take
    the next free ids in position order.  A center's two cycle neighbours
    come before its leaves, which lie past the cycle, so every list is
    written sorted and nothing is sorted again.  Built through form_graph,
    the reduce chains it writes raised graph-io's request p99 by 17%.
    """
    if m < 3:
        raise FamilyDomainError(f"cycle length must be >= 3, got {m}")
    if len(pendant_counts) > m or min(pendant_counts, default=0) < 0:
        raise FamilyDomainError(
            f"need at most {m} pendant counts, none negative: {list(pendant_counts)}"
        )
    adj = [(p - 1, p + 1) for p in range(m)]
    adj[0], adj[-1] = (1, m - 1), (0, m - 2)
    for p, c in enumerate(pendant_counts):
        if c:
            adj[p] += tuple(range(len(adj), len(adj) + c))
            adj += [(p,)] * c
    return Graph(len(adj), tuple(adj))


def cycle_star_hm(m: int, n: int) -> int:
    """Index value of C_m(n-m): a cycle with one pendant star of n-m leaves.

    Closed form: 16(m-2) + 2(n-m+4)^2 + (n-m)(n-m+3)^2.  Each of the m-2
    cycle edges between two degree-2 vertices contributes (2+2)^2 = 16.
    """
    if m < 3:
        raise FamilyDomainError(f"cycle length must be >= 3, got {m}")
    if m > n:
        raise FamilyDomainError(f"cycle length {m} exceeds order {n}")
    t = n - m
    return 16 * (m - 2) + 2 * (t + 4) ** 2 + t * (t + 3) ** 2


def cycle_star_hm_miscounted(m: int, n: int) -> int:
    """Variant of cycle_star_hm with a 4(m-2) internal-cycle term.

    Kept only as a regression reference: it undercounts each internal cycle
    edge and disagrees with the C_4(n-4) catalog row (2614 vs 2638 at n=15).
    """
    return cycle_star_hm(m, n) - 12 * (m - 2)


class CatalogEntry(NamedTuple):
    """A named family: its closed form and the core its members grow from."""

    key: str
    poly: ClosedFormPoly
    core: Core
    description: str

    @property
    def kind(self) -> str:
        return "unicyclic" if self.core.cycle else "trees"


# A pendant edge (a one-leaf star) and a pendant path of two edges, hung by an end.
_P1, _P2 = path_form(1), path_form(2)
# The fourth broom: no table row, but the lemma suite keeps it below T^3.
T4_CORE = Core(0, ((star_form(3),),), 0)


def _catalog() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry("S_n", ClosedFormPoly(1, -1, 0, 0, 2),
                     Core(0, ((),), 0),
                     "star with n-1 leaves"),
        CatalogEntry("T^1_n", ClosedFormPoly(1, -4, 7, 6, 4),
                     Core(0, ((_P1,),), 0),
                     "star with one edge subdivided"),
        CatalogEntry("T^2_n", ClosedFormPoly(1, -7, 20, 16, 6),
                     Core(0, ((star_form(2),),), 0),
                     "center with n-4 leaves joined to a degree-3 vertex carrying 2 leaves"),
        CatalogEntry("T^3_n", ClosedFormPoly(1, -7, 20, 0, 5),
                     Core(0, ((_P1, _P1),), 0),
                     "star with two edges subdivided"),
        CatalogEntry("broom3_n", ClosedFormPoly(1, -7, 18, 10, 5),
                     Core(0, ((_P2,),), 0),
                     "center with n-4 leaves plus a pendant path of three edges"),
        CatalogEntry("C_3(n-3)", ClosedFormPoly(1, -1, 4, 18, 4),
                     Core(3, ((),), 0),
                     "triangle with n-3 pendant leaves at one vertex"),
        CatalogEntry("C_3(1,n-4)", ClosedFormPoly(1, -4, 11, 38, 5),
                     Core(3, (_P1, ()), 1),
                     "triangle with pendant stars of 1 and n-4 leaves"),
        CatalogEntry("C_3(T^1_{n-2})", ClosedFormPoly(1, -4, 11, 20, 6),
                     Core(3, ((_P1,),), 0),
                     "triangle carrying the broom T^1 on n-2 vertices at its center"),
        CatalogEntry("C_4(n-4)", ClosedFormPoly(1, -4, 9, 28, 5),
                     Core(4, ((),), 0),
                     "4-cycle with n-4 pendant leaves at one vertex"),
        CatalogEntry("C_3(2,n-5)", ClosedFormPoly(1, -7, 24, 68, 6),
                     Core(3, (star_form(2), ()), 1),
                     "triangle with pendant stars of 2 and n-5 leaves"),
        CatalogEntry("C_3(1,1,n-5)", ClosedFormPoly(1, -7, 24, 48, 6),
                     Core(3, (_P1, _P1, ()), 2),
                     "triangle with pendant stars of 1, 1 and n-5 leaves"),
        CatalogEntry("C_3(T^2_{n-2})", ClosedFormPoly(1, -7, 24, 26, 8),
                     Core(3, ((star_form(2),),), 0),
                     "triangle carrying the broom T^2 on n-2 vertices at its center"),
        CatalogEntry("C_3(T^3_{n-2})", ClosedFormPoly(1, -7, 24, 10, 7),
                     Core(3, ((_P1, _P1),), 0),
                     "triangle carrying the broom T^3 on n-2 vertices at its center"),
        CatalogEntry("C_3(3,n-6)", ClosedFormPoly(1, -10, 43, 108, 7),
                     Core(3, (star_form(3), ()), 1),
                     "triangle with pendant stars of 3 and n-6 leaves"),
        CatalogEntry("C_3(P_3,n-5)", ClosedFormPoly(1, -7, 22, 40, 6),
                     Core(3, (_P2, ()), 1),
                     "triangle with a pendant 2-edge path at one vertex"
                     " and n-5 leaves at another"),
        CatalogEntry("C_3(1,2,n-6)", ClosedFormPoly(1, -10, 43, 62, 7),
                     Core(3, (_P1, star_form(2), ()), 2),
                     "triangle with pendant stars of 1, 2 and n-6 leaves"),
        CatalogEntry("C_4(T^1_{n-3})", ClosedFormPoly(1, -7, 22, 20, 7),
                     Core(4, ((_P1,),), 0),
                     "4-cycle carrying the broom T^1 on n-3 vertices at its center"),
        CatalogEntry("C_4(1,n-5)@alpha=1", ClosedFormPoly(1, -7, 22, 38, 6),
                     Core(4, (_P1, ()), 1),
                     "4-cycle with pendant stars of 1 and n-5 leaves at adjacent vertices"),
        CatalogEntry("C_5(n-5)", ClosedFormPoly(1, -7, 20, 30, 6),
                     Core(5, ((),), 0),
                     "5-cycle with n-5 pendant leaves at one vertex"),
        # Found by exhaustive ranking: sits strictly between the C_3(1,1,n-5)
        # and C_3(T^2_{n-2}) rows at every order, so the eight-family chain
        # cannot hold as stated.
        CatalogEntry("C_3(1,T^1_{n-3})", ClosedFormPoly(1, -7, 24, 28, 7),
                     Core(3, (_P1, (_P1,)), 1),
                     "triangle with one pendant leaf and the broom T^1 on n-3 vertices"),
    ]
    return {e.key: e for e in entries}


CATALOG: dict[str, CatalogEntry] = _catalog()

# Extremal chains checked by the verifier (values strictly decrease along
# each list for large enough n).
TREE_TOP4 = ["S_n", "T^1_n", "T^2_n", "T^3_n"]
UNICYCLIC_TOP8 = [
    "C_3(n-3)",
    "C_3(1,n-4)",
    "C_3(T^1_{n-2})",
    "C_4(n-4)",
    "C_3(2,n-5)",
    "C_3(1,1,n-5)",
    "C_3(T^2_{n-2})",
    "C_3(T^3_{n-2})",
]
# The one family allowed to tie with the tail of the unicyclic chain (their
# polynomials differ by 2n - 30, so the tie happens exactly at n = 15).
UNICYCLIC_TAIL_TIE = "C_3(P_3,n-5)"


def build_catalog_member(name: str, n: int) -> Graph:
    try:
        entry = CATALOG[name]
    except KeyError:
        raise UnknownFamilyError(name) from None
    if n < entry.poly.valid_n_min:
        raise FamilyDomainError(
            f"{name} needs n >= {entry.poly.valid_n_min}, got {n}"
        )
    return entry.core.build(n)
