"""Named extremal families and their closed-form index polynomials.

Tree families: the star S_n, the brooms T^1 (star with one subdivided
edge), T^2 (star center adjoining a degree-3 vertex with two leaves),
T^3 (star with two subdivided edges), T^4 (star center adjoining a
degree-4 vertex with three leaves), and the long broom (one pendant path
of three edges).  Unicyclic families: a cycle C_m whose vertices carry
rooted trees, each given as a nested-tuple form (rooted.path_form,
rooted.star_form) or as an integer, shorthand for a pendant star.

The catalog maps stable string keys to cubic polynomials in n together
with a validity floor and a builder; build_catalog_member builds a member
by key, and every entry is audited against the directly computed index of
the built graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .graphs import Graph, GraphError
from .rooted import Form, cycle_adj, form_graph, path_form, star_form


class FamilyDomainError(GraphError):
    """Requested order or cycle length is outside the family's domain."""


class UnknownFamilyError(KeyError):
    """Catalog key not recognized."""


@dataclass(frozen=True)
class ClosedFormPoly:
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


Attachment = Union[int, Form]


def star(n: int) -> Graph:
    """S_n: one center adjacent to n-1 leaves."""
    if n < 2:
        raise FamilyDomainError(f"star needs n >= 2, got {n}")
    return form_graph([[]], [(0, star_form(n - 1))])


def path(n: int) -> Graph:
    """P_n."""
    if n < 1:
        raise FamilyDomainError(f"path needs n >= 1, got {n}")
    return form_graph([[]], [(0, path_form(n - 1))])


def cycle(n: int) -> Graph:
    """C_n."""
    if n < 3:
        raise FamilyDomainError(f"cycle needs n >= 3, got {n}")
    return form_graph(cycle_adj(n), [])


# k -> (smallest order, the center's subtrees other than leaves) of the broom
# T^k.  A subdivided edge hangs a 2-vertex path off the center: path_form(1).
_TREE_T = {
    1: (4, (path_form(1),)),
    2: (6, (star_form(2),)),
    3: (5, (path_form(1), path_form(1))),
    4: (6, (star_form(3),)),
}


def _t_root_form(k: int, size: int) -> Form:
    """T^k on `size` vertices rooted at its center; each subtree above is a
    path or a star, of 1 + len(f) vertices, and leaves fill the rest."""
    heads = _TREE_T[k][1]
    return heads + ((),) * (size - 1 - sum([1 + len(f) for f in heads]))


def tree_t_family(k: int, n: int) -> Graph:
    """The broom-family tree T^k_n for k in 1..4."""
    if k not in _TREE_T:
        raise FamilyDomainError(f"tree family index must be 1..4, got {k}")
    n_min = _TREE_T[k][0]
    if n < n_min:
        raise FamilyDomainError(f"T^{k} needs n >= {n_min}, got {n}")
    return form_graph([[]], [(0, _t_root_form(k, n))])


def long_broom(n: int) -> Graph:
    """Star center with n-4 leaves plus one pendant path of three edges."""
    if n < 5:
        raise FamilyDomainError(f"long broom needs n >= 5, got {n}")
    return form_graph([[]], [(0, tuple([path_form(2)] + [()] * (n - 4)))])


def _as_form(att: Attachment) -> Form:
    if isinstance(att, int):
        if att < 1:
            raise FamilyDomainError(f"star shorthand must be >= 1, got {att}")
        return star_form(att)
    return att


def cycle_with_attachments(
    m: int, attachments: Sequence[tuple[int, Attachment]]
) -> Graph:
    """Cycle x_0..x_{m-1} with rooted trees identified at given positions.

    The attachment root merges with its cycle vertex, so that vertex's
    degree is 2 plus the root's degree inside the tree.
    """
    if m < 3:
        raise FamilyDomainError(f"cycle length must be >= 3, got {m}")
    positions = [p for p, _ in attachments]
    if len(set(positions)) != len(positions):
        raise FamilyDomainError(f"attachment positions must be distinct: {positions}")
    if any(not 0 <= p < m for p in positions):
        raise FamilyDomainError(f"attachment positions must lie in 0..{m - 1}")
    return form_graph(cycle_adj(m), [(p, _as_form(a)) for p, a in attachments])


def cycle_with_stars(m: int, pendant_counts: Sequence[int]) -> Graph:
    """C_m(l_1, ..., l_k): pendant stars at the first k cycle positions.

    A zero count means the position carries nothing.
    """
    return cycle_with_attachments(
        m, [(i, l) for i, l in enumerate(pendant_counts) if l != 0]
    )


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


@dataclass(frozen=True)
class CatalogEntry:
    """A named family: its class, closed form, and order-parametric builder."""

    key: str
    kind: str  # "tree" | "unicyclic"
    poly: ClosedFormPoly
    builder: Callable[[int], Graph]
    description: str


def _catalog() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry(
            "S_n", "tree", ClosedFormPoly(1, -1, 0, 0, 2), star,
            "star with n-1 leaves",
        ),
        CatalogEntry(
            "T^1_n", "tree", ClosedFormPoly(1, -4, 7, 6, 4),
            lambda n: tree_t_family(1, n),
            "star with one edge subdivided",
        ),
        CatalogEntry(
            "T^2_n", "tree", ClosedFormPoly(1, -7, 20, 16, 6),
            lambda n: tree_t_family(2, n),
            "center with n-4 leaves joined to a degree-3 vertex carrying 2 leaves",
        ),
        CatalogEntry(
            "T^3_n", "tree", ClosedFormPoly(1, -7, 20, 0, 5),
            lambda n: tree_t_family(3, n),
            "star with two edges subdivided",
        ),
        CatalogEntry(
            "broom3_n", "tree", ClosedFormPoly(1, -7, 18, 10, 5), long_broom,
            "center with n-4 leaves plus a pendant path of three edges",
        ),
        CatalogEntry(
            "C_3(n-3)", "unicyclic", ClosedFormPoly(1, -1, 4, 18, 4),
            lambda n: cycle_with_stars(3, [n - 3]),
            "triangle with n-3 pendant leaves at one vertex",
        ),
        CatalogEntry(
            "C_3(1,n-4)", "unicyclic", ClosedFormPoly(1, -4, 11, 38, 5),
            lambda n: cycle_with_stars(3, [1, n - 4]),
            "triangle with pendant stars of 1 and n-4 leaves",
        ),
        CatalogEntry(
            "C_3(T^1_{n-2})", "unicyclic", ClosedFormPoly(1, -4, 11, 20, 6),
            lambda n: cycle_with_attachments(3, [(0, _t_root_form(1, n - 2))]),
            "triangle carrying the broom T^1 on n-2 vertices at its center",
        ),
        CatalogEntry(
            "C_4(n-4)", "unicyclic", ClosedFormPoly(1, -4, 9, 28, 5),
            lambda n: cycle_with_stars(4, [n - 4]),
            "4-cycle with n-4 pendant leaves at one vertex",
        ),
        CatalogEntry(
            "C_3(2,n-5)", "unicyclic", ClosedFormPoly(1, -7, 24, 68, 6),
            lambda n: cycle_with_stars(3, [2, n - 5]),
            "triangle with pendant stars of 2 and n-5 leaves",
        ),
        CatalogEntry(
            "C_3(1,1,n-5)", "unicyclic", ClosedFormPoly(1, -7, 24, 48, 6),
            lambda n: cycle_with_stars(3, [1, 1, n - 5]),
            "triangle with pendant stars of 1, 1 and n-5 leaves",
        ),
        CatalogEntry(
            "C_3(T^2_{n-2})", "unicyclic", ClosedFormPoly(1, -7, 24, 26, 8),
            lambda n: cycle_with_attachments(3, [(0, _t_root_form(2, n - 2))]),
            "triangle carrying the broom T^2 on n-2 vertices at its center",
        ),
        CatalogEntry(
            "C_3(T^3_{n-2})", "unicyclic", ClosedFormPoly(1, -7, 24, 10, 7),
            lambda n: cycle_with_attachments(3, [(0, _t_root_form(3, n - 2))]),
            "triangle carrying the broom T^3 on n-2 vertices at its center",
        ),
        CatalogEntry(
            "C_3(3,n-6)", "unicyclic", ClosedFormPoly(1, -10, 43, 108, 7),
            lambda n: cycle_with_stars(3, [3, n - 6]),
            "triangle with pendant stars of 3 and n-6 leaves",
        ),
        CatalogEntry(
            "C_3(P_3,n-5)", "unicyclic", ClosedFormPoly(1, -7, 22, 40, 6),
            lambda n: cycle_with_attachments(3, [(0, path_form(2)), (1, n - 5)]),
            "triangle with a pendant 2-edge path at one vertex and n-5 leaves at another",
        ),
        CatalogEntry(
            "C_3(1,2,n-6)", "unicyclic", ClosedFormPoly(1, -10, 43, 62, 7),
            lambda n: cycle_with_stars(3, [1, 2, n - 6]),
            "triangle with pendant stars of 1, 2 and n-6 leaves",
        ),
        CatalogEntry(
            "C_4(T^1_{n-3})", "unicyclic", ClosedFormPoly(1, -7, 22, 20, 7),
            lambda n: cycle_with_attachments(4, [(0, _t_root_form(1, n - 3))]),
            "4-cycle carrying the broom T^1 on n-3 vertices at its center",
        ),
        CatalogEntry(
            "C_4(1,n-5)@alpha=1", "unicyclic", ClosedFormPoly(1, -7, 22, 38, 6),
            lambda n: cycle_with_stars(4, [1, n - 5]),
            "4-cycle with pendant stars of 1 and n-5 leaves at adjacent vertices",
        ),
        CatalogEntry(
            "C_5(n-5)", "unicyclic", ClosedFormPoly(1, -7, 20, 30, 6),
            lambda n: cycle_with_stars(5, [n - 5]),
            "5-cycle with n-5 pendant leaves at one vertex",
        ),
        # Found by exhaustive ranking: sits strictly between the C_3(1,1,n-5)
        # and C_3(T^2_{n-2}) rows at every order, so the eight-family chain
        # cannot hold as stated.
        CatalogEntry(
            "C_3(1,T^1_{n-3})", "unicyclic", ClosedFormPoly(1, -7, 24, 28, 7),
            lambda n: cycle_with_attachments(
                3, [(0, 1), (1, _t_root_form(1, n - 3))]
            ),
            "triangle with one pendant leaf and the broom T^1 on n-3 vertices",
        ),
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
    return entry.builder(n)
