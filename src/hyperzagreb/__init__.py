"""Exact Hyper-Zagreb index toolkit for trees and unicyclic graphs."""

from .canon import canonical_code
from .codec import decode_graph6, encode_graph6, parse_edgelist
from .families import (
    CATALOG,
    ClosedFormPoly,
    Core,
    build_catalog_member,
    cycle_star_hm,
    cycle_with_stars,
)
from .enumeration import ClassRecord, labeled_oracle, trees, unicyclic_graphs
from .graphs import (
    Graph,
    ZagrebIndices,
    classical_indices,
    hyper_zagreb,
    make_graph,
)
from .transforms import (
    coalesce,
    join_vs_identify,
    reduce_to_single_attachment,
)
from .verify import (
    closed_form_audit,
    discover_tree_threshold,
    lemma_suite,
    rank,
    verify_class,
)

__version__ = "0.1.0"
