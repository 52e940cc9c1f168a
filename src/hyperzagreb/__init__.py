"""Exact Hyper-Zagreb index toolkit for trees and unicyclic graphs."""

from .canon import canonical_code
from .codec import decode_graph6, encode_graph6, format_edgelist, parse_edgelist
from .families import (
    CATALOG,
    ClosedFormPoly,
    Core,
    build_catalog_member,
    cycle_star_hm,
    cycle_with_stars,
    path,
)
from .enumeration import ClassRecord, labeled_oracle, trees, unicyclic_graphs
from .graphs import (
    Graph,
    ZagrebIndices,
    classical_indices,
    hyper_zagreb,
    is_connected,
    is_tree,
    is_unicyclic,
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
    verify_trees,
    verify_unicyclic,
)

__version__ = "0.1.0"
