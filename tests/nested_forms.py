"""Nested-tuple reference for rooted forms, used by the tests only.

A form is the tuple of its child forms, largest (size, form) first; the
empty tuple is a single vertex.  The form registry's ids are checked
against this order, and class records are expanded to nested forms here
only: the library codes and builds them from their ids.
"""


def form_size(form):
    """Number of vertices in the rooted tree."""
    return 1 + sum(map(form_size, form))


def form_key(form):
    """Total order on forms: by size, then lexicographically."""
    return (form_size(form), form)


def nested_form(tables, fid):
    """The nested tuple of registry id fid; recursion depth is its size."""
    return tuple(nested_form(tables, c) for c in tables.children[fid])


def placements(record):
    """A class record as the (root, nested form) pairs record.graph() hangs.

    The beads from cycle positions 0..cycle-1; for a tree one form at the
    centroid, vertex 0, or for two centroids the first half at vertex 0 and
    the second below a new neighbour of it.  The record stream pins hash
    this expansion.
    """
    forms = [nested_form(record.tables, fid) for fid in record.ids]
    if record.cycle:
        return tuple(enumerate(forms))
    if record.halves:
        return ((0, forms[0]), (0, (forms[1],)))
    return ((0, tuple(forms)),)
