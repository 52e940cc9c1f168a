"""Nested-tuple reference for rooted forms, used by the tests only.

A form is the tuple of its child forms, largest (size, form) first; the
empty tuple is a single vertex.  The form registry's ids are checked
against this order.
"""


def form_size(form):
    """Number of vertices in the rooted tree."""
    return 1 + sum(map(form_size, form))


def form_key(form):
    """Total order on forms: by size, then lexicographically."""
    return (form_size(form), form)
