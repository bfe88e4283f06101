"""Test-only names for the columns of a :class:`~extrig.rigidity.CoordinateIndex`.

The package addresses columns by position alone; tests that name a column
by its vertex and coordinate read the label from here.
"""


def coordinate_labels(index, full: bool = False) -> list:
    """(vertex, coordinate) per kept column, in column order; per column of
    the full coordinate vector with ``full``."""
    graph, d = index.fw.graph, index.dim
    labels = [(v, c) for v in graph.vertices for c in range(d if graph.is_point(v) else d + 1)]
    return labels if full else [lab for lab, kept in zip(labels, index.keep) if kept]
