"""Test-only reference: the blocks of an unpinned bar-joint extrusion in closed form.

Block chi_S of the extrusion of a base framework along tau_1 .. tau_t is the
orbit rigidity matrix [R_base ; sqrt(2) D_S] (Schulze & Whiteley 2011;
Kangwai & Guest 2000): the base framework's rigidity matrix over one row per
base point v and direction h in S, tau_h at v's columns.  S holds the
directions the irreducible negates, the 1 bits of its element.  The blocks
are built from the base framework and the directions alone, never from the
extruded framework, and agree with :func:`extrig.symmetry.block_decompose`
up to the order and signs of the rows.
"""
import numpy as np

from extrig.graphs import group_elements
from extrig.rigidity import rigidity_matrix


def closed_blocks(base, directions) -> list:
    """Per element of Z2^t in lexicographic order, the block [R_base ; sqrt(2) D_S]."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    r_base = rigidity_matrix(base).matrix
    at_each_point = np.eye(len(base.graph.points))
    out = []
    for gamma in group_elements(len(directions)):
        rows = [np.sqrt(2.0) * np.kron(at_each_point, directions[h]) for h in np.flatnonzero(gamma)]
        out.append(np.vstack([r_base] + rows))
    return out
