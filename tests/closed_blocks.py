"""Test-only reference: the blocks of an unpinned bar-joint extrusion in closed form.

Block chi_S of the extrusion of a base framework along tau_1 .. tau_t is the
orbit rigidity matrix [R_base ; sqrt(2) D_S] (Schulze & Whiteley 2011;
Kangwai & Guest 2000): the base framework's rigidity matrix over one row per
base point v and direction h in S, tau_h at v's columns.  S holds the
directions the irreducible negates, the 1 bits of its element.  The blocks
are built from the base framework and the directions alone, never from the
extruded framework, and agree with :func:`extrig.symmetry.block_decompose`
up to the order and signs of the rows.

The copy-row table and the certificate of the copy-0 path are also read
back here from the dense all-directions block alone, by a search of each
copy row for its copy-0 point (:func:`copy_rows_of_block`,
:func:`block_certificate`).
"""
import numpy as np

from extrig.graphs import group_elements
from extrig.linalg import CERTIFICATE_SAFETY
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


def copy_rows_of_block(block, copies, t, width):
    """The copy-row table read back from the dense all-directions block:
    per copy-0 point, label j and width columns, the row of the copy edge
    across 2^j (``copies`` per row orbit, 0 for a base edge) found by a
    search for its one nonzero column group; None when a copy row is zero
    or meets two groups."""
    label = np.frexp(copies)[1] - 1
    at = np.flatnonzero(label >= 0)
    cells = block[at].reshape(len(at), block.shape[1] // width, width)
    row, group = np.nonzero(cells.any(axis=2))
    if not np.array_equal(row, np.arange(len(at))):
        return None
    table = np.zeros((cells.shape[1], t, width))
    table[group, label[at]] = cells[row, group]
    return table


def block_certificate(block, copies, t, width, tol, shape):
    """Per subset of the t directions, the full-column-rank verdict read off
    the dense all-directions block: the copy rows of :func:`copy_rows_of_block`
    (nothing certified when it finds none), their mean per label and spread,
    and the Weyl bound against ``CERTIFICATE_SAFETY`` times max(tol, eps) *
    max(shape) * |block|_F, with every subset built by hand."""
    table = copy_rows_of_block(block, copies, t, width)
    masks = np.arange(2 ** t)[:, None] >> np.arange(t) & 1
    if table is None or t < width:
        return np.zeros(len(masks), dtype=bool)
    mean = table.sum(axis=0) / len(table)
    spread = np.sqrt(np.max(((table - mean) ** 2).sum(axis=(1, 2))))
    sigma = np.linalg.svd(mean * masks[:, :, None], compute_uv=False)[:, width - 1]
    cut = max(tol, np.finfo(float).eps) * max(shape)
    bound = CERTIFICATE_SAFETY * cut * np.linalg.norm(block)
    return (masks.sum(axis=1) >= width) & (sigma - spread > bound)
