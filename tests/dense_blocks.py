"""Test-only reference: the dense symmetry-adapted change of basis B^T (R A_i).

Builds every isotypic basis as a dense matrix from the character-weighted
projector applied to one representative per orbit, forms the rigidity
matrix, and multiplies.  :func:`extrig.symmetry.block_decompose` must agree
with it; it is the oracle, not a code path of the package.
"""
import numpy as np

from extrig.linalg import RANK_TOL, orthonormal_columns
from extrig.rigidity import EMPTY_PIN, rigidity_matrix
from extrig.symmetry import build_reps, character_matrix, decompose_character


def dense_basis(rep, irrep_index, tol=RANK_TOL) -> np.ndarray:
    """Orthonormal basis of one isotypic component, as a dense matrix."""
    chi = character_matrix(rep.elements)[irrep_index]
    n = rep.target.shape[1]
    index = np.arange(n)
    weight = chi[:, None] * rep.sign
    first = rep.target.min(axis=0) == index
    trivial = np.all((rep.target != index) | (weight > 0.0), axis=0)
    reps = np.flatnonzero(first & trivial)
    column = np.full(n, -1)
    column[reps] = np.arange(len(reps))
    proj = np.zeros((n, len(reps)))
    np.add.at(proj, (rep.target[:, reps], column[reps]), weight[:, reps])
    for c, (rows, cols, values) in zip(chi, rep.coupling):
        hit = column[cols] >= 0
        proj[rows[hit], column[cols[hit]]] += c * values[hit]
    basis = proj / np.linalg.norm(proj, axis=0)
    groups = np.split(np.arange(len(reps)), np.flatnonzero(np.diff(rep.block[reps])) + 1)
    return np.hstack([orthonormal_columns(basis[:, g], tol) if len(g) > 1 else basis[:, g]
                      for g in groups]) if len(reps) else basis


def dense_block_decompose(fw, pin=EMPTY_PIN, tol=RANK_TOL):
    """(blocks, off-diagonal residual, max |R|) from dense B^T (R A_i)."""
    reps = build_reps(fw, pin)
    rig = rigidity_matrix(fw, pin)
    mu = decompose_character(reps.internal.traces(), reps.elements)
    ext_bases = [dense_basis(reps.external, i, tol) for i in range(len(reps.elements))]
    b_mat = np.hstack([dense_basis(reps.internal, i, tol) for i in range(len(reps.elements))])
    row_block = np.repeat(np.arange(len(mu)), mu)
    blocks, resid = [], 0.0
    for i, a_i in enumerate(ext_bases):
        column = b_mat.T @ (rig.matrix @ a_i)
        blocks.append(column[row_block == i])
        resid = max(resid, float(np.abs(column[row_block != i]).max(initial=0.0)))
    return blocks, resid, np.abs(rig.matrix).max(initial=0.0)
