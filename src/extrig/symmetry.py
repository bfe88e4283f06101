"""Representation theory of the extrusion group Z2^t.

Both representations are held in permutation form (:class:`PermutationRep`):
element k sends basis vector j to ``sign[k, j]`` times basis vector
``target[k, j]``.  The external representation acts on the coordinates:
the vertex permutation of :meth:`PHGraph.permutation
<extrig.graphs.PHGraph.permutation>` tensor identity, all signs +1, plus on
each hyperplane block one ``-tau`` coupling row from the normal to the
offset.  The internal representation acts on the constraint rows: the
signed row permutations of :meth:`RowLayout.action
<extrig.rigidity.RowLayout.action>`.  Dense matrices are formed only on
indexing, for the intertwining check.

The rigidity matrix intertwines the two, which yields the block
decomposition.  Characters are read off the fixed indices, and each
isotypic basis is built one orbit at a time: the character-weighted
projector applied to one representative of each coordinate or row orbit
(Kangwai & Guest 2000; Schulze 2010).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frameworks import Framework, displacements, word_steps
from .graphs import subgroup_elements
from .linalg import (INT_TOL, RANK_TOL, SYMMETRY_TOL, nullspace, numeric_rank,
                     orthonormal_columns)
from .rigidity import (CoordinateIndex, EMPTY_PIN, PinningSpec, RigidityMatrix, RowLayout,
                       column_start, constraint_rows, rigidity_matrix)


class SymmetryPreconditionError(ValueError):
    """The block decomposition does not apply; pinning is required first."""


def active_elements(fw: Framework) -> list:
    if fw.extrusion is None:
        return [()] if fw.graph.extrusion_order == 0 else subgroup_elements(fw.graph.extrusion_order, ())
    return subgroup_elements(fw.extrusion.order, fw.extrusion.active)


def element_label(gamma, active=None) -> str:
    if active is not None:
        gamma = tuple(gamma[h] for h in active)
    return "".join(str(b) for b in gamma) if gamma else "()"


def character_matrix(elements) -> np.ndarray:
    """Irreducible character table: entry (i, j) = (-1)^<el_i, el_j>."""
    bits = np.array(elements, dtype=int).reshape(len(elements), -1)
    return (-1.0) ** (bits @ bits.T % 2)


def irreducible_characters(t: int) -> np.ndarray:
    """2^t x 2^t character table of Z2^t, elements in lexicographic order."""
    if t < 0:
        raise ValueError("group order parameter must be non-negative")
    return character_matrix(subgroup_elements(t, range(t)))


def character_of(matrices) -> np.ndarray:
    """Trace of each representation matrix, in element order."""
    return np.array([float(np.trace(m)) for m in matrices])


def decompose_character(char, elements, tol: float = INT_TOL) -> np.ndarray:
    """Multiplicities of the irreducibles in a character vector.

    Coefficients are (1/|G|) sum_gamma chi(gamma) rho_i(gamma); they must be
    integers up to ``tol`` or the representation is malformed.
    """
    char = np.asarray(char, dtype=float)
    table = character_matrix(elements)
    coeff = table @ char / len(elements)
    rounded = np.rint(coeff)
    if np.max(np.abs(coeff - rounded), initial=0.0) > tol:
        raise ValueError(f"character does not decompose integrally: {coeff}")
    return rounded.astype(int)


def _check_ph_hypothesis(fw: Framework, pin: PinningSpec, active):
    """Every extrusion-fixed hyperplane met by a ph edge must have its
    normal columns deleted, otherwise the rigidity matrix does not
    intertwine the representations."""
    if fw.extrusion is None:
        return
    removed = pin.full_hyperplanes | pin.parallel_only
    ph_incident = {w for _, w in fw.graph.edges_ph}
    offenders = []
    for h in active:
        for w in fw.graph.hyperplanes:
            if w.base in fw.extrusion.fixed_sets[h] and w in ph_incident and w not in removed:
                offenders.append((w, h))
    if offenders:
        names = ", ".join(f"{w} (direction {h})" for w, h in offenders)
        raise SymmetryPreconditionError(
            "point-hyperplane edges meet extrusion-fixed hyperplanes with live normal "
            f"columns: {names}; apply hyperplane_pinning first")


@dataclass(frozen=True, eq=False)
class PermutationRep:
    """A representation of the extrusion group in permutation form.

    Element k sends basis vector j to ``sign[k, j] * e[target[k, j]]`` plus,
    for the columns listed in ``coupling[k] = (rows, cols, values)``, the
    off-diagonal entries ``values`` in ``rows``.  ``block[j]`` groups the
    indices whose projected vectors overlap (the coordinates of one
    hyperplane vertex); every other index is a block of its own.  Indexing
    gives the dense matrix of one element.
    """

    elements: list
    target: np.ndarray    # (|G|, n) ints
    sign: np.ndarray      # (|G|, n) of +-1
    block: np.ndarray     # (n,) ints
    coupling: tuple = ()  # per element (rows, cols, values), or none at all

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, k) -> np.ndarray:
        n = self.target.shape[1]
        out = np.zeros((n, n))
        out[self.target[k], np.arange(n)] = self.sign[k]
        if self.coupling:
            rows, cols, values = self.coupling[k]
            out[rows, cols] = values
        return out

    def traces(self) -> np.ndarray:
        """Character: the signs of the fixed indices (coupling entries are off-diagonal)."""
        return np.where(self.target == np.arange(self.target.shape[1]), self.sign, 0.0).sum(axis=1)

    def restrict(self, keep, tol: float = INT_TOL) -> "PermutationRep":
        """The representation on the kept indices, which must span an invariant subspace."""
        leaks = (np.abs(values[~keep[rows] & keep[cols]]).max(initial=0.0)
                 for rows, cols, values in self.coupling)
        if np.any(keep[self.target] != keep) or max(leaks, default=0.0) > tol:
            raise ValueError("pinned coordinates are not invariant under the extrusion action")
        inside = np.cumsum(keep) - 1
        coupling = []
        for rows, cols, values in self.coupling:
            both = keep[rows] & keep[cols]
            coupling.append((inside[rows[both]], inside[cols[both]], values[both]))
        return PermutationRep(self.elements, inside[self.target[:, keep]], self.sign[:, keep],
                              self.block[keep], tuple(coupling))


def coordinate_action(fw: Framework, elements) -> PermutationRep:
    """The external representation on all coordinates, before pinning."""
    graph, d = fw.graph, fw.dim
    size, k = len(graph.vertices), len(graph.points)
    starts = column_start(graph, d, np.arange(size))
    vertex_of = np.repeat(np.arange(size), np.diff(starts, append=column_start(graph, d, size)))
    offset = np.arange(len(vertex_of)) - starts[vertex_of]
    rows = np.repeat(starts[k:] + d, d)
    steps = word_steps([w.word for w in graph.hyperplanes], graph.extrusion_order)
    target, coupling = [], []
    for gamma in elements:
        perm = graph.permutation(gamma)
        target.append(column_start(graph, d, perm)[vertex_of] + offset)
        if fw.extrusion is not None:
            cols = (column_start(graph, d, perm[k:])[:, None] + np.arange(d)).ravel()
            coupling.append((rows, cols, -displacements(fw.extrusion, steps, gamma).ravel()))
    # a point coordinate is its own block; a hyperplane's coordinates share one
    block = np.where(vertex_of < k, np.arange(len(vertex_of)), -1 - vertex_of)
    target = np.array(target).reshape(len(elements), -1)
    return PermutationRep(elements, target, np.ones(target.shape), block, tuple(coupling))


@dataclass
class RepBundle:
    """External and internal representations on the pinned spaces."""

    elements: list
    external: PermutationRep   # on the pinned coordinates
    internal: PermutationRep   # on the constraint rows
    index: CoordinateIndex
    row_labels: list


def build_reps(fw: Framework, pin: PinningSpec = EMPTY_PIN, tol: float = INT_TOL,
               check_symmetry: bool = True) -> RepBundle:
    """Both representations, restricted to the pinned coordinate/row spaces.

    Raises :class:`SymmetryPreconditionError` when the point-hyperplane
    hypothesis fails, and ValueError when the pinning is not compatible
    with the group action (deleted coordinates must form an invariant set)
    or when the configuration is not extrusion-symmetric.
    """
    elements = active_elements(fw)
    active = fw.extrusion.active if fw.extrusion is not None else ()
    if check_symmetry and fw.extrusion is not None:
        from .frameworks import verify_extrusion_symmetry

        check = verify_extrusion_symmetry(fw, tol=SYMMETRY_TOL, active_only=True)
        if not check.ok:
            first = check.violations[0]
            raise ValueError(f"framework is not extrusion-symmetric: {first[0]} at {first[1]}")
    _check_ph_hypothesis(fw, pin, active)
    index = CoordinateIndex(fw, pin)
    external = coordinate_action(fw, elements).restrict(index.keep, tol)
    rows = constraint_rows(fw.graph, fw.dim, pin)
    target, sign = map(np.array, zip(*RowLayout(fw.graph, fw.dim, rows).action(elements)))
    internal = PermutationRep(elements, target, sign, np.arange(len(rows)))
    return RepBundle(elements=elements, external=external, internal=internal,
                     index=index, row_labels=rows)


def intertwining_residual(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> float:
    """max over gamma of |R Ext(gamma) - Int(gamma) R| / |R| (max-abs norms).

    Evaluates on symmetry-broken configurations too; the residual is the
    detector.
    """
    reps = build_reps(fw, pin, check_symmetry=False)
    rig = rigidity_matrix(fw, pin)
    scale = np.abs(rig.matrix).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for ext, itn in zip(reps.external, reps.internal):
        worst = max(worst, float(np.abs(rig.matrix @ ext - itn @ rig.matrix).max(initial=0.0)))
    return worst / scale


# -- character table rows ----------------------------------------------------


def character_rows(fw: Framework, pin: PinningSpec = EMPTY_PIN):
    """Named character rows of the freedom and constraint representations.

    Bar-joint frameworks get the four classic rows; point-hyperplane
    frameworks get one row per summand.  All values are computed
    combinatorially from fixed vertices and fixed edges with flip signs.
    """
    elements = active_elements(fw)
    graph = fw.graph
    d = fw.dim
    index = CoordinateIndex(fw, pin)
    rows = constraint_rows(graph, d, pin)

    pos = graph.position
    perms = [graph.permutation(gamma) for gamma in elements]

    def fixed_sum(vertices, weights):
        at = np.array([pos[v] for v in vertices], dtype=int)
        weights = np.array(weights, dtype=int)
        return np.array([weights[perm[at] == at].sum() for perm in perms], dtype=float)

    def vertex_char(vertices, per_coord=True):
        coords = [int(index.keep[index.vertex_slice(v)].sum()) for v in vertices]
        return fixed_sum(vertices, coords if per_coord else [1 if c else 0 for c in coords])

    def edge_char(kind, signed, weight=1):
        labels = [lab for lab in rows if lab[0] == kind and (kind != "par" or lab[2] == 0)]
        ends = np.array([[pos[u], pos[v]] for _, (u, v), *_ in labels], dtype=int).reshape(-1, 2)
        out = []
        for gamma, perm in zip(elements, perms):
            fixed = np.flatnonzero((np.sort(perm[ends], axis=1) == ends).all(axis=1))
            out.append(sum((graph.edge_sign(gamma, labels[i][1]) if signed else 1) * weight
                           for i in fixed))
        return np.array(out, dtype=float)

    def norm_char():
        norms = [lab[1] for lab in rows if lab[0] == "norm"]
        return fixed_sum(norms, [1] * len(norms))

    named = []
    if fw.is_bar_joint():
        named.append(("chi(P_V)", vertex_char(graph.points, per_coord=False)))
        named.append((f"chi(P_V x I{d})", vertex_char(graph.points)))
        named.append(("chi(P'_E)", edge_char("pp", signed=True)))
        ext_total = named[1][1]
        int_total = named[2][1]
        trans_name = f"chi(P_V x I{d})^(T)"
    else:
        chi_vp = vertex_char(graph.points, per_coord=False)
        chi_vpd = vertex_char(graph.points)
        chi_vh = vertex_char(graph.hyperplanes)
        chi_pp = edge_char("pp", signed=True)
        chi_ph = edge_char("ph", signed=False)
        par_name = "chi(P'_E_HHpar)" if d == 2 else f"chi(P'_E_HHpar x I{d - 1})"
        chi_par = edge_char("par", signed=True, weight=d - 1)
        chi_angle = edge_char("angle", signed=False)
        chi_norm = norm_char()
        named.append(("chi(P_VP)", chi_vp))
        named.append((f"chi(P_VP x I{d})", chi_vpd))
        named.append(("chi(P'_VH)", chi_vh))
        named.append(("chi(P'_E_PP)", chi_pp))
        named.append(("chi(P_E_PH)", chi_ph))
        if graph.edges_hh_angle:
            named.append(("chi(P_E_HHangle)", chi_angle))
        named.append((par_name, chi_par))
        named.append(("chi(P_VH)", chi_norm))
        ext_total = chi_vpd + chi_vh
        int_total = chi_pp + chi_ph + chi_angle + chi_par + chi_norm
        trans_name = "chi(P'_V)^(T)"

    trans = translation_character(fw, pin)
    named.append((trans_name, trans))
    return named, ext_total, int_total, trans


def translation_character(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> np.ndarray:
    """Constant character of the surviving translation subrepresentation.

    A translation survives iff it vanishes on every pinned point coordinate
    and is tangent to every fully pinned hyperplane.
    """
    elements = active_elements(fw)
    d = fw.dim
    conditions = []
    point_set = set(fw.graph.points)
    for v, c in pin.coords:
        if v in point_set:
            row = np.zeros(d)
            row[c] = 1.0
            conditions.append(row)
        elif c == d:
            a, _ = fw.hyperplane(v)
            conditions.append(a.copy())
    for w in pin.full_hyperplanes:
        a, _ = fw.hyperplane(w)
        conditions.append(a.copy())
    dim = d - (numeric_rank(np.stack(conditions)) if conditions else 0)
    return np.full(len(elements), float(dim))


# -- block decomposition ------------------------------------------------------


def symmetry_adapted_basis(rep: PermutationRep, irrep_index: int, expected: int,
                           tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the isotypic component for one irreducible.

    The projector (1/|G|) sum_gamma chi_i(gamma) rho(gamma) is applied to one
    representative of each orbit only, at most |G| terms each.  An orbit
    contributes iff chi_i times the signs is trivial on the representative's
    stabilizer; its projected vector is then a signed orbit sum, normalised
    here.  The vectors of one hyperplane orbit share their support through
    the coupling rows and are orthonormalised together.  Different orbits
    have disjoint supports, so the columns are orthonormal.  ValueError when
    their number is not ``expected``.
    """
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
    if any(len(g) > 1 for g in groups):
        basis = np.hstack([orthonormal_columns(basis[:, g], tol) if len(g) > 1 else basis[:, g]
                           for g in groups])
    if basis.shape[1] != expected:
        raise ValueError(
            f"projection rank {basis.shape[1]} does not match character multiplicity {expected}")
    return basis


@dataclass
class BlockDecomposition:
    """Symmetry-adapted change of basis B^T R A and its diagonal blocks."""

    elements: list
    freedoms: np.ndarray        # lambda_i
    constraints: np.ndarray     # mu_i
    external_bases: list        # A_i, orthonormal columns in pinned coordinates
    internal_bases: list        # B_i
    blocks: list                # mu_i x lambda_i
    offdiag_residual: float
    rigidity: RigidityMatrix

    @property
    def block_shapes(self):
        return [b.shape for b in self.blocks]


def block_decompose(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                    tol: float = RANK_TOL) -> BlockDecomposition:
    reps = build_reps(fw, pin)
    rig = rigidity_matrix(fw, pin)
    lam = decompose_character(reps.external.traces(), reps.elements)
    mu = decompose_character(reps.internal.traces(), reps.elements)
    ext_bases = [symmetry_adapted_basis(reps.external, i, int(n), tol) for i, n in enumerate(lam)]
    int_bases = [symmetry_adapted_basis(reps.internal, i, int(n), tol) for i, n in enumerate(mu)]
    b_mat = np.hstack(int_bases)
    row_block = np.repeat(np.arange(len(mu)), mu)
    blocks = []
    resid = 0.0
    for i, a_i in enumerate(ext_bases):
        # B^T R A_i: block i, and in the other rows the off-diagonal entries
        column = b_mat.T @ (rig.matrix @ a_i)
        blocks.append(column[row_block == i])
        resid = max(resid, float(np.abs(column[row_block != i]).max(initial=0.0)))
    scale = np.abs(rig.matrix).max(initial=0.0)
    return BlockDecomposition(elements=reps.elements, freedoms=lam, constraints=mu,
                              external_bases=ext_bases, internal_bases=int_bases,
                              blocks=blocks, offdiag_residual=resid / scale if scale else resid,
                              rigidity=rig)


def symmetric_flexes(fw: Framework, pin: PinningSpec = EMPTY_PIN, irrep_index: int = 0,
                     tol: float = RANK_TOL, decomposition: BlockDecomposition = None) -> np.ndarray:
    """Full-coordinate kernel vectors of one diagonal block.

    Columns satisfy R v = 0 and Ext(gamma) v = rho_i(gamma) v; pinned
    coordinates are zero.
    """
    dec = decomposition if decomposition is not None else block_decompose(fw, pin, tol)
    kern = nullspace(dec.blocks[irrep_index], tol)
    return dec.rigidity.index.scatter(dec.external_bases[irrep_index] @ kern)


# -- mobility counts -----------------------------------------------------------


@dataclass
class MobilityReport:
    """Per-irreducible freedoms, translations, constraints, and net counts."""

    elements: list
    irrep_names: list
    char_rows: list              # (name, integer vector) pairs
    freedoms: np.ndarray         # lambda_i
    translations: np.ndarray     # nu_i
    constraints: np.ndarray      # mu_i
    nets: np.ndarray
    block_shapes: list
    offdiag_residual: float
    detected_flex_dims: dict     # irrep index -> kernel dimension of block
    detected_flexes: dict        # irrep index -> full-coordinate basis
    stress_dims: dict            # irrep index -> left kernel dimension
    caveats: list

    def summary(self) -> list:
        out = []
        for i, name in enumerate(self.irrep_names):
            net = int(self.nets[i])
            if net > 0:
                out.append(f"+{net} {name} flex" + ("es" if net > 1 else ""))
            elif net < 0:
                out.append(f"{-net} {name} stress" + ("es" if net < -1 else ""))
        return out or ["no symmetry-detected flexes or stresses"]


def fowler_guest_count(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                       tol: float = RANK_TOL) -> MobilityReport:
    """Symmetry-adapted mobility count.

    net_i = lambda_i - nu_i - mu_i.  A positive net guarantees that many
    independent infinitesimal motions of that symmetry beyond the surviving
    translations; a negative net guarantees self-stresses.  In the plane a
    detected motion is necessarily non-trivial; for d >= 3 a rotation may
    masquerade as one, which is flagged as a caveat.
    """
    named, ext_total, int_total, trans = character_rows(fw, pin)
    dec = block_decompose(fw, pin, tol)
    elements = dec.elements
    lam = decompose_character(ext_total, elements)
    mu = decompose_character(int_total, elements)
    nu = decompose_character(trans, elements)
    if not np.array_equal(lam, dec.freedoms) or not np.array_equal(mu, dec.constraints):
        raise AssertionError("combinatorial characters disagree with matrix traces")
    nets = lam - nu - mu
    active = fw.extrusion.active if fw.extrusion is not None else ()
    names = [("rho_" + element_label(g, active)) if len(elements) > 1 else "rho_0"
             for g in elements]
    flex_dims, flexes, stress_dims = {}, {}, {}
    for i, block in enumerate(dec.blocks):
        kern = nullspace(block, tol)
        flex_dims[i] = kern.shape[1]
        flexes[i] = dec.rigidity.index.scatter(dec.external_bases[i] @ kern)
        stress_dims[i] = block.shape[0] - (block.shape[1] - kern.shape[1])
    caveats = []
    if fw.dim >= 3:
        caveats.append("d >= 3: infinitesimal rotations are not subtracted; "
                       "detected motions may contain rotations")
    if not fw.is_bar_joint():
        caveats.append("point-hyperplane external representation is not unitary; "
                       "a symmetric flex may move parallel hyperplanes by unequal offsets")
    named_int = [(name, tuple(int(round(x)) for x in vec)) for name, vec in named]
    return MobilityReport(elements=elements, irrep_names=names, char_rows=named_int,
                          freedoms=lam, translations=nu, constraints=mu, nets=nets,
                          block_shapes=dec.block_shapes, offdiag_residual=dec.offdiag_residual,
                          detected_flex_dims=flex_dims, detected_flexes=flexes,
                          stress_dims=stress_dims, caveats=caveats)
