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
decomposition (Kangwai & Guest 2000; Schulze 2010), assembled from orbits.
Characters are read off the fixed indices.  The isotypic bases of all
irreducibles are found in one pass over the orbits (:class:`OrbitBases`):
each column is the character-weighted signed sum over one orbit, scaled by
1/sqrt(|orbit|), and is held by its nonzeros.  Block i is then read off the
representative rows: its row for a row orbit is sqrt(|orbit|) times the
representative row, whose at most 2(d+1) nonzeros come from the row table,
times the orbit sums of A_i; this is the orbit rigidity matrix of Schulze &
Whiteley (2011) per irreducible.  Neither R nor a basis is formed densely;
vectors are scattered to full coordinates only where a caller reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frameworks import Framework, displacements, word_steps
from .graphs import subgroup_elements
from .linalg import (INT_TOL, RANK_TOL, SYMMETRY_TOL, nullspace, numeric_rank,
                     orthonormal_columns)
from .rigidity import (CoordinateIndex, EMPTY_PIN, PinningSpec, RowLayout, column_start,
                       live_contracted_hyperplanes, rigidity_matrix)


class SymmetryPreconditionError(ValueError):
    """The block decomposition does not apply to this framework as it stands.

    ``hint`` names the remedy when there is one (a pinning to apply first).
    """

    def __init__(self, message: str, hint: str = None):
        super().__init__(message)
        self.hint = hint


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


def decompose_character(char, elements) -> np.ndarray:
    """Multiplicities of the irreducibles in a character vector.

    Coefficients are (1/|G|) sum_gamma chi(gamma) rho_i(gamma); they must be
    integers up to ``INT_TOL`` or the representation is malformed.
    """
    char = np.asarray(char, dtype=float)
    table = character_matrix(elements)
    coeff = table @ char / len(elements)
    rounded = np.rint(coeff)
    if np.max(np.abs(coeff - rounded), initial=0.0) > INT_TOL:
        raise ValueError(f"character does not decompose integrally: {coeff}")
    return rounded.astype(int)


def _check_ph_hypothesis(fw: Framework, pin: PinningSpec, active):
    """Every extrusion-fixed hyperplane met by a ph edge must have its
    normal columns deleted, otherwise the rigidity matrix does not
    intertwine the representations."""
    if fw.extrusion is None:
        return
    offenders = live_contracted_hyperplanes(fw, pin, active)
    if offenders:
        names = ", ".join(f"{w} (direction {h})" for w, h in offenders)
        raise SymmetryPreconditionError(
            "point-hyperplane edges meet extrusion-fixed hyperplanes with live normal "
            f"columns: {names}; apply hyperplane_pinning first",
            hint="extrig pin --mode hyperplane <document> restores the block structure")


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

    def restrict(self, keep) -> "PermutationRep":
        """The representation on the kept indices, which must span an invariant subspace."""
        leaks = (np.abs(values[~keep[rows] & keep[cols]]).max(initial=0.0)
                 for rows, cols, values in self.coupling)
        if np.any(keep[self.target] != keep) or max(leaks, default=0.0) > INT_TOL:
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
        if fw.extrusion is not None and graph.hyperplanes:
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
    layout: RowLayout          # the constraint rows


def build_reps(fw: Framework, pin: PinningSpec = EMPTY_PIN,
               check_symmetry: bool = True) -> RepBundle:
    """Both representations, restricted to the pinned coordinate/row spaces.

    Raises :class:`SymmetryPreconditionError` when the configuration is
    not extrusion-symmetric or the point-hyperplane hypothesis fails, and
    ValueError when the pinning is not compatible with the group action
    (deleted coordinates must form an invariant set).
    """
    elements = active_elements(fw)
    active = fw.extrusion.active if fw.extrusion is not None else ()
    if check_symmetry and fw.extrusion is not None:
        from .frameworks import verify_extrusion_symmetry

        check = verify_extrusion_symmetry(fw, tol=SYMMETRY_TOL, active_only=True)
        if not check.ok:
            first = check.violations[0]
            raise SymmetryPreconditionError(
                f"framework is not extrusion-symmetric: {first[0]} at {first[1]}")
    _check_ph_hypothesis(fw, pin, active)
    index = CoordinateIndex(fw, pin)
    external = coordinate_action(fw, elements).restrict(index.keep)
    layout = RowLayout(fw.graph, fw.dim, pin)
    target, sign = map(np.array, zip(*layout.action(elements)))
    internal = PermutationRep(elements, target, sign, np.arange(layout.shape[0]))
    return RepBundle(elements=elements, external=external, internal=internal,
                     index=index, layout=layout)


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


def character_rows(fw: Framework, reps: RepBundle):
    """Named character rows of the freedom and constraint representations.

    Bar-joint frameworks get the four classic rows; point-hyperplane
    frameworks get one row per summand.  All values are counted from the
    vertex permutations, never from the representations: fixed vertices
    weighted by their coordinates kept in ``reps.index``, and the rows of
    ``reps.layout`` whose ends are fixed as a set, with their signs.
    """
    graph, d, layout = fw.graph, fw.dim, reps.layout
    size, n = len(graph.vertices), len(graph.points)
    perms = np.array([graph.permutation(gamma) for gamma in reps.elements])
    signs = np.array([layout.sign(gamma) for gamma in reps.elements])
    fixed = perms == np.arange(size)
    kept = np.concatenate([[0], np.cumsum(reps.index.keep)])
    coords = np.diff(kept[column_start(graph, d, np.arange(size + 1))])

    def vertex_char(at, per_coord=True):
        weights = coords[at] if per_coord else coords[at] > 0
        return (fixed[:, at] * weights).sum(axis=1).astype(float)

    def row_char(kind):
        if kind not in layout.groups:
            return np.zeros(len(perms))
        _, where, positions, *_ = layout.groups[kind]
        still = (np.sort(perms[:, positions], axis=1) == positions).all(axis=1)
        return np.where(still, signs[:, where], 0.0).sum(axis=1)

    points, hyperplanes = slice(0, n), slice(n, size)
    named = []
    if fw.is_bar_joint():
        named.append(("chi(P_V)", vertex_char(points, per_coord=False)))
        named.append((f"chi(P_V x I{d})", vertex_char(points)))
        named.append(("chi(P'_E)", row_char("pp")))
        ext_total = named[1][1]
        int_total = named[2][1]
        trans_name = f"chi(P_V x I{d})^(T)"
    else:
        chi = {kind: row_char(kind) for kind in ("pp", "ph", "angle", "par", "norm")}
        named.append(("chi(P_VP)", vertex_char(points, per_coord=False)))
        named.append((f"chi(P_VP x I{d})", vertex_char(points)))
        named.append(("chi(P'_VH)", vertex_char(hyperplanes)))
        named += [("chi(P'_E_PP)", chi["pp"]), ("chi(P_E_PH)", chi["ph"])]
        if graph.edges_hh_angle:
            named.append(("chi(P_E_HHangle)", chi["angle"]))
        par_name = "chi(P'_E_HHpar)" if d == 2 else f"chi(P'_E_HHpar x I{d - 1})"
        named += [(par_name, chi["par"]), ("chi(P_VH)", chi["norm"])]
        ext_total = named[1][1] + named[2][1]
        int_total = chi["pp"] + chi["ph"] + chi["angle"] + chi["par"] + chi["norm"]
        trans_name = "chi(P'_V)^(T)"

    trans = translation_character(fw, reps.index.pin)
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


@dataclass(frozen=True, eq=False)
class IsotypicBasis:
    """Orthonormal basis of one isotypic component, held by its nonzeros:
    entry k puts ``value[k]`` in row ``index[k]`` of column ``column[k]``."""

    shape: tuple
    index: np.ndarray
    column: np.ndarray
    value: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.index, self.column] = self.value
        return out

    def __matmul__(self, coeff) -> np.ndarray:
        """The basis times a coefficient vector or matrix, without forming the basis."""
        coeff = np.asarray(coeff, dtype=float)
        out = np.zeros(self.shape[:1] + coeff.shape[1:])
        np.add.at(out, self.index, self.value.reshape((-1,) + (1,) * (coeff.ndim - 1))
                  * coeff[self.column])
        return out


@dataclass(frozen=True, eq=False)
class OrbitBases:
    """The isotypic bases of one representation for every irreducible, by orbits.

    Orbits are numbered by their smallest index, the representative.  Element
    ``slot[j]`` takes the representative of index j to j, with sign
    ``weight[j]``.  Orbit o gives basis i the column ``orbit_column[i, o]``
    (-1 when it does not contribute): the signed orbit sum with entries
    chi_i(slot) * weight / sqrt(|orbit|).  Entry k of ``irrep``, ``index``,
    ``column`` and ``value`` is a nonzero of basis ``irrep[k]``, by basis and
    then by index.  The entries differ from the orbit sums only on
    hyperplane coordinates: there a column carries the coupling rows, and the
    columns of one hyperplane orbit (one ``group``) are orthonormalised
    together.
    """

    table: np.ndarray           # character table, irreducible by element
    representative: np.ndarray  # (orbits,)
    orbit: np.ndarray           # (n,)
    slot: np.ndarray            # (n,)
    weight: np.ndarray          # (n,)
    size: np.ndarray            # (orbits,)
    group: np.ndarray           # (orbits,)
    orbit_column: np.ndarray    # (irreducibles, orbits)
    irrep: np.ndarray
    index: np.ndarray
    column: np.ndarray
    value: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return (self.orbit_column >= 0).sum(axis=1)

    def __len__(self) -> int:
        return len(self.orbit_column)

    def __getitem__(self, i) -> IsotypicBasis:
        if not 0 <= i < len(self):
            raise IndexError(i)
        lo, hi = np.searchsorted(self.irrep, [i, i + 1])
        return IsotypicBasis((len(self.orbit), int(self.widths[i])), self.index[lo:hi],
                             self.column[lo:hi], self.value[lo:hi])

    @cached_property
    def _by_index(self):
        order = np.argsort(self.index, kind="stable")
        return order, np.searchsorted(self.index[order], np.arange(len(self.orbit) + 1))

    def entries_at(self, index):
        """``(p, k)`` pairs: entry k of some basis lies in row ``index[p]``."""
        order, start = self._by_index
        count = start[index + 1] - start[index]
        p = np.repeat(np.arange(len(index)), count)
        shift = np.repeat(np.cumsum(count) - count - start[index], count)
        return p, order[np.arange(len(p)) - shift]


def _orthonormal_orbits(entries, orbit_column, group, n, tol):
    """Sum the entries that share a basis, row and column, normalise every
    column, and orthonormalise the columns of each hyperplane orbit together
    (ValueError when they lose rank).  Entries come back by basis, then row."""
    irrep, index, column, value = entries
    widths = (orbit_column >= 0).sum(axis=1)
    offsets = np.cumsum(widths) - widths
    key, inverse = np.unique((offsets[irrep] + column) * n + index, return_inverse=True)
    value = np.bincount(inverse.reshape(-1), value)
    glob, index = np.divmod(key, n)
    value = value / np.sqrt(np.bincount(glob, value * value))[glob]
    keep, new = np.ones(len(key), dtype=bool), []
    for i, start in enumerate(offsets):
        g = group[orbit_column[i] >= 0]
        for run in np.split(np.arange(len(g)), np.flatnonzero(np.diff(g)) + 1):
            if len(run) < 2:
                continue
            inside = (glob >= start + run[0]) & (glob <= start + run[-1])
            support, at = np.unique(index[inside], return_inverse=True)
            mat = np.zeros((len(support), len(run)))
            mat[at.reshape(-1), glob[inside] - start - run[0]] = value[inside]
            basis = orthonormal_columns(mat, tol)
            if basis.shape[1] < len(run):
                raise ValueError(f"projection rank {basis.shape[1]} of a hyperplane orbit "
                                 f"does not match its {len(run)} orbits")
            keep &= ~inside
            new.append((np.full(basis.size, i), np.repeat(support, len(run)),
                        np.tile(run, len(support)), basis.ravel()))
    irrep = np.searchsorted(offsets, glob, side="right") - 1
    old = (irrep[keep], index[keep], glob[keep] - offsets[irrep[keep]], value[keep])
    irrep, index, column, value = map(np.concatenate, zip(old, *new))
    order = np.lexsort((index, irrep))
    return irrep[order], index[order], column[order], value[order]


def symmetry_adapted_basis(rep: PermutationRep, expected, tol: float = RANK_TOL) -> OrbitBases:
    """Orthonormal bases of the isotypic components of every irreducible.

    One pass over the orbits serves all irreducibles: the character table
    of Z2^t is a Sylvester-Hadamard matrix, and its product with the signs
    on each representative's stabilizer tells which irreducibles an orbit
    contributes to (chi_i times the signs trivial on the stabilizer).  The
    projector (1/|G|) sum_gamma chi_i(gamma) rho(gamma) maps the
    representative to the signed orbit sum, plus the coupling rows on a
    hyperplane orbit.  Different orbits have disjoint supports, so the
    columns are orthonormal.  ValueError when the number of columns of basis
    i is not ``expected[i]``.
    """
    n = rep.target.shape[1]
    first = rep.target.min(axis=0)
    reps = np.flatnonzero(first == np.arange(n))
    orbit = np.searchsorted(reps, first)
    members = rep.target[:, reps]
    fixed = members == reps
    stabilizer = fixed.sum(axis=0)
    table = character_matrix(rep.elements)
    trivial = table @ np.where(fixed, rep.sign[:, reps], 0.0) == stabilizer
    for width, want in zip(trivial.sum(axis=1), expected):
        if width != want:
            raise ValueError(
                f"projection rank {width} does not match character multiplicity {want}")
    orbit_column = np.where(trivial, np.cumsum(trivial, axis=1) - 1, -1)
    size = len(rep) // stabilizer
    slot = np.empty(n, dtype=np.intp)
    slot[members] = np.arange(len(rep))[:, None]
    weight = rep.sign[slot, first]
    irrep, index = np.nonzero(trivial[:, orbit])
    value = table[irrep, slot[index]] * weight[index] / np.sqrt(size[orbit[index]])
    entries = (irrep, index, orbit_column[irrep, orbit[index]], value)
    group = np.unique(rep.block[reps], return_inverse=True)[1].reshape(-1)
    if rep.coupling:
        # the projector of a normal coordinate also reaches the offsets:
        # sum_gamma chi_i(gamma) times the coupling entries in its column
        extra = [entries]
        for k, (rows, cols, values) in enumerate(rep.coupling):
            at = reps[orbit[cols]] == cols
            rows, o, values = rows[at], orbit[cols[at]], values[at]
            i, e = np.nonzero(trivial[:, o])
            extra.append((i, rows[e], orbit_column[i, o[e]],
                          table[i, k] * values[e] / (stabilizer[o[e]] * np.sqrt(size[o[e]]))))
        entries = _orthonormal_orbits(map(np.concatenate, zip(*extra)), orbit_column, group,
                                      n, tol)
    return OrbitBases(table, reps, orbit, slot, weight, size, group, orbit_column, *entries)


@dataclass
class BlockDecomposition:
    """Symmetry-adapted change of basis B^T R A and its diagonal blocks."""

    reps: RepBundle             # the representations, index and rows it was built from
    freedoms: np.ndarray        # lambda_i
    constraints: np.ndarray     # mu_i
    external_bases: OrbitBases  # A_i, orthonormal columns in pinned coordinates
    internal_bases: OrbitBases  # B_i
    blocks: list                # mu_i x lambda_i
    offdiag_residual: float

    @property
    def block_shapes(self):
        return [b.shape for b in self.blocks]


def block_decompose(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                    tol: float = RANK_TOL) -> BlockDecomposition:
    """The diagonal blocks B_i^T R A_i, read off the representative rows.

    R intertwines the representations and B_i holds one signed orbit sum per
    row orbit, so block i's row for orbit r is sqrt(|r|) times the
    representative row of r, times A_i: the orbit rigidity matrix of each
    irreducible (Schulze & Whiteley 2011).  R, A_i and B_i are never formed;
    each representative row has at most 2(d+1) nonzeros.  The off-diagonal
    residual max |B_j^T R A_i| (j != i) / max |R| is evaluated from the
    nonzeros of all rows (:func:`_offdiag_residual`).
    """
    reps = build_reps(fw, pin)
    lam = decompose_character(reps.external.traces(), reps.elements)
    mu = decompose_character(reps.internal.traces(), reps.elements)
    ext = symmetry_adapted_basis(reps.external, lam, tol)
    itn = symmetry_adapted_basis(reps.internal, mu, tol)
    row, col, value = reps.layout.nonzeros(fw.config.points, fw.config.hyperplanes)
    kept = reps.index.keep[col]
    row, col, value = row[kept], (np.cumsum(reps.index.keep) - 1)[col[kept]], value[kept]

    on_rep = itn.representative[itn.orbit[row]] == row
    p, k = ext.entries_at(col[on_rep])
    orbit, irrep = itn.orbit[row[on_rep]][p], ext.irrep[k]
    at = itn.orbit_column[irrep, orbit]
    hit = at >= 0
    offsets = np.concatenate([[0], np.cumsum(mu * lam)])
    filled = np.bincount((offsets[irrep] + at * lam[irrep] + ext.column[k])[hit],
                         (np.sqrt(itn.size[orbit]) * value[on_rep][p] * ext.value[k])[hit],
                         minlength=offsets[-1])
    blocks = [filled[offsets[i]:offsets[i + 1]].reshape(mu[i], lam[i]) for i in range(len(lam))]
    scale = np.abs(value).max(initial=0.0)
    resid = _offdiag_residual(ext, itn, row, col, value)
    return BlockDecomposition(reps=reps, freedoms=lam, constraints=mu,
                              external_bases=ext, internal_bases=itn, blocks=blocks,
                              offdiag_residual=resid / scale if scale else resid)


def _offdiag_residual(ext: OrbitBases, itn: OrbitBases, row, col, value) -> float:
    """max |B_j^T R A_i| over j != i, from the nonzeros of R.

    A row orbit together with a group of coordinate orbits that its rows
    meet is a tile; the tile's columns are the group's columns of every A_i.
    Each product of a nonzero of R with a basis entry lands in its row's
    slot, and one product with the character table sums the slots into
    B_j^T R A_i for every j at once.
    """
    widths = ext.widths
    first_of = np.cumsum(widths) - widths          # first column of A_i among all columns
    glob = first_of[ext.irrep] + ext.column        # the column of each entry among all
    col_group = np.empty(int(widths.sum()), dtype=np.intp)
    col_group[glob] = ext.group[ext.orbit[ext.index]]
    by_group = np.argsort(col_group, kind="stable")
    group_width = np.bincount(col_group, minlength=int(ext.group.max(initial=-1)) + 1)
    group_first = np.cumsum(group_width) - group_width
    local = np.empty_like(by_group)
    local[by_group] = np.arange(len(by_group)) - np.repeat(group_first, group_width)

    groups = len(group_width)
    tiles, tile = np.unique(itn.orbit[row] * groups + ext.group[ext.orbit[col]],
                            return_inverse=True)
    tile_group = tiles % groups
    tile_width = group_width[tile_group]
    tile_first = np.cumsum(tile_width) - tile_width
    total = int(tile_width.sum())
    p, k = ext.entries_at(col)
    rows = row[p]
    at = itn.slot[rows] * total + tile_first[tile.reshape(-1)[p]] + local[glob[k]]
    slots = np.bincount(at, itn.weight[rows] * value[p] * ext.value[k],
                        minlength=len(itn.table) * total).reshape(len(itn.table), total)
    summed = itn.table @ slots
    # per tile column: the row orbit, and the irreducible of the column of A
    orbit = np.repeat(tiles // groups, tile_width)
    column = by_group[np.repeat(group_first[tile_group] - tile_first, tile_width) + np.arange(total)]
    irrep = np.searchsorted(first_of, column, side="right") - 1
    off = (itn.orbit_column[:, orbit] >= 0) & (np.arange(len(itn.table))[:, None] != irrep)
    return float((np.abs(summed) * off / np.sqrt(itn.size[orbit])).max(initial=0.0))


def symmetric_flexes(fw: Framework, pin: PinningSpec = EMPTY_PIN, irrep_index: int = 0,
                     tol: float = RANK_TOL) -> np.ndarray:
    """Full-coordinate kernel vectors of one diagonal block.

    Columns satisfy R v = 0 and Ext(gamma) v = rho_i(gamma) v; pinned
    coordinates are zero.
    """
    dec = block_decompose(fw, pin, tol)
    kern = nullspace(dec.blocks[irrep_index], tol)
    return dec.reps.index.scatter(dec.external_bases[irrep_index] @ kern)


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
    dec = block_decompose(fw, pin, tol)
    named, ext_total, int_total, trans = character_rows(fw, dec.reps)
    elements = dec.reps.elements
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
        flexes[i] = dec.reps.index.scatter(dec.external_bases[i] @ kern)
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
