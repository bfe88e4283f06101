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

An unpinned bar-joint extrusion needs neither representation, nor a row
layout or coordinate index: every orbit is free, so block chi_S is
[R_base ; sqrt(2) D_S], filled from the base edges and the copy edges at
its copy-0 points (:func:`copy_zero_rows`), and a kernel vector x_v lifts
to chi_S(w) x_v / 2^{t/2} on copy w.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frameworks import Framework, displacements, symmetry_violations
from .graphs import subgroup_elements
from .linalg import (INT_TOL, RANK_TOL, SYMMETRY_TOL, full_column_rank, kernel_and_scale,
                     nullspace, numeric_rank, orthonormal_columns, rank_and_scale)
from .rigidity import (CoordinateIndex, EMPTY_PIN, ROW_KINDS, PinningSpec, RowLayout,
                       column_start, live_contracted_hyperplanes, rigidity_matrix)


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
    """Multiplicities of the irreducibles in a character vector, or in each
    row of a stack of them, read against one character table.

    Coefficients are (1/|G|) sum_gamma chi(gamma) rho_i(gamma); they must be
    integers up to ``INT_TOL`` or the representation is malformed.
    """
    return _multiplicities(char, character_matrix(elements))


def _multiplicities(char, table) -> np.ndarray:
    """:func:`decompose_character` against a character table already built."""
    coeff = np.asarray(char, dtype=float) @ table.T / len(table)
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


def check_extrusion_symmetry(fw: Framework):
    """The symmetry gate: :class:`SymmetryPreconditionError`, naming the first
    violation :func:`~extrig.frameworks.verify_extrusion_symmetry` finds among
    the active elements at ``SYMMETRY_TOL``, read without building its report
    (nothing to check without an extrusion spec)."""
    violations = (symmetry_violations(fw, SYMMETRY_TOL, active_only=True)[1]
                  if fw.extrusion is not None else ())
    if violations:
        law, where, _ = violations[0]
        raise SymmetryPreconditionError(f"framework is not extrusion-symmetric: {law} at {where}")


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
            raise SymmetryPreconditionError(
                "pinned coordinates are not invariant under the extrusion action")
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
    steps = graph.steps[k:]
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
    """The group elements of a (pinned) framework; its coordinate index,
    constraint rows, character table, both representations and their
    isotypic bases are built on first read."""

    fw: Framework
    elements: list
    pin: PinningSpec = EMPTY_PIN

    @cached_property
    def index(self) -> CoordinateIndex:
        return CoordinateIndex(self.fw, self.pin)

    @cached_property
    def layout(self) -> RowLayout:
        return RowLayout(self.fw.graph, self.fw.dim, self.pin)

    @cached_property
    def _table(self) -> np.ndarray:
        return character_matrix(self.elements)

    @cached_property
    def external(self) -> PermutationRep:
        """On the pinned coordinates."""
        return coordinate_action(self.fw, self.elements).restrict(self.index.keep)

    @cached_property
    def internal(self) -> PermutationRep:
        """On the constraint rows."""
        target, sign = map(np.array, zip(*self.layout.action(self.elements)))
        return PermutationRep(self.elements, target, sign, np.arange(self.layout.shape[0]))

    @cached_property
    def external_bases(self) -> OrbitBases:
        """A_i, orthonormal columns in pinned coordinates."""
        rep = self.external
        return symmetry_adapted_basis(rep, decompose_character(rep.traces(), self.elements))

    @cached_property
    def internal_bases(self) -> OrbitBases:
        """B_i, on the constraint rows."""
        rep = self.internal
        return symmetry_adapted_basis(rep, decompose_character(rep.traces(), self.elements))


def build_reps(fw: Framework, pin: PinningSpec = EMPTY_PIN,
               check_symmetry: bool = True) -> RepBundle:
    """Both representations, restricted to the pinned coordinate/row spaces.

    Raises :class:`SymmetryPreconditionError` when the configuration is
    not extrusion-symmetric, the point-hyperplane hypothesis fails, or the
    pinning is not compatible with the group action (deleted coordinates
    must form an invariant set).
    """
    elements = active_elements(fw)
    active = fw.extrusion.active if fw.extrusion is not None else ()
    if check_symmetry:
        check_extrusion_symmetry(fw)
    _check_ph_hypothesis(fw, pin, active)
    reps = RepBundle(fw, elements, pin)
    reps.index, reps.external, reps.internal   # raise here when the pinning or a row breaks the action
    return reps


def intertwining_residual(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> float:
    """max over gamma of |R Ext(gamma) - Int(gamma) R| / |R| (max-abs norms).

    Evaluates on symmetry-broken configurations too; the residual is the
    detector.
    """
    reps = build_reps(fw, pin, check_symmetry=False)
    rig = rigidity_matrix(fw, pin)
    scale = np.abs(rig.matrix).max(initial=0.0)
    worst = max((float(np.abs(rig.matrix @ ext - itn @ rig.matrix).max(initial=0.0))
                 for ext, itn in zip(reps.external, reps.internal)), default=0.0)
    return worst / scale if scale else 0.0


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

    trans = translation_character(fw, reps.pin)
    named.append((trans_name, trans))
    return named, ext_total, int_total, trans


def _copy_zero_characters(fw: Framework, bit):
    """:func:`character_rows` of a framework :func:`copy_zero_rows` accepts, in
    closed form from the row orbits' ``bit``: no element but the identity fixes
    a point, e_h fixes only the copy edges across h, 2^{t-1} per orbit, each
    with sign -1, and every translation survives."""
    d, count = fw.dim, 2 ** fw.graph.extrusion_order
    points, trans = np.zeros(count), np.full(count, float(d))
    edges = (-(count // 2) * np.bincount(bit, minlength=count)).astype(float)
    points[0], edges[0] = len(fw.graph.points), len(fw.graph.edges_pp)
    named = [("chi(P_V)", points), (f"chi(P_V x I{d})", d * points), ("chi(P'_E)", edges),
             (f"chi(P_V x I{d})^(T)", trans)]
    return named, d * points, edges, trans


def translation_character(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> np.ndarray:
    """Constant character of the surviving translation subrepresentation.

    A translation survives iff it vanishes on every pinned point coordinate
    and is tangent to every fully pinned hyperplane.
    """
    d, conditions = fw.dim, []
    point_set = set(fw.graph.points)
    for v, c in pin.coords:
        if v in point_set:
            conditions.append(np.eye(d)[c])
        elif c == d:
            conditions.append(fw.hyperplane(v)[0].copy())
    conditions += [fw.hyperplane(w)[0].copy() for w in pin.full_hyperplanes]
    dim = d - (numeric_rank(np.stack(conditions)) if conditions else 0)
    return np.full(len(active_elements(fw)), float(dim))


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


def _orthonormal_orbits(entries, orbit_column, group, n):
    """Sum the entries that share a basis, row and column, normalise every
    column, and orthonormalise the columns of each hyperplane orbit together
    (ValueError when they lose rank at ``RANK_TOL``).  Entries come back by
    basis, then row."""
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
            basis = orthonormal_columns(mat, RANK_TOL)
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


def symmetry_adapted_basis(rep: PermutationRep, expected) -> OrbitBases:
    """Orthonormal bases of the isotypic components of every irreducible.

    One pass over the orbits serves all irreducibles: the character table
    of Z2^t is a Sylvester-Hadamard matrix, and its product with the signs
    on each representative's stabilizer tells which irreducibles an orbit
    contributes to (chi_i times the signs trivial on the stabilizer).  The
    projector (1/|G|) sum_gamma chi_i(gamma) rho(gamma) maps the
    representative to the signed orbit sum, plus the coupling rows on a
    hyperplane orbit.  Different orbits have disjoint supports, so the
    columns are orthonormal.  ValueError when the number of columns of basis
    i is not ``expected[i]``.  The basis is combinatorial in the orbits, so
    no rank tolerance of the caller reaches it: the only cut, on the columns
    of a hyperplane orbit, is at ``RANK_TOL``.
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
        entries = _orthonormal_orbits(map(np.concatenate, zip(*extra)), orbit_column, group, n)
    return OrbitBases(table, reps, orbit, slot, weight, size, group, orbit_column, *entries)


@dataclass
class BlockDecomposition:
    """Symmetry-adapted change of basis B^T R A and its diagonal blocks.

    ``reps`` holds the elements, coordinate index and rows the blocks were
    read from; the bases A_i and B_i are read from it, and built on the
    first read where the blocks did not need them.
    """

    reps: RepBundle
    freedoms: np.ndarray        # lambda_i
    constraints: np.ndarray     # mu_i
    blocks: list                # mu_i x lambda_i
    offdiag_residual: float
    copies: np.ndarray = None   # copy-0 blocks: per row orbit, e_h of a copy edge across h, else 0
    copy_rows: np.ndarray = None  # copy-0 blocks: per copy-0 point and j, its copy row across 2^j, or 0

    @property
    def block_shapes(self):
        return [b.shape for b in self.blocks]

    def lift(self, i, coeff) -> np.ndarray:
        """A_i times block-i coefficients, in full coordinates."""
        if self.copies is None:
            return self.reps.index.scatter(self.reps.external_bases[i] @ coeff)
        # unpinned: x_v chi_i(w) / 2^{t/2} on copy w is in full coordinates; 0.0 + turns
        # a -0.0 product into 0.0, as IsotypicBasis.__matmul__'s sum from zero does
        (width, k), count, d = coeff.shape, len(self.reps.elements), self.reps.fw.dim
        chi = self.reps._table[i] / np.sqrt(count)
        return (0.0 + chi[:, None, None] * coeff.reshape(width // d, 1, d, k)).reshape(count * width, k)


def block_decompose(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> BlockDecomposition:
    """The diagonal blocks B_i^T R A_i, read off the representative rows.

    R intertwines the representations and B_i holds one signed orbit sum per
    row orbit, so block i's row for orbit r is sqrt(|r|) times the
    representative row of r, times A_i: the orbit rigidity matrix of each
    irreducible (Schulze & Whiteley 2011).  An unpinned bar-joint extrusion
    that :func:`copy_zero_rows` accepts has its blocks filled from its base
    edges (:func:`_copy_zero_blocks`); every other framework takes the orbit
    path (:func:`_orbit_blocks`).  Both give the same blocks, bit for bit,
    and raise the same errors.
    """
    found = copy_zero_rows(fw, pin)
    if found is None:
        return _orbit_blocks(fw, pin)
    return _copy_zero_blocks(fw, *found)


def _orbit_blocks(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> BlockDecomposition:
    """The blocks from the isotypic bases of both representations.

    R, A_i and B_i are never formed; each representative row has at most
    2(d+1) nonzeros.  The off-diagonal residual max |B_j^T R A_i| (j != i)
    / max |R| is evaluated from the nonzeros of all rows
    (:func:`_offdiag_residual`).
    """
    reps = build_reps(fw, pin)
    ext, itn = reps.external_bases, reps.internal_bases
    lam, mu = ext.widths, itn.widths
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
    return BlockDecomposition(reps=reps, freedoms=lam, constraints=mu, blocks=blocks,
                              offdiag_residual=resid / scale if scale else resid)


def copy_zero_rows(fw: Framework, pin: PinningSpec = EMPTY_PIN):
    """``(lo, hi, copy)`` for an unpinned bar-joint extrusion whose row orbits
    all meet its copy-0 points; None where the orbit path decides.

    The framework qualifies when it has an extrusion spec with every
    direction active, in direction order (the element order that the copy
    numbers index), no pinning, no hyperplane, no starred point (the
    action fixes one, so no copy-0 row reaches its coordinates), and no
    edge across words: one joining copies of two base points with different
    words has an orbit with no member on copy-0 points.  Then every orbit
    of the action is free.  ``copy`` gives each point's word read in binary,
    direction 0 first; the copy-0 points are those with copy 0.  ``lo`` and
    ``hi`` are the positions of the pp edge ends, in :attr:`PHGraph.edge_ends`
    order, which is the row order of a bar-joint graph.

    The symmetry gate runs before the copies of an edge's ends are compared,
    so a framework raises what :func:`build_reps` raises, in its order:
    :class:`SymmetryPreconditionError` off symmetry, then the ValueError of
    :attr:`RowLayout.flip` for an edge joining copies that differ in two
    directions.
    """
    spec, graph = fw.extrusion, fw.graph
    if (spec is None or not pin.is_empty() or not fw.is_bar_joint()
            or spec.active != tuple(range(spec.order)) or (graph.steps == 0).any()):
        return None
    t = spec.order
    copy = (graph.steps < 0) @ (1 << np.arange(t - 1, -1, -1))
    start = np.arange(len(copy)) - copy   # the copy-0 point of each point's base
    lo, hi = graph.edge_ends[0].T
    pair, across = start[lo] == start[hi], copy[lo] ^ copy[hi]
    if (~pair & (across != 0)).any():
        return None
    check_extrusion_symmetry(fw)
    if (pair & ((across & (across - 1)) != 0)).any():
        graph.copy_coordinate(lo, hi)   # raises the ValueError of RowLayout.flip
    return lo, hi, copy


def _copy_zero_blocks(fw: Framework, lo, hi, copy) -> BlockDecomposition:
    """The blocks of an unpinned bar-joint extrusion from its base edges.

    Every orbit is free, so A_i takes the coordinates x_v of the copy-0
    points to chi_i(w) x_v / 2^{t/2} on each copy w, and block i is the
    orbit rigidity matrix [R_base ; sqrt(2) D_S]: per orbit its row at copy-0
    points on the copy-0 columns, a copy edge's (copy 0 to copy bit_h) only for
    the directions S that chi_i negates.  Orbit o's row with lower end on copy
    w joins ``lo[o] + w`` and ``hi[o] + w``, so one pp evaluation gives them
    all.  The entries are scaled with the floating-point
    operations of :func:`_orbit_blocks`, so the blocks are the same bit for
    bit.  Each copy edge's row, across 2^j, is also kept at its copy-0 point
    and j (``copy_rows``).  The off-diagonal residual comes from
    :func:`_copy_zero_residual`.
    """
    d, t = fw.dim, fw.graph.extrusion_order
    count, reps = 2 ** t, RepBundle(fw, active_elements(fw))
    first = copy[lo] == 0   # ascending: the first row of each orbit
    lo, hi = lo[first], hi[first]
    bit = copy[hi]
    flips = np.arange(count)[:, None] & bit
    w, o = (flips == 0).nonzero()   # by copy, so the first rows come first
    near, far = ROW_KINDS["pp"].blocks(fw.config.points, fw.config.hyperplanes, (lo[o] + w, hi[o] + w), None)
    scale = np.abs(near).max(initial=0.0)
    edges = np.zeros((len(lo), count, d))
    edges[o, w] = near
    # sqrt(|orbit|) times the first row times chi_i(0) / 2^{t/2}, at the copy-0
    # point of each end: a copy edge's upper end is its lower end's, and adds
    # the same product once more
    m = len(lo)
    size, near, far = np.sqrt(np.where(bit, count // 2, count))[:, None], near[:m], far[:m]
    filled = np.zeros((m, len(copy) >> t, d))
    filled[np.arange(m), lo >> t] += size * near * (1.0 / np.sqrt(count))
    filled[np.arange(m), hi >> t] += size * np.where(bit[:, None], near, far) * (1.0 / np.sqrt(count))
    on_copy = np.flatnonzero(bit)
    point = lo[on_copy] >> t
    copy_rows = np.zeros((filled.shape[1], t, d))   # the row across 2^j at j
    copy_rows[point, np.searchsorted(1 << np.arange(t), bit[on_copy])] = filled[on_copy, point]
    filled, member = filled.reshape(m, -1), flips == bit
    resid = _copy_zero_residual(reps._table, edges, bit)
    return BlockDecomposition(reps=reps, freedoms=np.full(count, filled.shape[1]),
                              constraints=member.sum(axis=1), blocks=[filled[k] for k in member],
                              offdiag_residual=resid / scale if scale else resid, copies=bit,
                              copy_rows=copy_rows)


def _copy_zero_residual(table, edges, bit) -> float:
    """max |B_j^T R A_i| over j != i for :func:`_copy_zero_blocks`, by a
    character-table (Hadamard) transform of the edge vectors over the copies.

    ``edges[o, w]`` is the vector, at its lower end, of row orbit o's row
    whose lower end lies on copy w (zero where there is none), and
    ``bit[o]`` the element e_h of a copy edge's direction h (0 for a base
    edge), which is also its index in ``table``.
    That row has e_w at its lower end and -e_w at its upper end.  A base
    edge's ends lie in two coordinate orbits, so each of its (j, i)
    entries is +-sum_w chi_j(w) chi_i(w) e_w / sqrt(|o| 2^t).  A copy edge's
    ends are copies of one point: A_i cancels the two unless chi_i negates
    e_h, and doubles them if it does, and B_j holds the orbit only if chi_j
    negates e_h.  With chi_j chi_i = chi_g for g = i + j, the entries off the
    diagonal are sum_w chi_g(w) e_w times 1 or 2 over sqrt(|o| 2^t), for g
    other than 0 and, for a copy edge, other than e_h: only the copies with
    w_h = 0 hold its rows, so the sum is the same at g and g + e_h.
    """
    count, on_copy = len(table), bit != 0
    factor = np.where(on_copy, 2.0, 1.0) / np.sqrt(np.where(on_copy, count // 2, count) * count)
    spectrum = np.abs(table @ edges).max(axis=2) * factor[:, None]
    spectrum[:, 0] = spectrum[np.arange(len(bit)), bit] = 0.0   # the diagonal: g = 0, and e_h
    return float(spectrum.max(initial=0.0))


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
    masquerade as one, which is flagged as a caveat.  For a symmetric bar-joint
    framework the block kernel dimensions add up to R's nullity at any ``tol``.

    Every block is cut at the largest singular value of all blocks.  On the
    copy-0 path each block is a row subset of the last, so by interlacing
    that is the last block's, and the characters have a closed form
    (:func:`_copy_zero_characters`).  There, for t >= d, block chi_S holds
    sqrt(2) tau_h at each copy-0 point for h in S; a block that the copy rows
    certify (:func:`~extrig.linalg.full_column_rank`) takes no SVD and has an
    empty kernel, and the last block's SVD gives its kernel only if uncertified.
    """
    dec = block_decompose(fw, pin)
    closed = dec.copies is not None
    named, ext_total, int_total, trans = (_copy_zero_characters(fw, dec.copies) if closed
                                          else character_rows(fw, dec.reps))
    elements = dec.reps.elements
    lam, mu, nu = _multiplicities([ext_total, int_total, trans], dec.reps._table)
    if not np.array_equal(lam, dec.freedoms) or not np.array_equal(mu, dec.constraints):
        raise AssertionError("combinatorial characters disagree with matrix traces")
    nets = lam - nu - mu
    t = len(fw.extrusion.active) if fw.extrusion is not None else 0
    names = [f"rho_{k:0{t}b}" for k in range(len(elements))]
    # each block is cut as the block-diagonal matrix of all blocks is
    shape, last = (int(mu.sum()), int(lam.sum())), dec.blocks[-1]
    sure = (full_column_rank(dec.copy_rows, tol, shape, np.linalg.norm(last))
            if closed and t >= fw.dim else np.zeros(len(elements), dtype=bool))
    if closed:
        kernel, scale = (None, rank_and_scale(last)[1]) if sure[-1] else kernel_and_scale(last, tol, shape)
    else:
        scale = max((np.linalg.norm(block, 2) for block in dec.blocks if block.size), default=0.0)
    flex_dims, flexes, stress_dims = {}, {}, {}
    for i, block in enumerate(dec.blocks):
        kern = (np.zeros((block.shape[1], 0)) if sure[i] else kernel if closed and block is last
                else nullspace(block, tol, scale, shape))
        flex_dims[i] = kern.shape[1]
        flexes[i] = dec.lift(i, kern)
        stress_dims[i] = block.shape[0] - (block.shape[1] - kern.shape[1])
    caveats = []
    if fw.dim >= 3:
        caveats.append("d >= 3: infinitesimal rotations are not subtracted; "
                       "detected motions may contain rotations")
    if not fw.is_bar_joint():
        caveats.append("point-hyperplane external representation is not unitary; "
                       "a symmetric flex may move parallel hyperplanes by unequal offsets")
    counts = np.rint([vec for _, vec in named]).astype(int).tolist()
    named_int = [(name, tuple(row)) for (name, _), row in zip(named, counts)]
    return MobilityReport(elements=elements, irrep_names=names, char_rows=named_int,
                          freedoms=lam, translations=nu, constraints=mu, nets=nets,
                          block_shapes=dec.block_shapes, offdiag_residual=dec.offdiag_residual,
                          detected_flex_dims=flex_dims, detected_flexes=flexes,
                          stress_dims=stress_dims, caveats=caveats)
