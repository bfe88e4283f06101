"""Rigidity matrices for bar-joint and point-hyperplane frameworks.

Column order: d coordinates per point vertex (sorted), then d+1 per
hyperplane vertex (normal coordinates followed by the offset).  Row order:
pp edges, ph edges, hh-angle edges, hh-par edges (d-1 rows each), then one
normalization row per surviving hyperplane, as laid out by :class:`RowLayout`
from the graph's integer edge ends.  Pinning deletes columns and rows; it
never zero-masks.

:data:`ROW_KINDS` is the one table of the constraint system: per row kind
the measured value, its gradient (the rigidity row) and how the row moves
under the extrusion action.  The rigidity matrix, the measurement map of
:mod:`extrig.finiteflex` and the internal representation of
:mod:`extrig.symmetry` (:meth:`RowLayout.action`) are all built from it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .frameworks import ExtrusionSpec, Framework
from .graphs import PHGraph, STAR, Vertex
from .linalg import RANK_TOL, kernels, nullspace, numeric_rank, orthonormal_columns


@dataclass(frozen=True)
class PinningSpec:
    """Coordinates and hyperplanes removed from the rigidity matrix.

    * ``coords``: (vertex, coordinate index) pairs whose columns are deleted;
    * ``full_hyperplanes``: all d+1 columns and the normalization row go;
      parallel rows of the ambient class become redundant and go too;
    * ``parallel_only``: the d normal columns and the normalization row go,
      the offset column stays (the hyperplane may still translate).
    """

    coords: frozenset = frozenset()
    full_hyperplanes: frozenset = frozenset()
    parallel_only: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "coords", frozenset(self.coords))
        object.__setattr__(self, "full_hyperplanes", frozenset(self.full_hyperplanes))
        object.__setattr__(self, "parallel_only", frozenset(self.parallel_only))
        if self.full_hyperplanes & self.parallel_only:
            raise ValueError("a hyperplane cannot be both fully pinned and parallel-only")

    def is_empty(self) -> bool:
        return not (self.coords or self.full_hyperplanes or self.parallel_only)


EMPTY_PIN = PinningSpec()


def column_start(graph: PHGraph, dim: int, position):
    """First full-coordinate column of the vertex at ``position`` in
    ``graph.vertices`` (an int or an int array): d columns per point, then
    d+1 per hyperplane."""
    return dim * position + np.maximum(position - len(graph.points), 0)


class CoordinateIndex:
    """Bookkeeping between the full stacked coordinate vector and the pinned one."""

    def __init__(self, fw: Framework, pin: PinningSpec = EMPTY_PIN):
        d = fw.dim
        graph = fw.graph
        labels = [(v, c) for v in graph.vertices for c in range(d if graph.is_point(v) else d + 1)]
        pinned = set()
        for v, c in pin.coords:
            if v not in graph.position:
                raise ValueError(f"pinned coordinate references unknown vertex {v}")
            width = d if graph.is_point(v) else d + 1
            if not 0 <= c < width:
                raise ValueError(f"pinned coordinate index {c} out of range for {v}")
            pinned.add((v, c))
        for name, hyps, width in (("fully pinned", pin.full_hyperplanes, d + 1),
                                  ("parallel-only", pin.parallel_only, d)):
            for w in hyps:
                if w not in graph.position or graph.is_point(w):
                    raise ValueError(f"{name} vertex {w} is not a hyperplane")
                pinned.update((w, c) for c in range(width))
        self.fw = fw
        self.pin = pin
        self.dim = d
        self.full_labels = labels
        self.keep = np.array([lab not in pinned for lab in labels], dtype=bool)
        self.labels = [lab for lab, k in zip(labels, self.keep) if k]
        self.pos = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def full_size(self) -> int:
        return len(self.full_labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def full_vector(self) -> np.ndarray:
        cfg = self.fw.config
        return np.concatenate([cfg.points.ravel(), cfg.hyperplanes.ravel()])

    def split(self, full_vec):
        """Point rows and hyperplane rows of a full vector; inverse of :meth:`full_vector`."""
        n = len(self.fw.graph.points) * self.dim
        return full_vec[:n].reshape(-1, self.dim), full_vec[n:].reshape(-1, self.dim + 1)

    def reduce(self, full_vec) -> np.ndarray:
        return np.asarray(full_vec, dtype=float)[self.keep]

    def scatter(self, red_vec) -> np.ndarray:
        """Zero-padded full vector, or full columns of a matrix of reduced columns."""
        out = np.zeros((self.full_size,) + np.shape(red_vec)[1:])
        out[self.keep] = red_vec
        return out

    def vertex_slice(self, v: Vertex) -> slice:
        graph = self.fw.graph
        start = int(column_start(graph, self.dim, graph.position[v]))
        return slice(start, start + (self.dim if graph.is_point(v) else self.dim + 1))


def parallel_axes(a) -> np.ndarray:
    """Deterministic orthonormal pair spanning the plane orthogonal to ``a`` (d = 3).

    u1 is the normalized rejection of the canonical basis vector least
    aligned with a; u2 = a x u1.
    """
    an = np.asarray(a, dtype=float)
    an = an / np.linalg.norm(an)
    c = int(np.argmin(np.abs(an)))
    u1 = np.eye(3)[c] - an[c] * an
    u1 = u1 / np.linalg.norm(u1)
    return np.stack([u1, np.cross(an, u1)])


# -- the constraint-row table ------------------------------------------------------
#
# Every function below is vectorised over the rows of one kind: ``P`` holds
# the point coordinates, ``H`` the hyperplane rows (a, r), and ``ends`` one
# integer array per end of the row, indexing ``P`` or ``H``.  ``blocks``
# returns the nonzero part of each row at each end, starting at that end's
# first column.


def _dot(x, y) -> np.ndarray:
    """Row-wise dot products; matmul, not einsum, rounds each pair as ``np.dot`` does."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _par_blocks(P, H, ends, sub):
    au, av = H[ends[0], :-1], H[ends[1], :-1]
    if au.shape[1] == 2:   # rotate by a quarter turn: a -> (-a_1, a_0)
        return np.stack([-av[:, 1], av[:, 0]], 1), -np.stack([-au[:, 1], au[:, 0]], 1)
    axes = np.array([parallel_axes(a)[i] for a, i in zip(au, sub)]).reshape(-1, 3)
    return np.cross(av, axes), -np.cross(au, axes)


def _pp_blocks(P, H, ends, sub):
    diff = P[ends[0]] - P[ends[1]]
    return diff, -diff


@dataclass(frozen=True)
class RowKind:
    """One kind of constraint row.

    * ``ends``: the vertex kind at each end, ``p`` point or ``h`` hyperplane;
    * ``value``: the measured quantity, None for par rows (parallelism is
      kept by the measurement map's domain, not measured);
    * ``blocks``: the rigidity row, the gradient of ``value`` divided by
      ``jacobian_factor`` (2 for the squared quantities pp and norm);
    * ``signed``: the internal representation negates the row when the
      group element flips the coordinate in which its copy-joined ends differ.
    """

    ends: str
    value: object
    blocks: object
    jacobian_factor: float = 1.0
    signed: bool = False


ROW_KINDS = {
    "pp": RowKind("pp", lambda P, H, e: np.sum((P[e[0]] - P[e[1]]) ** 2, axis=1),
                  _pp_blocks, jacobian_factor=2.0, signed=True),
    "ph": RowKind("ph", lambda P, H, e: _dot(P[e[0]], H[e[1], :-1]) - H[e[1], -1],
                  lambda P, H, e, sub: (H[e[1], :-1],
                                        np.column_stack([P[e[0]], -np.ones(len(e[0]))]))),
    "angle": RowKind("hh", lambda P, H, e: _dot(H[e[0], :-1], H[e[1], :-1]),
                     lambda P, H, e, sub: (H[e[1], :-1], H[e[0], :-1])),
    "par": RowKind("hh", None, _par_blocks, signed=True),
    "norm": RowKind("h", lambda P, H, e: _dot(H[e[0], :-1], H[e[0], :-1]),
                    lambda P, H, e, sub: (H[e[0], :-1],), jacobian_factor=2.0),
}


class RowLayout:
    """The constraint rows of a (pinned) graph, grouped by kind, their ends as
    integer vertex positions.

    This is the one definition of the row order: pp edges, ph edges, hh-angle
    edges, hh-par edges (d-1 rows each; none in a class with a fully pinned
    hyperplane, none at all without ``include_parallel``), then one
    normalization row per surviving hyperplane.  The ends are read off
    :attr:`PHGraph.edge_ends`; the labels (:attr:`rows`) are derived from
    them when read.  :meth:`matrix` and :meth:`values` evaluate the table at
    any point and hyperplane coordinates, and :meth:`action` gives the
    internal representation's signed row permutations.
    """

    def __init__(self, graph: PHGraph, dim: int, pin: PinningSpec = EMPTY_PIN,
                 include_parallel: bool = True):
        self.graph = graph
        n, hyperplanes = len(graph.points), graph.hyperplanes
        pp, ph, angle, par = graph.edge_ends
        if include_parallel:
            cls = graph.class_index
            anchored = {cls[w] for w in pin.full_hyperplanes}
            free = np.array([cls[w] not in anchored for w in hyperplanes], dtype=bool)
            par = np.repeat(par[free[par[:, 0] - n]], dim - 1, axis=0)
        else:
            par = par[:0]
        removed = pin.full_hyperplanes | pin.parallel_only
        norm = np.array([i for i, w in enumerate(hyperplanes, n) if w not in removed],
                        dtype=np.intp).reshape(-1, 1)
        self.groups = {}
        count = 0
        for name, pairs in (("pp", pp), ("ph", ph), ("angle", angle), ("par", par), ("norm", norm)):
            if not len(pairs):
                continue
            kind = ROW_KINDS[name]
            where = np.arange(count, count + len(pairs))
            count += len(pairs)
            positions = pairs.T
            ends = tuple(pos - (n if k == "h" else 0) for pos, k in zip(positions, kind.ends))
            starts = tuple(column_start(graph, dim, pos) for pos in positions)
            # a par edge's d-1 rows are consecutive, with sub-indices 0..d-2
            sub = (np.arange(len(pairs)) % (dim - 1) if name == "par"
                   else np.zeros(len(pairs), dtype=np.intp))
            self.groups[name] = (kind, where, positions, ends, starts, sub)
        self.shape = (count, int(column_start(graph, dim, len(graph.vertices))))
        self._pattern = None   # (row, column) of the nonzeros, see nonzeros

    @cached_property
    def rows(self) -> list:
        """Row labels, in row order: ("pp", edge), ("ph", edge), ("angle", edge),
        ("par", edge, i) for i < d-1, and ("norm", vertex)."""
        verts, out = self.graph.vertices, []
        for name, (_, _, positions, _, _, sub) in self.groups.items():
            for ends, i in zip(positions.T.tolist(), sub.tolist()):
                edge = tuple(verts[p] for p in ends)
                out.append((name, *edge) if name == "norm" else
                           (name, edge, i) if name == "par" else (name, edge))
        return out

    @cached_property
    def flip(self) -> np.ndarray:
        """Per row, the coordinate whose flip negates it in the internal
        representation: :meth:`PHGraph.extrusion_coordinate` of a signed
        row's ends, t when there is none."""
        graph, t = self.graph, self.graph.extrusion_order
        flip = np.full(self.shape[0], t, dtype=np.intp)
        for kind, where, positions, *_ in self.groups.values():
            if kind.signed:
                coords = (graph.extrusion_coordinate((graph.vertices[u], graph.vertices[v]))
                          for u, v in positions.T.tolist())
                flip[where] = [t if h is None else h for h in coords]
        return flip

    def sign(self, gamma) -> np.ndarray:
        """Per row, -1.0 where ``gamma`` flips the row's :attr:`flip` coordinate, else 1.0."""
        return np.where(np.append(np.asarray(gamma, dtype=bool), False)[self.flip], -1.0, 1.0)

    def nonzeros(self, points, hyperplanes, scaled: bool = False):
        """``(row, column, value)`` arrays of the rows' nonzeros at the given
        coordinates, in full columns; ``scaled`` multiplies each kind by its
        Jacobian factor (the measurement map's Jacobian).  The row and column
        arrays depend only on the layout: they are built on the first call
        and returned read-only after."""
        pieces, values = [], []
        for kind, where, _, ends, starts, sub in self.groups.values():
            factor = kind.jacobian_factor if scaled else 1.0
            for start, block in zip(starts, kind.blocks(points, hyperplanes, ends, sub)):
                pieces.append((where, start, block.shape[1]))
                values.append(factor * block.ravel())
        if not values:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        if self._pattern is None:
            rows = np.concatenate([np.repeat(where, width) for where, _, width in pieces])
            cols = np.concatenate([(start[:, None] + np.arange(width)).ravel()
                                   for _, start, width in pieces])
            rows.flags.writeable = cols.flags.writeable = False
            self._pattern = rows, cols
        return (*self._pattern, np.concatenate(values))

    def matrix(self, points, hyperplanes, scaled: bool = False) -> np.ndarray:
        """Dense full-column rows at the given coordinates (see :meth:`nonzeros`)."""
        out = np.zeros(self.shape)
        rows, cols, values = self.nonzeros(points, hyperplanes, scaled)
        out[rows, cols] = values
        return out

    def values(self, points, hyperplanes) -> np.ndarray:
        out = np.empty(self.shape[0])
        for kind, where, _, ends, _, _ in self.groups.values():
            out[where] = kind.value(points, hyperplanes, ends)
        return out

    def action(self, elements) -> list:
        """Per element, ``(target, sign)``: row ``i`` maps to row ``target[i]``, the
        row on the images of its ends, with sign ``sign[i]`` in the internal
        representation.  ValueError when an image is not in the row list."""
        graph, size = self.graph, len(self.graph.vertices)
        self.flip   # raises before any row is mapped
        out = []
        for gamma in elements:
            perm = graph.permutation(gamma)
            target = np.empty(self.shape[0], dtype=np.intp)
            for _, where, positions, _, _, sub in self.groups.values():
                # a row's key: its end positions, in vertex order, and its sub-index
                dims = (size,) * len(positions) + (int(sub.max()) + 1,)
                keys = np.ravel_multi_index((*positions, sub), dims)
                image = np.ravel_multi_index((*np.sort(perm[positions], axis=0), sub), dims)
                order = np.argsort(keys)
                at = order[np.minimum(np.searchsorted(keys, image, sorter=order), len(keys) - 1)]
                missing = np.flatnonzero(keys[at] != image)
                if missing.size:
                    lab = self.rows[where[missing[0]]]
                    raise ValueError(f"row {lab} maps outside the surviving rows under {gamma}")
                target[where] = where[at]
            out.append((target, self.sign(gamma)))
        return out


@dataclass
class RigidityMatrix:
    """Pinned constraint Jacobian with row and column bookkeeping."""

    matrix: np.ndarray
    row_labels: list
    index: CoordinateIndex
    pinning: PinningSpec

    @property
    def shape(self):
        return self.matrix.shape

    def rank(self, tol: float = RANK_TOL) -> int:
        return numeric_rank(self.matrix, tol)


def rigidity_matrix(fw: Framework, pin: PinningSpec = EMPTY_PIN) -> RigidityMatrix:
    """Assemble the (pinned) rigidity matrix of a framework."""
    if fw.dim >= 4 and fw.graph.edges_hh_par:
        raise ValueError("parallel constraint rows are only defined for d = 2 and d = 3")
    index = CoordinateIndex(fw, pin)
    layout = RowLayout(fw.graph, fw.dim, pin)
    full = layout.matrix(fw.config.points, fw.config.hyperplanes)
    return RigidityMatrix(full[:, index.keep], layout.rows, index, pin)


def trivial_motion_generators(fw: Framework) -> np.ndarray:
    """Full-coordinate generators of the trivial motions, d(d+1)/2 columns.

    Translations: p-dot = t, hyperplane velocity (0, <t, a>).  Rotations
    about the origin: p-dot = S p, hyperplane velocity (a S^T, 0).
    """
    d, graph = fw.dim, fw.graph
    points, hyperplanes = fw.config.points, fw.config.hyperplanes
    starts = column_start(graph, d, np.arange(len(graph.vertices) + 1))
    size, n = starts[-1], len(points)
    point_cols = starts[:n, None] + np.arange(d)
    normal_cols = starts[n:-1, None] + np.arange(d)
    cols = []
    for c in range(d):
        vec = np.zeros(size)
        vec[point_cols[:, c]] = 1.0
        vec[normal_cols[:, 0] + d] = hyperplanes[:, c]
        cols.append(vec)
    for i, j in itertools.combinations(range(d), 2):
        skew = np.zeros((d, d))
        skew[j, i], skew[i, j] = 1.0, -1.0
        vec = np.zeros(size)
        vec[point_cols] = points @ skew.T
        vec[normal_cols] = hyperplanes[:, :-1] @ skew.T
        cols.append(vec)
    return np.column_stack(cols) if cols else np.zeros((size, 0))


def trivial_motion_basis(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                         tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis, in pinned coordinates, of trivial motions compatible
    with the pinning (zero velocity on every deleted coordinate)."""
    gens = trivial_motion_generators(fw)
    index = CoordinateIndex(fw, pin)
    pinned_rows = gens[~index.keep, :]
    if pinned_rows.shape[0]:
        coeff = nullspace(pinned_rows, tol)
        gens = gens @ coeff
    return orthonormal_columns(gens[index.keep, :], tol)


def trivial_motion_dim(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                       tol: float = RANK_TOL) -> int:
    """Dimension of the trivial motions compatible with the pinning, from
    singular values only: the generator combinations that vanish on the
    deleted coordinates, less those that vanish everywhere."""
    gens = trivial_motion_generators(fw)
    keep = CoordinateIndex(fw, pin).keep
    return numeric_rank(gens, tol) - numeric_rank(gens[~keep, :], tol)


@dataclass
class InfinitesimalAnalysis:
    """Rank, motion and self-stress counts of a (pinned) rigidity matrix.

    The counts come from one values-only rank decision on ``matrix``.  The
    bases ``nullspace_basis`` (n x nullity) and ``stress_basis``
    (m x stress_dim) are computed on first read, from one full SVD of
    ``matrix`` cut at the recorded ``rank``, so their widths always equal
    the counts.
    """

    rank: int
    nullity: int
    trivial_dim: int
    flex_dim: int
    stress_dim: int
    matrix: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def _kernels(self):
        return kernels(self.matrix, rank=self.rank)

    @property
    def nullspace_basis(self) -> np.ndarray:
        return self._kernels[0]

    @property
    def stress_basis(self) -> np.ndarray:
        return self._kernels[1]


def infinitesimal_analysis(fw: Framework, pin: PinningSpec = EMPTY_PIN,
                           tol: float = RANK_TOL) -> InfinitesimalAnalysis:
    """Rank, motion space, and self-stress space of the (pinned) framework."""
    rig = rigidity_matrix(fw, pin)
    rows, cols = rig.shape
    rank = rig.rank(tol)
    trivial = trivial_motion_dim(fw, pin, tol)
    return InfinitesimalAnalysis(rank=rank, nullity=cols - rank, trivial_dim=trivial,
                                 flex_dim=cols - rank - trivial, stress_dim=rows - rank,
                                 matrix=rig.matrix)


def maxwell_rhs(fw: Framework) -> int:
    """d|V| - |E| - d(d+1)/2 with parallel edges counted by their d-1 rows."""
    d = fw.dim
    g = fw.graph
    edge_rows = (len(g.edges_pp) + len(g.edges_ph) + len(g.edges_hh_angle)
                 + (d - 1) * len(g.edges_hh_par))
    return d * len(g.vertices) - edge_rows - d * (d + 1) // 2


def minimal_pinning(fw: Framework, tol: float = RANK_TOL) -> PinningSpec:
    """Greedy minimal coordinate pinning eliminating all trivial motions.

    Pins the d coordinates of the first point vertex, then walks the
    remaining point coordinates in lexicographic order, keeping those that
    strictly reduce the surviving trivial motion space.  Verifies minimality
    by a single-removal test.  The generators and their rank are formed
    once; each trial ranks only their rows at the pinned coordinates, as
    :func:`trivial_motion_dim` does.
    """
    if not fw.graph.points:
        raise ValueError("minimal pinning requires at least one point vertex")
    from .frameworks import affine_span_check

    if not affine_span_check(fw, tol):
        raise ValueError("configuration does not affinely span the ambient space")
    d, graph = fw.dim, fw.graph
    gens = trivial_motion_generators(fw)
    full_rank = numeric_rank(gens, tol)
    start = {v: int(column_start(graph, d, graph.position[v])) for v in graph.points}

    def surviving(coords) -> int:
        return full_rank - numeric_rank(gens[sorted(start[v] + c for v, c in coords)], tol)

    coords = set((graph.points[0], c) for c in range(d))
    current = surviving(coords)
    for v in graph.points:
        if current == 0:
            break
        for c in range(d):
            if (v, c) in coords:
                continue
            trial = coords | {(v, c)}
            dim_after = surviving(trial)
            if dim_after < current:
                coords = trial
                current = dim_after
                if current == 0:
                    break
    if current != 0:
        raise ValueError("could not eliminate all trivial motions by pinning point coordinates")
    expected = d * (d + 1) // 2
    if len(coords) != expected:
        raise ValueError(f"pinning used {len(coords)} coordinates, expected {expected}")
    for dropped in sorted(coords, key=lambda vc: (vc[0].sort_key(), vc[1])):
        if surviving(coords - {dropped}) == 0:
            raise ValueError(f"pinning is not minimal: {dropped} is redundant")
    return PinningSpec(coords=frozenset(coords))


def live_contracted_hyperplanes(fw: Framework, pin: PinningSpec, directions) -> list:
    """``(hyperplane, direction)`` pairs, direction by direction, for which the
    rigidity matrix does not intertwine the representations along that
    direction: the hyperplane is contracted along it, met by a ph edge, and
    ``pin`` keeps its normal columns."""
    fixed_sets = fw.extrusion.fixed_sets
    removed = pin.full_hyperplanes | pin.parallel_only
    ph_incident = {w for _, w in fw.graph.edges_ph}
    return [(w, h) for h in directions for w in fw.graph.hyperplanes
            if w.base in fixed_sets[h] and w in ph_incident and w not in removed]


def hyperplane_pinning(fw: Framework):
    """Pin one hyperplane that contains an extrusion direction.

    The chosen hyperplane (lexicographically first among candidates) is
    fully pinned; the rest of its parallel class keeps only the offset
    column.  Returns the pinning together with an extrusion spec whose
    active set is reduced to the directions along which the block
    decomposition applies afterwards.
    """
    if fw.extrusion is None:
        raise ValueError("framework has no extrusion specification")
    spec = fw.extrusion
    fixed_bases = set().union(*spec.fixed_sets) if spec.fixed_sets else set()
    candidates = [w for w in fw.graph.hyperplanes if w.base in fixed_bases]
    if not candidates:
        raise ValueError("no hyperplane contains an extrusion direction")
    target = candidates[0]
    cls = next(c for c in fw.graph.parallel_classes if target in c)
    pin = PinningSpec(full_hyperplanes={target},
                      parallel_only=frozenset(cls) - {target})

    active = tuple(h for h in range(spec.order)
                   if target.word[h] == STAR and not live_contracted_hyperplanes(fw, pin, (h,)))
    reduced = ExtrusionSpec(directions=spec.directions, fixed_sets=spec.fixed_sets,
                            active=active)
    return pin, reduced
