"""Geometric realizations: configurations, extrusion-symmetric construction,
symmetry verification, and the affine / infinitesimal-rotation transforms.

A hyperplane is stored un-normalized as a row ``(a, r)`` of length d+1 with
nonzero normal ``a``; it is the zero set of ``<a, x> - r``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .graphs import (PHGraph, STAR, Vertex, extrusion_product, group_elements,
                     subgroup_elements)
from .linalg import COINCIDENT_TOL, RANK_TOL, numeric_rank


def _readonly(arr) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Configuration:
    """Point coordinates and hyperplane rows, aligned with the graph's vertex order."""

    dim: int
    points: np.ndarray       # (n, dim)
    hyperplanes: np.ndarray  # (k, dim + 1), rows (a, r)

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(np.asarray(self.points, dtype=float).reshape(-1, self.dim)))
        hp = np.asarray(self.hyperplanes, dtype=float).reshape(-1, self.dim + 1)
        object.__setattr__(self, "hyperplanes", _readonly(hp))
        if len(hp) and np.any(np.linalg.norm(hp[:, :-1], axis=1) == 0.0):
            raise ValueError("hyperplane with zero normal")


@dataclass(frozen=True)
class ExtrusionSpec:
    """Extrusion directions and the active subgroup.

    ``active`` lists the direction indices generating the symmetry subgroup
    used for representation-theoretic analysis; pinning may shrink it.  The
    contracted hyperplanes are read off the graph's words
    (:attr:`PHGraph.fixed_sets <extrig.graphs.PHGraph.fixed_sets>`).
    """

    directions: np.ndarray   # (t, dim)
    active: tuple = None

    def __post_init__(self):
        dirs = _readonly(np.atleast_2d(np.asarray(self.directions, dtype=float)))
        if not dirs.size:
            raise ValueError("no extrusion direction")
        object.__setattr__(self, "directions", dirs)
        if np.any(np.linalg.norm(dirs, axis=1) == 0.0):
            raise ValueError("zero extrusion direction")
        bad = np.flatnonzero(~np.isfinite(dirs).all(axis=1))
        if bad.size:
            raise ValueError(f"extrusion direction #{bad[0]} is not finite")
        act = tuple(range(len(dirs))) if self.active is None else tuple(self.active)
        if any(h < 0 or h >= len(dirs) for h in act):
            raise ValueError("active direction index out of range")
        if len(set(act)) != len(act):
            raise ValueError("duplicate active direction index")
        object.__setattr__(self, "active", act)

    @property
    def order(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class Framework:
    """A decorated point-hyperplane graph together with a configuration."""

    graph: PHGraph
    config: Configuration
    extrusion: ExtrusionSpec = None

    def __post_init__(self):
        if len(self.config.points) != len(self.graph.points):
            raise ValueError("point count mismatch between graph and configuration")
        if len(self.config.hyperplanes) != len(self.graph.hyperplanes):
            raise ValueError("hyperplane count mismatch between graph and configuration")
        if self.extrusion is not None and self.extrusion.order != self.graph.extrusion_order:
            raise ValueError("extrusion order mismatch between graph and spec")
        _check_direction_length(self.extrusion, self.dim)

    @property
    def dim(self) -> int:
        return self.config.dim

    def point(self, v: Vertex) -> np.ndarray:
        return self.config.points[self.graph.position[v]]

    def hyperplane(self, v: Vertex):
        if self.graph.is_point(v):
            raise KeyError(v)
        row = self.config.hyperplanes[self.graph.position[v] - len(self.graph.points)]
        return row[:-1], row[-1]

    def is_bar_joint(self) -> bool:
        return len(self.graph.hyperplanes) == 0

    @cached_property
    def symmetry_residuals(self) -> np.ndarray:
        """Read-only (2^t, |points| + 2 |hyperplanes|) array of the residuals of
        the extrusion-symmetry laws, one row per element of Z2^t in the order
        of :func:`group_elements`: a column per point (point translation),
        then two per hyperplane (equal normals, then offset shift).

        The identity row is zero without a pass (it moves and displaces
        nothing, even on a non-finite configuration).  Only the image lookup
        (:meth:`PHGraph.act`) runs per pair; each other row is array work.  Its
        norms and offset shifts are row-wise stacked matmuls, which round as
        ``np.linalg.norm`` and ``np.dot`` do, bit for bit (``einsum`` does not).

        Computed on first use and kept: the graph, the read-only arrays of
        the configuration and the extrusion spec of a framework never change.
        """
        spec, graph = self.extrusion, self.graph
        if spec is None:
            raise ValueError("framework has no extrusion specification")
        points, planes = self.config.points, self.config.hyperplanes
        pos, n = graph.position, len(points)
        elements = group_elements(spec.order)
        out = np.zeros((len(elements), n + 2 * len(planes)))
        for row, gamma in zip(out[1:], elements[1:]):
            disp = displacements(spec, graph.steps, gamma)
            image = np.array([pos[graph.act(gamma, v)] for v in graph.vertices], dtype=np.intp)
            moved = planes[image[n:] - n]
            diffs = points[image[:n]] - (points + disp[:n]), moved[:, :-1] - planes[:, :-1]
            row[:n], row[n::2] = (np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0] for x in diffs)
            shift = (planes[:, None, :-1] @ disp[n:, :, None])[:, 0, 0]
            row[n + 1::2] = np.abs(moved[:, -1] - (planes[:, -1] + shift))
        out.flags.writeable = False
        return out

    @cached_property
    def _residual_views(self) -> dict:
        """Per tuple of checked directions: :func:`symmetry_violations`' elements, table, scale."""
        return {}


def _check_direction_length(spec: ExtrusionSpec, dim: int):
    if spec is not None and spec.directions.shape[1] != dim:   # all rows are as long as the first
        raise ValueError(f"extrusion direction #0 has {spec.directions.shape[1]} coordinates, not {dim}")


def displacements(spec: ExtrusionSpec, steps, gamma) -> np.ndarray:
    """Displacement of each vertex induced by ``gamma``, given its row of
    :attr:`PHGraph.steps <extrig.graphs.PHGraph.steps>`: the sum, from zero
    in direction order, of step_h tau_h over the directions ``gamma`` flips.
    A zero step (a star) adds zeros, which leaves the same bits as skipping it."""
    out = np.zeros((len(steps), spec.directions.shape[1]))
    for h in np.flatnonzero(gamma):
        out += steps[:, h, None] * spec.directions[h]
    return out


def _contained(tau, a, tol) -> bool:
    return abs(float(np.dot(tau, a))) <= tol * np.linalg.norm(tau) * np.linalg.norm(a)


def _has_coincident(points) -> bool:
    """Whether two rows of ``points`` lie closer than COINCIDENT_TOL: a sweep in
    their widest coordinate, whose gap bounds a pair's distance from below."""
    if not points.size:
        return False
    axis = int(np.argmax(np.ptp(points, axis=0)))
    pts = points[np.argsort(points[:, axis], kind="stable")]
    for lag in range(1, len(pts)):
        near = np.flatnonzero(pts[lag:, axis] - pts[:-lag, axis] <= COINCIDENT_TOL)
        if not near.size:
            return False
        if np.any(np.linalg.norm(pts[near + lag] - pts[near], axis=-1) < COINCIDENT_TOL):
            return True
    return False


def extrude_framework(base: Framework, directions, fixed_sets=None, tol: float = RANK_TOL) -> Framework:
    """Extrude a framework along each direction in turn.

    ``fixed_sets[h]`` must name exactly the base hyperplanes containing
    direction ``h`` (normal orthogonal to tau_h within relative ``tol``);
    their copies are contracted.  Point copies are translated, hyperplane
    normals are carried over unchanged and offsets shift by ``<a, tau_h>``.
    """
    if base.graph.extrusion_order != 0:
        raise ValueError("can only extrude a framework without existing extrusion structure")
    spec = ExtrusionSpec(directions=directions)
    _check_direction_length(spec, base.dim)
    directions, t = spec.directions, spec.order
    if fixed_sets is None:
        fixed_sets = [frozenset()] * t
    fixed_sets = [frozenset(fs) for fs in fixed_sets]
    if len(fixed_sets) != t:
        raise ValueError("need one fixed set per extrusion direction")

    for h in range(t):
        for w in base.graph.hyperplanes:
            a, _ = base.hyperplane(w)
            inside = _contained(directions[h], a, tol)
            if inside and w.base not in fixed_sets[h]:
                raise ValueError(
                    f"direction {h} lies in hyperplane {w} but {w.base!r} is not in fixed set {h}")
            if not inside and w.base in fixed_sets[h]:
                raise ValueError(
                    f"{w.base!r} is in fixed set {h} but direction {h} does not lie in hyperplane {w}")

    graph = extrusion_product(base.graph, fixed_sets)

    # a copy sits at its base plus the directions of its word's 1 digits (step
    # -1), summed from zero in direction order; the copies of a base are
    # consecutive, the first with no 1 digit
    n, ones = len(graph.points), graph.steps < 0
    source = np.cumsum(~ones.any(axis=1)) - 1
    shift = np.zeros((n, base.dim))
    for h, bits in enumerate(ones[:n].T):
        shift[bits] += directions[h]
    points = base.config.points[source[:n]] + shift
    hyper = base.config.hyperplanes[source[n:] - len(base.graph.points)]
    offset = np.zeros(len(hyper))
    for h, bits in enumerate(ones[n:].T):   # stacked matmul rounds each <a, tau> as np.dot does
        offset[bits] += (hyper[bits, None, :-1] @ directions[h])[:, 0]
    hyper[:, -1] += offset

    if _has_coincident(points):
        warnings.warn("extrusion produced coincident points", stacklevel=2)

    return Framework(graph=graph, config=Configuration(base.dim, points, hyper), extrusion=spec)


@dataclass(frozen=True)
class SymmetryReport:
    ok: bool
    max_residual: float
    violations: tuple
    notes: tuple = ()


def verify_extrusion_symmetry(fw: Framework, tol: float = RANK_TOL,
                              active_only: bool = False) -> SymmetryReport:
    """Check the four extrusion-symmetry laws on every vertex and group element.

    (i) point translation, (ii) equal normals along orbits, (iii) direction
    containment exactly on contracted hyperplanes, (iv) offset shift law.
    Violations are reported, never raised.  ``active_only`` restricts the
    checks to the active symmetry subgroup (e.g. after a fully-symmetric
    push, which need not preserve the inactive directions).

    The residuals of laws (i), (ii) and (iv) are computed once per framework,
    over all of Z2^t, and kept on it (:attr:`Framework.symmetry_residuals`);
    that is sound because a framework's graph, spec and read-only
    configuration arrays never change.  Each call thresholds the rows of its
    elements at its own ``tol``; containment is checked per call.  Both are
    :func:`symmetry_violations`, which the symmetry gate reads alone.
    """
    table, violations = symmetry_violations(fw, tol, active_only)
    spec = fw.extrusion
    # fmax skips NaN residuals, as max(max_res, res) did in the scalar loop
    max_res = float(np.fmax.reduce(table, axis=None, initial=0.0))
    notes = []
    if spec.order > 1 and numeric_rank(spec.directions) < min(spec.order, fw.dim):
        notes.append("extrusion directions are linearly dependent")
    return SymmetryReport(ok=not violations, max_residual=max_res,
                          violations=tuple(violations), notes=tuple(notes))


def symmetry_violations(fw: Framework, tol: float, active_only: bool) -> tuple:
    """``(table, violations)`` of :func:`verify_extrusion_symmetry`: the rows
    of :attr:`Framework.symmetry_residuals` it reads, and its violations."""
    if fw.extrusion is None:
        raise ValueError("framework has no extrusion specification")
    spec, graph = fw.extrusion, fw.graph
    directions = spec.active if active_only else tuple(range(spec.order))
    if directions not in fw._residual_views:   # with every direction active, one view serves both
        elements = subgroup_elements(spec.order, directions)
        # row of each element in group_elements: its bits, direction 0 the most significant
        rows = [sum(b << (spec.order - 1 - h) for h, b in enumerate(gamma)) for gamma in elements]
        scale = 1.0 + max(float(np.abs(a).max(initial=0.0)) for a in
                          (fw.config.points, fw.config.hyperplanes, spec.directions))
        table = fw.symmetry_residuals[rows]
        table.flags.writeable = False
        fw._residual_views[directions] = elements, table, scale
    elements, table, scale = fw._residual_views[directions]
    violations = []
    hits = np.nonzero(table > tol * scale)
    if hits[0].size:
        columns = ([("point-translation", v) for v in graph.points]
                   + [(law, w) for w in graph.hyperplanes for law in ("equal-normals", "offset-shift")])
        for e, c in zip(*hits):
            law, v = columns[c]
            violations.append((law, f"{v} gamma={elements[e]}", float(table[e, c])))

    for h in directions:
        tau = spec.directions[h]
        for w in graph.hyperplanes:
            a, _ = fw.hyperplane(w)
            inside, starred = _contained(tau, a, tol), w.word[h] == STAR
            if inside and not starred:
                violations.append(("containment", f"{w} direction={h}", float(abs(np.dot(tau, a)))))
            if not inside and starred:
                violations.append(("containment", f"{w} direction={h}",
                                   float(abs(np.dot(tau, a)) / (np.linalg.norm(tau) * np.linalg.norm(a)))))
    return table, violations


def apply_affine(fw: Framework, mat, vec) -> Framework:
    """Affine image: points follow x -> Ax + v, hyperplane rows follow
    ``(a, r) -> (a A^-1, r + <a A^-1, v>)``; extrusion directions become A tau.
    """
    mat = np.asarray(mat, dtype=float)
    vec = np.asarray(vec, dtype=float)
    if abs(np.linalg.det(mat)) == 0.0:
        raise ValueError("affine transform requires an invertible matrix")
    inv = np.linalg.inv(mat)
    points = fw.config.points @ mat.T + vec
    hyper = fw.config.hyperplanes.copy()
    if len(hyper):
        normals = hyper[:, :-1] @ inv  # row vectors a A^-1
        hyper = np.column_stack([normals, hyper[:, -1] + normals @ vec])
    extr = fw.extrusion
    if extr is not None:
        extr = replace(extr, directions=extr.directions @ mat.T)
    return Framework(graph=fw.graph, config=Configuration(fw.dim, points, hyper), extrusion=extr)


def apply_infinitesimal_rotation(fw: Framework, lam: float, skew) -> Framework:
    """Apply the rank-preserving map: points and normals by (I + lam S),
    offsets scaled by (1 + lam).

    The image is generally not extrusion-symmetric at order lam^2; the
    extrusion spec is carried over with directions (I + lam S) tau.
    """
    skew = np.asarray(skew, dtype=float)
    if not np.allclose(skew, -skew.T, atol=1e-12 * (1.0 + np.abs(skew).max())):
        raise ValueError("matrix is not skew-symmetric")
    mat = np.eye(fw.dim) + lam * skew
    points = fw.config.points @ mat.T
    hyper = fw.config.hyperplanes.copy()
    if len(hyper):
        hyper = np.column_stack([hyper[:, :-1] @ mat.T, (1.0 + lam) * hyper[:, -1]])
    extr = fw.extrusion
    if extr is not None:
        extr = replace(extr, directions=extr.directions @ mat.T)
    return Framework(graph=fw.graph, config=Configuration(fw.dim, points, hyper), extrusion=extr)


def affine_span_check(fw: Framework, tol: float = RANK_TOL) -> bool:
    """True iff the points plus sample points on each hyperplane affinely span R^d."""
    d = fw.dim
    samples = []
    for w in fw.graph.hyperplanes:
        a, r = fw.hyperplane(w)
        base = a * (r / float(np.dot(a, a)))
        samples.append(base)
        an = a / np.linalg.norm(a)
        # orthonormal basis of the hyperplane through `base`
        basis = np.linalg.svd(np.eye(d) - np.outer(an, an))[0][:, : d - 1]
        for i in range(d - 1):
            samples.append(base + basis[:, i])
    pts = np.vstack([fw.config.points] + samples)
    if len(pts) < 2:
        return d == 0
    centered = pts - pts.mean(axis=0)
    return numeric_rank(centered, tol) == d


def complete_kernel_check(fw: Framework, tol: float = RANK_TOL) -> bool:
    """True iff the complete decorated graph's infinitesimal motions that
    keep each parallel class parallel are exactly the trivial motions.

    With a point p_0, the complete graph fixes the offsets given p_0 and
    the Gram matrix of V: the p_i - p_0 plus one unit normal per parallel
    class.  The motions fixing a Gram matrix of rank k exceed the rotations
    by (|V| - k)(d - k) dimensions: none iff k = d or V is linearly
    independent.  Without points nothing measures an offset, so the
    translations must move them all: every normal linearly independent.
    """
    graph, points = fw.graph, fw.config.points
    if len(points):
        normals = [fw.hyperplane(cls[0])[0] for cls in graph.parallel_classes]
    else:
        normals = [fw.hyperplane(w)[0] for w in graph.hyperplanes]
    vecs = np.vstack([points[1:] - points[:1]] + [a / np.linalg.norm(a) for a in normals])
    k = numeric_rank(vecs, tol)
    return k == len(vecs) or (len(points) > 0 and k == fw.dim)


def normalize_hyperplanes(fw: Framework) -> Framework:
    """Rescale every hyperplane row to unit normal; ranks are unaffected."""
    hyper = fw.config.hyperplanes.copy()
    if len(hyper):
        hyper = hyper / np.linalg.norm(hyper[:, :-1], axis=1, keepdims=True)
    return Framework(graph=fw.graph, config=Configuration(fw.dim, fw.config.points, hyper),
                     extrusion=fw.extrusion)
