"""Test-only references for the extrusion construction and its symmetry check.

:func:`scalar_verify_extrusion_symmetry` evaluates every law for every vertex
and requested element in one Python loop, recording as it goes, as
:func:`extrig.frameworks.verify_extrusion_symmetry` did before it kept the
residuals on the framework.  :func:`masked_extrusion_product` builds each edge
copy by masking both of its ends with the copy's bits, and
:func:`word_permutations` reads each element's vertex permutation off the
words by :func:`extrig.graphs.word_add` and a position lookup.  None is a
code path of the package.
"""
import itertools

import numpy as np

from extrig.frameworks import SymmetryReport, _contained, displacements, word_steps
from extrig.graphs import (_EDGE_FIELDS, STAR, PHGraph, Vertex, group_elements,
                           subgroup_elements, word_add)
from extrig.linalg import RANK_TOL, numeric_rank


def scalar_verify_extrusion_symmetry(fw, tol=RANK_TOL, active_only=False) -> SymmetryReport:
    spec = fw.extrusion
    graph = fw.graph
    violations = []
    max_res = 0.0
    scale = 1.0 + max(
        float(np.abs(fw.config.points).max()) if len(fw.config.points) else 0.0,
        float(np.abs(fw.config.hyperplanes).max()) if len(fw.config.hyperplanes) else 0.0,
        float(np.abs(spec.directions).max()),
    )

    def record(law, v, gamma, res):
        nonlocal max_res
        res = float(res)
        max_res = max(max_res, res)
        if res > tol * scale:
            violations.append((law, f"{v} gamma={gamma}", res))

    if active_only:
        elements = subgroup_elements(spec.order, spec.active)
        directions = spec.active
    else:
        elements = group_elements(spec.order)
        directions = range(spec.order)

    steps = word_steps([v.word for v in graph.vertices], spec.order)
    for gamma in elements:
        disp = displacements(spec, steps, gamma)
        for v, shift in zip(graph.points, disp):
            record("point-translation", v, gamma,
                   np.linalg.norm(fw.point(graph.act(gamma, v)) - (fw.point(v) + shift)))
        for w, shift in zip(graph.hyperplanes, disp[len(graph.points):]):
            a, r = fw.hyperplane(w)
            ia, ir = fw.hyperplane(graph.act(gamma, w))
            record("equal-normals", w, gamma, np.linalg.norm(ia - a))
            record("offset-shift", w, gamma, abs(ir - (r + float(np.dot(a, shift)))))

    for h in directions:
        tau = spec.directions[h]
        for w in graph.hyperplanes:
            a, _ = fw.hyperplane(w)
            inside = _contained(tau, a, tol)
            starred = w.word[h] == STAR
            if inside and not starred:
                violations.append(("containment", f"{w} direction={h}", float(abs(np.dot(tau, a)))))
            if not inside and starred:
                violations.append(("containment", f"{w} direction={h}",
                                   float(abs(np.dot(tau, a)) / (np.linalg.norm(tau) * np.linalg.norm(a)))))

    notes = []
    if spec.order > 1 and numeric_rank(spec.directions) < min(spec.order, fw.dim):
        notes.append("extrusion directions are linearly dependent")
    return SymmetryReport(ok=not violations, max_residual=max_res,
                          violations=tuple(violations), notes=tuple(notes))


def masked_extrusion_product(base, fixed_sets) -> PHGraph:
    fixed_sets = [frozenset(fs) for fs in fixed_sets]
    t = len(fixed_sets)
    if t == 0:
        return base

    def mask(v, bits):
        word = "".join(STAR if v.base in fixed_sets[h] else str(bits[h]) for h in range(t))
        return Vertex(v.base, word)

    all_bits = list(itertools.product((0, 1), repeat=t))
    points = {mask(v, bits) for v in base.points for bits in all_bits}
    hyperplanes = {mask(v, bits) for v in base.hyperplanes for bits in all_bits}
    carried = {name: {(mask(u, bits), mask(v, bits)) for u, v in getattr(base, name)
                      for bits in all_bits} for name in _EDGE_FIELDS}
    for v in base.vertices:
        name = "edges_pp" if base.is_point(v) else "edges_hh_par"
        for h, bits in itertools.product(range(t), all_bits):
            if bits[h] == 0 and v.base not in fixed_sets[h]:
                carried[name].add((mask(v, bits), mask(v, bits[:h] + (1,) + bits[h + 1:])))

    return PHGraph(points=tuple(points), hyperplanes=tuple(hyperplanes), extrusion_order=t,
                   fixed_sets=tuple(fixed_sets), **{k: tuple(e) for k, e in carried.items()})


def word_permutations(graph) -> dict:
    """Per element of Z2^t, the position of each vertex's image by its word."""
    pos = graph.position
    return {gamma: np.array([pos[Vertex(v.base, word_add(v.word, gamma))]
                             for v in graph.vertices], dtype=np.intp).reshape(-1)
            for gamma in group_elements(graph.extrusion_order)}
