"""Test-only references for the extrusion construction and its symmetry check.

:func:`scalar_verify_extrusion_symmetry` evaluates every law for every vertex
and requested element in one Python loop, recording as it goes, as
:func:`extrig.frameworks.verify_extrusion_symmetry` did before it kept the
residuals on the framework; :func:`residual_table` is the table it keeps,
one ``np.linalg.norm`` per pair.  :func:`masked_extrusion_product` builds each edge
copy by masking both of its ends with the copy's bits, and
:func:`word_permutations` reads each element's vertex permutation off the
words by :func:`word_add` and a position lookup.  :func:`extrusion_displacement`
is the displacement of one word by its definition, the reference for
:func:`extrig.frameworks.displacements` on :attr:`extrig.graphs.PHGraph.steps`.
:func:`row_flips` and :func:`row_action` map the rows of a
:class:`~extrig.rigidity.RowLayout` one label at a time, from
:func:`extrusion_coordinate` and the word images of the ends.  None is a
code path of the package.
"""
import itertools

import numpy as np

from extrig.frameworks import SymmetryReport, _contained
from extrig.graphs import _EDGE_FIELDS, STAR, PHGraph, Vertex, group_elements, subgroup_elements
from extrig.linalg import RANK_TOL, numeric_rank
from extrig.rigidity import ROW_KINDS


def word_add(word: str, gamma) -> str:
    """Word addition mod 2 with star absorption."""
    if len(word) != len(gamma):
        raise ValueError(f"word {word!r} has length {len(word)}, group element has {len(gamma)}")
    return "".join(c if c == STAR else str((int(c) + g) % 2) for c, g in zip(word, gamma))


def extrusion_displacement(spec, word: str, gamma) -> np.ndarray:
    """Displacement of a vertex with the given word induced by ``gamma``.

    Sum of +tau_h over positions where the word has 0 and gamma has 1, minus
    tau_h where the word has 1 and gamma has 1; starred positions contribute
    nothing.
    """
    out = np.zeros(spec.directions.shape[1])
    for h, (c, g) in enumerate(zip(word, gamma)):
        if g == 1 and c == "0":
            out += spec.directions[h]
        elif g == 1 and c == "1":
            out -= spec.directions[h]
    return out


def residual_table(fw) -> np.ndarray:
    """The residuals of laws (i), (ii) and (iv), one row per element of
    Z2^t in the order of :func:`group_elements`, each pair evaluated by its
    definition with ``np.linalg.norm``, the identity row included."""
    spec, graph = fw.extrusion, fw.graph
    rows = []
    for gamma in group_elements(spec.order):
        row = []
        for v in graph.points:
            shift = extrusion_displacement(spec, v.word, gamma)
            row.append(np.linalg.norm(fw.point(graph.act(gamma, v)) - (fw.point(v) + shift)))
        for w in graph.hyperplanes:
            shift = extrusion_displacement(spec, w.word, gamma)
            a, r = fw.hyperplane(w)
            ia, ir = fw.hyperplane(graph.act(gamma, w))
            row += [np.linalg.norm(ia - a), abs(ir - (r + float(np.dot(a, shift))))]
        rows.append(row)
    return np.array(rows, dtype=float)


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

    for gamma in elements:
        for v in graph.points:
            shift = extrusion_displacement(spec, v.word, gamma)
            record("point-translation", v, gamma,
                   np.linalg.norm(fw.point(graph.act(gamma, v)) - (fw.point(v) + shift)))
        for w in graph.hyperplanes:
            shift = extrusion_displacement(spec, w.word, gamma)
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
                   **{k: tuple(e) for k, e in carried.items()})


def word_permutations(graph) -> dict:
    """Per element of Z2^t, the position of each vertex's image by its word."""
    pos = graph.position
    return {gamma: np.array([pos[Vertex(v.base, word_add(v.word, gamma))]
                             for v in graph.vertices], dtype=np.intp).reshape(-1)
            for gamma in group_elements(graph.extrusion_order)}


def extrusion_coordinate(edge):
    """Position in which the endpoint words of a copy-joining edge differ.

    Returns None for edges whose endpoints have distinct bases.
    """
    u, v = edge
    if u.base != v.base:
        return None
    diff = [h for h, (a, b) in enumerate(zip(u.word, v.word)) if a != b]
    if len(diff) != 1:
        raise ValueError(f"edge {u}-{v} joins copies differing in {len(diff)} coordinates")
    return diff[0]


def row_flips(layout) -> np.ndarray:
    """Per row label, the :func:`extrusion_coordinate` of a signed row's ends,
    t when there is none."""
    t = layout.graph.extrusion_order
    coords = [extrusion_coordinate(lab[1]) if ROW_KINDS[lab[0]].signed else None
              for lab in layout.rows]
    return np.array([t if h is None else h for h in coords], dtype=np.intp)


def row_action(layout, elements) -> list:
    """Per element, ``(target, sign)`` of the rows: each label's image is the
    label on the word images of its ends, looked up among the labels."""
    graph, rows = layout.graph, layout.rows
    at = {lab: i for i, lab in enumerate(rows)}
    flips = row_flips(layout)
    out = []
    for gamma in elements:
        target = []
        for lab in rows:
            ends = (lab[1],) if lab[0] == "norm" else lab[1]
            image = sorted((Vertex(v.base, word_add(v.word, gamma)) for v in ends),
                           key=graph.position.get)
            image = (lab[0], *image) if lab[0] == "norm" else (lab[0], tuple(image), *lab[2:])
            if image not in at:
                raise ValueError(f"row {lab} maps outside the surviving rows under {gamma}")
            target.append(at[image])
        sign = [-1.0 if h < len(gamma) and gamma[h] else 1.0 for h in flips]
        out.append((np.array(target, dtype=np.intp), np.array(sign)))
    return out

