"""Hypothesis strategies for generated extrusion frameworks, shared by the test modules."""
import itertools

import numpy as np
from hypothesis import strategies as st

from extrig.frameworks import Configuration, Framework, extrude_framework
from extrig.graphs import PHGraph, Vertex
from extrig.rigidity import EMPTY_PIN, hyperplane_pinning


@st.composite
def random_bar_joint_extrusions(draw):
    """A generic bar-joint base of 2..5 points with random bars, extruded t <= 3 times."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [Vertex(f"p{i}") for i in range(n)]
    bars = tuple(e for e in itertools.combinations(pts, 2) if draw(st.booleans()))
    base = Framework(PHGraph(points=tuple(pts), hyperplanes=(), edges_pp=bars),
                     Configuration(d, rng.normal(size=(n, d)), np.zeros((0, d + 1))))
    return extrude_framework(base, rng.normal(size=(t, d)))


@st.composite
def random_point_hyperplane_extrusions(draw):
    """A generic point-hyperplane base (d = 2, 3) with random pp, ph and angle
    edges, extruded t <= 3 times.  Each base hyperplane is contracted along a
    random set of at most d - 1 directions, its normal drawn orthogonal to
    them.  When a ph edge meets a contracted hyperplane, the framework comes
    with :func:`hyperplane_pinning` and its reduced active set."""
    d = draw(st.integers(2, 3))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    directions = rng.normal(size=(t, d))
    pts = [Vertex(f"p{i}") for i in range(draw(st.integers(1, 3)))]
    hyps = [Vertex(f"w{i}") for i in range(draw(st.integers(1, 3)))]
    contracted = [draw(st.sets(st.integers(0, t - 1), max_size=d - 1)) for _ in hyps]
    rows = []
    for along in contracted:
        normal = rng.normal(size=d)
        if along:
            q = np.linalg.qr(directions[sorted(along)].T)[0]
            normal -= q @ (q.T @ normal)
        rows.append(np.append(normal, rng.normal()))
    pick = lambda pairs: tuple(e for e in pairs if draw(st.booleans()))  # noqa: E731
    graph = PHGraph(points=tuple(pts), hyperplanes=tuple(hyps),
                    edges_pp=pick(itertools.combinations(pts, 2)),
                    edges_ph=pick(itertools.product(pts, hyps)),
                    edges_hh_angle=pick(itertools.combinations(hyps, 2)))
    base = Framework(graph, Configuration(d, rng.normal(size=(len(pts), d)), np.array(rows)))
    fixed = [{w.base for w, along in zip(hyps, contracted) if h in along} for h in range(t)]
    fw = extrude_framework(base, directions, fixed)
    if any("*" in w.word for _, w in fw.graph.edges_ph):
        pin, reduced = hyperplane_pinning(fw)
        return Framework(fw.graph, fw.config, reduced), pin
    return fw, EMPTY_PIN
