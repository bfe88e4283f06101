"""Hypothesis strategies for generated extrusion frameworks, shared by the test modules."""
import itertools

import numpy as np
from hypothesis import strategies as st

from extrig.frameworks import Configuration, Framework, extrude_framework
from extrig.graphs import PHGraph, Vertex


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
