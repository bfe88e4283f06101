"""Hypothesis strategies for generated extrusion frameworks, shared by the test modules."""
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from extrig.frameworks import Configuration, Framework, extrude_framework
from extrig.graphs import PHGraph, Vertex
from extrig.rigidity import EMPTY_PIN, PinningSpec, hyperplane_pinning


@st.composite
def random_bar_joint_bases(draw):
    """``(base, directions)``: a generic bar-joint base of 2..5 points with
    random bars in d = 2, 3, and t <= 3 extrusion directions."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [Vertex(f"p{i}") for i in range(n)]
    bars = tuple(e for e in itertools.combinations(pts, 2) if draw(st.booleans()))
    base = Framework(PHGraph(points=tuple(pts), hyperplanes=(), edges_pp=bars),
                     Configuration(d, rng.normal(size=(n, d)), np.zeros((0, d + 1))))
    return base, rng.normal(size=(t, d))


def random_bar_joint_extrusions():
    """A generic bar-joint base of 2..5 points with random bars, extruded t <= 3 times."""
    return random_bar_joint_bases().map(lambda drawn: extrude_framework(*drawn))


@st.composite
def rigid_fan_extrusions(draw):
    """A seeded rigid fan in the plane, extruded once along a drawn direction.

    A hub at the origin is joined to 3..12 rim points, and the rim points
    are joined in a path.  They sit on a convex arc at jittered angles and
    radii, so every fan triangle keeps an area bounded away from zero.  The
    two copies are rigid bodies joined by parallel bars of equal length:
    under a minimal pinning the extrusion has exactly one flex."""
    rim = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angles = (np.arange(rim) + rng.uniform(0.3, 0.7, rim)) * (np.pi / rim)
    radii = rng.uniform(3.0, 5.0, rim)
    points = np.vstack([(0.0, 0.0), radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])])
    bars = [(0, i) for i in range(1, rim + 1)] + [(i, i + 1) for i in range(1, rim)]
    angle = rng.uniform(0.0, np.pi)
    return extruded(points, bars, [rng.uniform(2.0, 4.0) * np.array([np.cos(angle), np.sin(angle)])])


def extruded(base_points, bars, directions):
    """Bar-joint framework on points p0.. with bars between the index pairs, extruded."""
    pts = tuple(Vertex(f"p{i}") for i in range(len(base_points)))
    d = len(base_points[0])
    base = Framework(PHGraph(points=pts, hyperplanes=(),
                             edges_pp=tuple((pts[i], pts[j]) for i, j in bars)),
                     Configuration(d, np.array(base_points, dtype=float), np.zeros((0, d + 1))))
    return extrude_framework(base, directions)


def triangle_extruded(directions=((1.3, 0.4),)):
    return extruded([(0, 0), (2, 0.5), (0.4, 1.7)], [(0, 1), (1, 2), (0, 2)], directions)


def with_extra_bars(fw, pairs):
    """The framework with bars added between the labelled vertices (a symmetric set)."""
    by_label = {v.label: v for v in fw.graph.points}
    extra = tuple((by_label[a], by_label[b]) for a, b in pairs)
    graph = PHGraph(points=fw.graph.points, hyperplanes=(), edges_pp=fw.graph.edges_pp + extra,
                    extrusion_order=fw.graph.extrusion_order)
    return Framework(graph, fw.config, fw.extrusion)


def with_starred_point(fw):
    """The framework with an isolated point q|*, fixed by the action."""
    graph = PHGraph(points=fw.graph.points + (Vertex("q", "*" * fw.graph.extrusion_order),),
                    hyperplanes=(), edges_pp=fw.graph.edges_pp,
                    extrusion_order=fw.graph.extrusion_order)
    points = np.vstack([fw.config.points, np.full((1, fw.dim), 0.9)])
    return Framework(graph, Configuration(fw.dim, points, fw.config.hyperplanes), fw.extrusion)


@st.composite
def _point_hyperplane_extrusions(draw, min_points, degenerate):
    d = draw(st.integers(2, 3))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # the shared direction u: every normal, extrusion direction and base
    # point difference is drawn orthogonal to it
    shared = rng.normal(size=(int(degenerate and draw(st.booleans())), d))
    shared /= np.linalg.norm(shared, axis=1, keepdims=True)
    off = lambda vecs, q: vecs - (vecs @ q) @ q.T  # noqa: E731
    directions = off(rng.normal(size=(t, d)), shared.T)
    pts = [Vertex(f"p{i}") for i in range(draw(st.integers(min_points, 3)))]
    hyps = [Vertex(f"w{i}") for i in range(draw(st.integers(1, 3)))]
    contracted = [draw(st.sets(st.integers(0, t - 1), max_size=d - 1 - len(shared)))
                  for _ in hyps]
    rows = []
    for along in contracted:
        q = np.linalg.qr(np.vstack([directions[sorted(along)], shared]).T)[0]
        rows.append(np.append(off(rng.normal(size=d), q), rng.normal()))
    pick = lambda pairs: tuple(e for e in pairs if draw(st.booleans()))  # noqa: E731
    graph = PHGraph(points=tuple(pts), hyperplanes=tuple(hyps),
                    edges_pp=pick(itertools.combinations(pts, 2)),
                    edges_ph=pick(itertools.product(pts, hyps)),
                    edges_hh_angle=pick(itertools.combinations(hyps, 2)))
    points = rng.normal(size=(len(pts), d))
    if len(shared):
        points[1:] = points[:1] + off(points[1:] - points[:1], shared.T)
    base = Framework(graph, Configuration(d, points, np.array(rows)))
    fixed = [{w.base for w, along in zip(hyps, contracted) if h in along} for h in range(t)]
    fw = extrude_framework(base, directions, fixed)
    if any("*" in w.word for _, w in fw.graph.edges_ph):
        pin, reduced = hyperplane_pinning(fw)
        return Framework(fw.graph, fw.config, reduced), pin
    return fw, EMPTY_PIN


def random_point_hyperplane_extrusions():
    """A generic point-hyperplane base (d = 2, 3) of 1..3 points with random
    pp, ph and angle edges, extruded t <= 3 times.  Each base hyperplane is
    contracted along a random set of at most d - 1 directions, its normal
    drawn orthogonal to them.  When a ph edge meets a contracted hyperplane,
    the framework comes with :func:`hyperplane_pinning` and its reduced
    active set."""
    return _point_hyperplane_extrusions(min_points=1, degenerate=False)


def degenerate_point_hyperplane_extrusions():
    """As :func:`random_point_hyperplane_extrusions`, but with 0..3 base
    points and, half the time, a shared direction orthogonal to every
    normal, extrusion direction and base point difference, so that the
    normals and point differences often span less than the space, or
    parallel copies are all there is."""
    return _point_hyperplane_extrusions(min_points=0, degenerate=True)


@st.composite
def pinned_extrusions(draw, cases=None):
    """A drawn extrusion with a drawn pinning: one to six coordinates of any
    vertices, and hyperplanes fully pinned or parallel-only, on top of the
    pinning the (framework, pinning) ``cases`` draw with it (by default a
    bar-joint extrusion or a point-hyperplane one, which may come with a
    hyperplane pinning).  A document holds no empty pinning, so every draw
    pins something."""
    if cases is None:
        cases = st.one_of(random_bar_joint_extrusions().map(lambda fw: (fw, EMPTY_PIN)),
                          random_point_hyperplane_extrusions())
    fw, pin = draw(cases)
    graph, d = fw.graph, fw.dim
    coords = [(v, c) for v in graph.vertices for c in range(d if graph.is_point(v) else d + 1)]
    hyperplanes = st.sets(st.sampled_from(graph.hyperplanes)) if graph.hyperplanes else st.just(set())
    full = pin.full_hyperplanes | draw(hyperplanes)
    return fw, PinningSpec(coords=pin.coords | draw(st.sets(st.sampled_from(coords), min_size=1, max_size=6)),
                           full_hyperplanes=full, parallel_only=(pin.parallel_only | draw(hyperplanes)) - full)


def _workloads():
    """The benchmark's input generator, ``perfbench/workloads.py``, loaded once."""
    if "ladder_workloads" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("ladder_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["ladder_workloads"]


def ladder_rung(name, seed=1):
    """The barjoint_ladder rung of that name, built by the benchmark's own
    generator (``perfbench/workloads.py``): the ladder reaches t = 5, past
    what the strategies above draw."""
    workloads = _workloads()
    root = Path(workloads.__file__).parent
    item, = (item for item in workloads.generate("barjoint_ladder", seed, root)
             if item["name"] == name)
    return extrude_framework(workloads.build_base(item["base"]), item["directions"],
                             [tuple(f) for f in item["fixed"]])


def flex_certify_frameworks(seed=1):
    """``(name, framework, t)`` of every flex_certify item and invocation
    probe, built by the benchmark's own generator (``perfbench/workloads.py``)."""
    workloads = _workloads()
    root = Path(workloads.__file__).parent
    specs = workloads.generate("flex_certify", seed, root) + workloads.probes("flex_certify", seed)
    return [(spec["name"], extrude_framework(workloads.build_base(spec["base"]), spec["directions"],
                                             [tuple(f) for f in spec["fixed"]]), spec["t"])
            for spec in specs]


def fan_extrusion(rim, t, seed=1):
    """The ladder's rigid fan of ``rim`` rim points, extruded t times along the
    directions its generator draws for that t: the rung ``fan{rim}_t{t}`` for
    t <= 3, and the same construction past the ladder's top."""
    workloads = _workloads()
    base = workloads.build_base(workloads.rigid_fan(workloads._rng(seed, 1, rim), rim))
    directions = workloads.plane_directions(workloads._rng(seed, 2, rim, t), t)
    return extrude_framework(base, directions, [()] * t)


@st.composite
def near_parallel_extrusions(draw):
    """A generic bar-joint base of 2..5 points with random bars in d = 2, 3,
    extruded t = 2..5 times.  Direction 1 lies at a drawn angle between
    1e-12 and 1e-3 from direction 0; each later one is, at random, a fresh
    direction or another such near copy of an earlier one.  Near-parallel
    directions make the blocks that hold both nearly rank deficient."""
    base, _ = draw(random_bar_joint_bases())
    d, t = base.dim, draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    directions = [rng.normal(size=d)]
    for h in range(1, t):
        if h > 1 and draw(st.booleans()):
            directions.append(rng.normal(size=d))
            continue
        near = directions[draw(st.integers(0, h - 1))]
        unit = near / np.linalg.norm(near)
        turn = rng.normal(size=d)
        turn -= (turn @ unit) * unit
        angle = 10.0 ** draw(st.floats(-12.0, -3.0))
        along = np.cos(angle) * unit + np.sin(angle) * turn / np.linalg.norm(turn)
        directions.append(rng.uniform(0.5, 2.0) * np.linalg.norm(near) * along)
    return extrude_framework(base, np.array(directions))
