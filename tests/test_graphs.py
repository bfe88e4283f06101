import itertools
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extrusion_oracles import (extrusion_coordinate, masked_extrusion_product,
                               scalar_edge_positions, word_add, word_permutations)
from extrusions import (random_bar_joint_extrusions, random_point_hyperplane_extrusions,
                        rigid_fan_extrusions)
from extrig import documents
from extrig.graphs import (PHGraph, Vertex, complete_decorated, extrusion_product, group_elements,
                           remove_edge, subgroup_elements)
from extrig.fixtures import (constrained_cube, point_line_base, point_line_twofold,
                             prism, triangle)

GALLERY = [documents.load(path).framework.graph
           for path in sorted(resources.files("extrig").joinpath("data").iterdir())
           if path.name.endswith(".json")]


def k3_graph():
    return triangle().graph


def path_graph():
    return point_line_base().graph


def test_word_add_examples():
    assert word_add("0", (1,)) == "1"
    assert word_add("*0", (1, 0)) == "*0"
    assert word_add("*0", (0, 1)) == "*1"
    assert word_add("01", (0, 0)) == "01"


@given(st.integers(1, 3), st.data())
def test_word_add_is_group_action(t, data):
    bits = st.sampled_from("01*")
    word = "".join(data.draw(bits) for _ in range(t))
    g1 = tuple(data.draw(st.integers(0, 1)) for _ in range(t))
    g2 = tuple(data.draw(st.integers(0, 1)) for _ in range(t))
    combined = tuple((a + b) % 2 for a, b in zip(g1, g2))
    assert word_add(word_add(word, g1), g2) == word_add(word, combined)
    assert word_add(word, (0,) * t) == word


@st.composite
def random_extrusion_inputs(draw):
    """A small random base and t <= 3 random hyperplane fixed sets (starred
    word positions)."""
    pts = [Vertex(f"p{i}") for i in range(draw(st.integers(1, 3)))]
    hyps = [Vertex(f"w{i}") for i in range(draw(st.integers(0, 3)))]
    label = [draw(st.integers(0, 1)) for _ in hyps]   # angle edges only across labels
    edges = {"pp": [], "ph": [], "hh-angle": [], "hh-par": []}
    for u, v in itertools.combinations(pts, 2):
        if draw(st.booleans()):
            edges["pp"].append((u, v))
    for u, v in itertools.product(pts, hyps):
        if draw(st.booleans()):
            edges["ph"].append((u, v))
    for (i, u), (j, v) in itertools.combinations(enumerate(hyps), 2):
        if draw(st.booleans()):
            edges["hh-par" if label[i] == label[j] else "hh-angle"].append((u, v))
    base = PHGraph(points=tuple(pts), hyperplanes=tuple(hyps),
                   edges_pp=tuple(edges["pp"]), edges_ph=tuple(edges["ph"]),
                   edges_hh_angle=tuple(edges["hh-angle"]), edges_hh_par=tuple(edges["hh-par"]))
    t = draw(st.integers(1, 3))
    fixed = [[w.base for w in hyps if draw(st.booleans())] for _ in range(t)]
    return base, fixed


def random_extrusions():
    """extrusion_product of :func:`random_extrusion_inputs`."""
    return random_extrusion_inputs().map(lambda inputs: extrusion_product(*inputs))


@settings(max_examples=200, deadline=None)
@given(random_extrusion_inputs())
def test_extrusion_product_matches_the_masked_construction(inputs):
    """Same fields in the same order, same edge positions, and every element's
    permutation equal to the one read off the words."""
    graph, oracle = extrusion_product(*inputs), masked_extrusion_product(*inputs)
    assert graph == oracle
    assert graph.fixed_sets == tuple(frozenset(fs) for fs in inputs[1])
    assert graph.vertices == oracle.vertices
    for ends, want in zip(graph.edge_ends, oracle.edge_ends):
        assert np.array_equal(ends, want) and ends.dtype == want.dtype
    assert graph.parallel_classes == oracle.parallel_classes
    for gamma, perm in word_permutations(oracle).items():
        assert np.array_equal(graph.permutation(gamma), perm)
        assert np.array_equal(oracle.permutation(gamma), perm)


def assert_same_graph(graph, ref):
    """Every field of two graphs, arrays by value, dtype and read-only flag."""
    assert graph == ref and graph.vertices == ref.vertices and graph.edges == ref.edges
    assert graph.position == ref.position and graph.class_index == ref.class_index
    assert graph.parallel_classes == ref.parallel_classes and graph.fixed_sets == ref.fixed_sets
    pairs = [(a, b) for a, b in zip(graph.edge_ends, ref.edge_ends)] + [(graph.steps, ref.steps)]
    pairs += [(graph.permutation(g), ref.permutation(g)) for g in group_elements(ref.extrusion_order)]
    for mine, theirs in pairs:
        assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype
        assert not mine.flags.writeable and mine.flags.c_contiguous
    u, v = np.triu_indices(len(ref.vertices), 1)
    outcomes = []
    for g in (graph, ref):
        try:
            outcomes.append(g.copy_coordinate(u, v).tolist())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_extrusions(), random_bar_joint_extrusions().map(lambda fw: fw.graph),
                 rigid_fan_extrusions().map(lambda fw: fw.graph),
                 random_point_hyperplane_extrusions().map(lambda case: case[0].graph)))
def test_extruded_graph_equals_the_validated_one(graph):
    """extrusion_product hands the graph its ends, steps, base ranks and
    generators unchecked; the validating constructor, given the same
    vertices and edges, builds the same graph in every field."""
    ref = PHGraph(points=graph.points, hyperplanes=graph.hyperplanes, edges_pp=graph.edges_pp,
                  edges_ph=graph.edges_ph, edges_hh_angle=graph.edges_hh_angle,
                  edges_hh_par=graph.edges_hh_par, extrusion_order=graph.extrusion_order)
    assert_same_graph(graph, ref)


@given(random_extrusions())
def test_action_matches_word_definition_on_random_extrusions(g):
    t = g.extrusion_order
    for gamma in group_elements(t):
        perm = g.permutation(gamma)
        for i, v in enumerate(g.vertices):
            image = Vertex(v.base, word_add(v.word, gamma))
            assert g.act(gamma, v) == image
            assert g.vertices[perm[i]] == image
    for g1, g2 in itertools.product(group_elements(t), repeat=2):
        combined = tuple((a + b) % 2 for a, b in zip(g1, g2))
        assert np.array_equal(g.permutation(g2)[g.permutation(g1)], g.permutation(combined))


@given(st.one_of(random_extrusions(), st.sampled_from([k3_graph(), path_graph()])))
def test_copy_coordinate_matches_the_words(g):
    """copy_coordinate of every edge's ends is extrusion_coordinate (t for
    distinct bases)."""
    t = g.extrusion_order
    for edges, (u, v) in zip((g.edges_pp, g.edges_ph, g.edges_hh_angle, g.edges_hh_par),
                             (ends.T for ends in g.edge_ends)):
        want = [extrusion_coordinate(e) for e in edges]
        assert g.copy_coordinate(u, v).tolist() == [t if h is None else h for h in want]


@settings(deadline=None)
@given(st.one_of(random_extrusions(), st.sampled_from(GALLERY),
                 random_bar_joint_extrusions().map(lambda fw: fw.graph),
                 random_point_hyperplane_extrusions().map(lambda case: case[0].graph)))
def test_steps_and_fixed_sets_match_the_words(g):
    """steps is +1, -1, 0 for each word's 0, 1, * digits, in vertex order;
    fixed_sets[h] holds the bases of the hyperplanes starred at position h."""
    t = g.extrusion_order
    want = [[{"0": 1, "1": -1, "*": 0}[c] for c in v.word] for v in g.vertices]
    assert g.steps.shape == (len(g.vertices), t) and g.steps.tolist() == want
    assert not g.steps.flags.writeable
    assert g.fixed_sets == tuple(frozenset(w.base for w in g.hyperplanes if w.word[h] == "*")
                                 for h in range(t))


def test_group_elements_order():
    assert group_elements(1) == [(0,), (1,)]
    assert group_elements(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert subgroup_elements(2, (0,)) == [(0, 0), (1, 0)]


def test_extrusion_product_prism_counts():
    g = extrusion_product(k3_graph(), [()])
    assert len(g.vertices) == 6
    assert len(g.edges) == 9
    assert len(g.edges_pp) == 9


def test_extrusion_product_contracted_path():
    g = extrusion_product(path_graph(), [("w1",)])
    assert len(g.vertices) == 5
    assert len(g.edges) == 6
    assert Vertex("w1", "*") in g.hyperplanes
    assert len(g.edges_hh_par) == 1


def test_extrusion_product_empty_is_identity():
    g = k3_graph()
    assert extrusion_product(g, []) is g


@pytest.mark.parametrize("t", [1, 2, 3])
def test_free_product_counts(t):
    g = extrusion_product(k3_graph(), [()] * t)
    assert len(g.vertices) == 3 * 2 ** t
    assert len(g.edges) == 3 * 2 ** t + 3 * t * 2 ** (t - 1)


def test_product_rejects_point_in_fixed_set():
    with pytest.raises(ValueError):
        extrusion_product(k3_graph(), [("p1",)])


def test_action_is_homomorphism_exhaustive():
    for g in (prism().graph, point_line_twofold().graph, constrained_cube().graph):
        t = g.extrusion_order
        for g1, g2 in itertools.product(group_elements(t), repeat=2):
            combined = tuple((a + b) % 2 for a, b in zip(g1, g2))
            for v in g.vertices:
                assert g.act(g2, g.act(g1, v)) == g.act(combined, v)


def test_action_examples():
    g = prism().graph
    assert g.act((1,), Vertex("p1", "0")) == Vertex("p1", "1")
    assert g.act((0,), Vertex("p1", "0")) == Vertex("p1", "0")
    g2 = point_line_twofold().graph
    assert g2.act((1, 0), Vertex("w1", "*0")) == Vertex("w1", "*0")
    with pytest.raises(ValueError):
        g.act((1,), Vertex("nope", "0"))


NOT_FIXED = "not-fixed"
FIXED_SWAPPED = "fixed-swapped"
FIXED_POINTWISE = "fixed-pointwise"


def classify_edge(graph, gamma, edge) -> str:
    """How ``gamma`` moves an edge: not fixed, endpoints swapped, or both fixed."""
    u, v = edge
    iu, iv = graph.act(gamma, u), graph.act(gamma, v)
    if {iu, iv} != {u, v}:
        return NOT_FIXED
    return FIXED_POINTWISE if iu == u else FIXED_SWAPPED


def edge_sign(gamma, edge) -> int:
    """Sign of ``edge`` in the internal representation of ``gamma``: -1
    exactly when the edge joins two copies of one base vertex and ``gamma``
    flips the coordinate in which their words differ."""
    h = extrusion_coordinate(edge)
    return -1 if h is not None and gamma[h] == 1 else 1


def test_edge_classification_prism():
    g = prism().graph
    extrusion_edge = (Vertex("p1", "0"), Vertex("p1", "1"))
    triangle_edge = (Vertex("p1", "0"), Vertex("p2", "0"))
    assert classify_edge(g, (1,), extrusion_edge) == FIXED_SWAPPED
    assert classify_edge(g, (1,), triangle_edge) == NOT_FIXED
    assert classify_edge(g, (0,), triangle_edge) == FIXED_POINTWISE
    assert edge_sign((1,), extrusion_edge) == -1
    assert edge_sign((1,), triangle_edge) == 1


def test_edge_classification_twofold_point_line():
    g = point_line_twofold().graph
    par_w1 = (Vertex("w1", "*0"), Vertex("w1", "*1"))
    par_w2 = (Vertex("w2", "0*"), Vertex("w2", "1*"))
    assert par_w1 in g.edges_hh_par and par_w2 in g.edges_hh_par
    # enumerate the action of (0,1) over every edge
    by_class = {NOT_FIXED: [], FIXED_SWAPPED: [], FIXED_POINTWISE: []}
    for e in g.edges:
        by_class[classify_edge(g, (0, 1), e)].append(e)
    assert par_w1 in by_class[FIXED_SWAPPED]
    assert by_class[FIXED_POINTWISE] == [par_w2]
    assert len(by_class[FIXED_SWAPPED]) == 3  # two pp copy edges plus the w1 pair
    assert edge_sign((0, 1), par_w1) == -1
    assert edge_sign((0, 1), par_w2) == 1


def test_multi_star_contraction():
    g = constrained_cube().graph
    assert Vertex("w1", "**0") in g.hyperplanes
    assert Vertex("w2", "0**") in g.hyperplanes
    assert len(g.points) == 8 and len(g.hyperplanes) == 4
    assert len(g.edges_pp) == 12 and len(g.edges_ph) == 16 and len(g.edges_hh_par) == 2


def test_parallel_classes():
    g = point_line_twofold().graph
    classes = g.parallel_classes
    assert sorted(tuple(v.label for v in c) for c in classes) == [
        ("w1|*0", "w1|*1"), ("w2|0*", "w2|1*")]
    for u, v in g.edges_hh_par:
        assert g.class_index[u] == g.class_index[v]


def test_edge_sets_invariant_under_action():
    for g in (prism().graph, point_line_twofold().graph, constrained_cube().graph):
        for gamma in group_elements(g.extrusion_order):
            for edges in (g.edges_pp, g.edges_ph, g.edges_hh_angle, g.edges_hh_par):
                for e in edges:
                    iu, iv = g.act(gamma, e[0]), g.act(gamma, e[1])
                    assert any(frozenset((iu, iv)) == frozenset(f) for f in edges)


def test_angle_edges_must_join_distinct_classes():
    w1, w2 = Vertex("w1"), Vertex("w2")
    with pytest.raises(ValueError):
        PHGraph(points=(), hyperplanes=(w1, w2),
                edges_hh_angle=((w1, w2),), edges_hh_par=((w1, w2),))


def test_remove_edge():
    g = prism().graph
    g2 = remove_edge(g, Vertex("p1", "0"), Vertex("p1", "1"))
    assert len(g2.edges) == 8
    with pytest.raises(ValueError):
        remove_edge(g2, Vertex("p1", "0"), Vertex("p1", "1"))


def test_complete_decorated():
    g = point_line_twofold().graph
    k = complete_decorated(g)
    assert len(k.edges_pp) == 6
    assert len(k.edges_ph) == 16
    assert len(k.edges_hh_par) == 2
    assert len(k.edges_hh_angle) == 4
    assert k.parallel_classes == g.parallel_classes


def test_action_must_permute_the_vertices():
    with pytest.raises(ValueError, match="does not permute the vertices"):
        PHGraph(points=(Vertex("p", "0"),), hyperplanes=(), extrusion_order=1)


def test_action_must_preserve_the_edge_sets():
    pts = tuple(Vertex(b, w) for b in "pq" for w in "01")
    with pytest.raises(ValueError, match="does not preserve an edge set"):
        PHGraph(points=pts, hyperplanes=(), extrusion_order=1,
                edges_pp=((Vertex("p", "0"), Vertex("q", "0")),))


def test_permutation_rejects_non_elements():
    g = prism().graph
    with pytest.raises(ValueError):
        g.permutation((1, 0))
    with pytest.raises(ValueError):
        g.permutation((2,))


def test_edges_sorted_by_vertex_positions():
    for g in (prism().graph, point_line_twofold().graph, constrained_cube().graph,
              complete_decorated(constrained_cube().graph)):
        for edges in (g.edges_pp, g.edges_ph, g.edges_hh_angle, g.edges_hh_par):
            pairs = [(g.position[u], g.position[v]) for u, v in edges]
            assert all(a < b for a, b in pairs) and pairs == sorted(pairs)
            assert pairs == sorted(pairs, key=lambda e: (g.vertices[e[0]].sort_key(),
                                                         g.vertices[e[1]].sort_key()))


@given(st.text("ab", max_size=3), st.text("01*", max_size=3),
       st.text("ab", max_size=3), st.text("01*", max_size=3))
def test_vertex_hash_is_cached_and_equality_unchanged(base, word, other_base, other_word):
    import copy
    import pickle

    v, w = Vertex(base, word), Vertex(other_base, other_word)
    assert (v == w) == ((base, word) == (other_base, other_word))
    assert hash(v) == hash(Vertex(base, word)) == hash((base, word))
    assert v == Vertex(base, word) and v != (base, word)
    assert pickle.loads(pickle.dumps(v)) == v and copy.deepcopy(v) == v
    assert hash(pickle.loads(pickle.dumps(v))) == hash(v)
    lookup = {v: 1}
    lookup[Vertex(base, word)] = 2           # an equal vertex is the same key
    assert lookup == {v: 2} and len({v, Vertex(base, word), w}) == (1 if v == w else 2)
    assert repr(v) == f"Vertex({v.label!r})"


P0, P1, P2, W0, W1, W2, STRAY = (Vertex(b) for b in ("p0", "p1", "p2", "w0", "w1", "w2", "x"))
FIELDS = ("edges_pp", "edges_ph", "edges_hh_angle", "edges_hh_par")
# one well-formed edge per field; w0 and w1 form one parallel class
VALID = ((P0, P1), (P0, W0), (W0, W2), (W0, W1))
# per field, per case: the malformed edge and the message it raises
MALFORMED_EDGES = {
    "self-loop": [((P2, P2), "self-loop at p2"), ((P2, P2), "self-loop at p2"),
                  ((W2, W2), "self-loop at w2"), ((W2, W2), "self-loop at w2")],
    "unknown end": [((P2, STRAY), "edge p2-x has endpoints inconsistent with kind pp"),
                    ((P2, STRAY), "edge p2-x has endpoints inconsistent with kind ph"),
                    ((STRAY, W2), "edge x-w2 has endpoints inconsistent with kind hh-angle"),
                    ((W2, STRAY), "edge w2-x has endpoints inconsistent with kind hh-par")],
    "wrong kind": [((P2, W2), "edge p2-w2 has endpoints inconsistent with kind pp"),
                   ((W2, P2), "edge w2-p2 has endpoints inconsistent with kind ph"),
                   ((P2, W2), "edge p2-w2 has endpoints inconsistent with kind hh-angle"),
                   ((W2, P2), "edge w2-p2 has endpoints inconsistent with kind hh-par")],
    "duplicate": [((P0, P1), "duplicate edge p0-p1"), ((P0, W0), "duplicate edge p0-w0"),
                  ((W0, W2), "duplicate edge w0-w2"), ((W0, W1), "duplicate edge w0-w1")],
    # a ph edge names its point first, so the reversed one has the wrong kind
    "reversed duplicate": [((P1, P0), "duplicate edge p1-p0"),
                           ((W0, P0), "edge w0-p0 has endpoints inconsistent with kind ph"),
                           ((W2, W0), "duplicate edge w2-w0"), ((W1, W0), "duplicate edge w1-w0")],
}


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("case", sorted(MALFORMED_EDGES))
def test_edge_errors_name_the_first_offender_in_field_order(field, case):
    """Each field holds a well-formed edge, then the malformed one; a later
    offender in the same field (a self-loop at p1 or w1) and one in every
    later field go unreported."""
    edge, message = MALFORMED_EDGES[case][field]
    fields = [[e] for e in VALID]
    fields[field] += [edge, (P1, P1) if field < 2 else (W1, W1)]
    for later in range(field + 1, 4):
        fields[later].append(MALFORMED_EDGES["self-loop"][later][0])
    with pytest.raises(ValueError) as err:
        PHGraph(points=(P2, P1, P0), hyperplanes=(W2, W1, W0),
                **{name: tuple(edges) for name, edges in zip(FIELDS, fields)})
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        scalar_edge_positions((P2, P1, P0), (W2, W1, W0), fields)
    assert str(err.value) == message


@pytest.mark.parametrize("angle, par", [(((W0, W2), (W0, W1)), ((W0, W1), (W2, W0))),
                                        (((W0, W2), (W1, W0)), ((W0, W1),))])
def test_an_angle_edge_repeated_as_a_parallel_edge_is_a_duplicate(angle, par):
    """The fields share one set of seen pairs: the repeat is reported in the
    later field, hh-par, with its ends as given there."""
    u, v = next(e for e in par if frozenset(e) in {frozenset(a) for a in angle})
    with pytest.raises(ValueError) as err:
        PHGraph(points=(P0,), hyperplanes=(W0, W1, W2), edges_hh_angle=angle, edges_hh_par=par)
    assert str(err.value) == f"duplicate edge {u}-{v}"


@st.composite
def edge_fields(draw):
    """Points, hyperplanes and the four edge fields: well-formed edges in
    random order and orientation, with up to two malformed edges inserted
    (any two vertices, the stray x among them, or a repeat of a placed edge,
    as given or reversed).  Angle edges join hyperplanes of distinct labels,
    parallel edges hyperplanes of one label."""
    pts = tuple(Vertex(f"p{i}") for i in range(draw(st.integers(0, 4))))
    hyps = tuple(Vertex(f"w{i}") for i in range(draw(st.integers(0, 4))))
    label = {w: draw(st.integers(0, 1)) for w in hyps}
    hh = list(itertools.combinations(hyps, 2))
    choices = (list(itertools.combinations(pts, 2)), list(itertools.product(pts, hyps)),
               [e for e in hh if label[e[0]] != label[e[1]]],
               [e for e in hh if label[e[0]] == label[e[1]]])
    fields = []
    for f, pairs in enumerate(choices):
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        fields.append([(v, u) if flip and f != 1 else (u, v) for (u, v), flip in zip(edges, flips)])
    every = pts + hyps + (STRAY,)
    for _ in range(draw(st.integers(0, 2))):
        placed = [e for edges in fields for e in edges]
        anywhere = st.tuples(st.sampled_from(every), st.sampled_from(every))
        edge = draw(st.one_of(anywhere, st.sampled_from(placed)) if placed else anywhere)
        edge = edge[::-1] if draw(st.booleans()) else edge
        f = draw(st.integers(0, 3))
        fields[f].insert(draw(st.integers(0, len(fields[f]))), edge)
    return pts, hyps, fields


@settings(max_examples=300, deadline=None)
@given(edge_fields())
def test_edge_checks_and_order_match_the_per_edge_loop(drawn):
    """The constructor and the per-edge loop give equal edge_ends and edge
    tuples in the same order, or the same exception with the same message.
    A well-formed edge set may still put an angle edge inside one parallel
    class, which only the constructor checks."""
    pts, hyps, fields = drawn
    kwargs = {name: tuple(edges) for name, edges in zip(FIELDS, fields)}
    try:
        want = scalar_edge_positions(pts, hyps, fields)
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            PHGraph(points=pts, hyperplanes=hyps, **kwargs)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    try:
        g = PHGraph(points=pts, hyperplanes=hyps, **kwargs)
    except ValueError as exc:
        assert "joins hyperplanes in one parallel class" in str(exc)
        return
    for name, ends, pairs in zip(FIELDS, g.edge_ends, want):
        assert np.array_equal(ends, pairs) and ends.dtype == pairs.dtype
        assert getattr(g, name) == tuple((g.vertices[a], g.vertices[b]) for a, b in pairs)
