import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extrig
from extrig import documents
from extrig.fixtures import FIXTURES, PINNED_FIXTURES
from extrig.frameworks import Configuration, Framework, extrude_framework
from extrig.graphs import PHGraph, Vertex, remove_edge
from extrig.rigidity import PinningSpec, hyperplane_pinning

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("extrig") / "data"


# the CLI child imports the same extrig as the tests, also when pytest put src/ on sys.path
SRC = str(Path(extrig.__file__).resolve().parent.parent)
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "extrig.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=CHILD_ENV)


def test_cli_import_leaves_scipy_out():
    res = subprocess.run([sys.executable, "-c",
                          "import sys, extrig.cli; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=CHILD_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def frameworks_equal(a, b):
    if a.graph != b.graph or a.dim != b.dim:
        return False
    if not (np.array_equal(a.config.points, b.config.points)
            and np.array_equal(a.config.hyperplanes, b.config.hyperplanes)):
        return False
    if (a.extrusion is None) != (b.extrusion is None):
        return False
    if a.extrusion is not None:
        return (np.array_equal(a.extrusion.directions, b.extrusion.directions)
                and a.extrusion.active == b.extrusion.active)
    return True


@pytest.mark.parametrize("name,builder", sorted(FIXTURES.items()))
def test_round_trip_exact(name, builder):
    fw = builder()
    doc = documents.framework_from_document(json.loads(documents.serialize(fw)))
    assert frameworks_equal(doc.framework, fw)
    assert doc.pinning is None


@pytest.mark.parametrize("name,builder", sorted(PINNED_FIXTURES.items()))
def test_round_trip_with_pinning(name, builder):
    fw, pin = builder()
    doc = documents.framework_from_document(json.loads(documents.serialize(fw, pin)))
    assert frameworks_equal(doc.framework, fw)
    assert doc.pinning == pin


def test_round_trip_full_precision():
    fw = FIXTURES["prism"]()
    wild = fw.config.points.copy()
    wild[0, 0] = 1.0 / 3.0
    wild[1, 1] = np.nextafter(2.0, 3.0)
    bent = Framework(fw.graph, Configuration(2, wild, fw.config.hyperplanes))
    doc = documents.framework_from_document(json.loads(documents.serialize(bent)))
    assert np.array_equal(doc.framework.config.points, wild)


def _bundled(name) -> Framework:
    return documents.load(DATA / f"{name}.json").framework


def _extruded(base, directions, fixes=None):
    return documents.FrameworkDocument(extrude_framework(base, directions, fixes))


def _hyperplane_pinned(name):
    fw = _bundled(name)
    pin, reduced = hyperplane_pinning(fw)
    return documents.FrameworkDocument(Framework(fw.graph, fw.config, reduced), pin)


def _prism_pinned():
    fw, u, v = _bundled("prism"), Vertex("p1", "0"), Vertex("p1", "1")
    return documents.FrameworkDocument(
        Framework(remove_edge(fw.graph, u, v), fw.config, fw.extrusion),
        PinningSpec(coords={(u, 0), (u, 1), (v, 0), (v, 1)}))


def _prism_twofold():
    base = Framework(_bundled("triangle").graph, Configuration(
        2, np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]), np.zeros((0, 3))))
    return _extruded(base, [(0.0, 3.0), (4.0, -0.8)])


def _constrained_cube():
    p, w1, w2 = Vertex("p"), Vertex("w1"), Vertex("w2")
    base = Framework(PHGraph(points=(p,), hyperplanes=(w1, w2), edges_ph=((p, w1), (p, w2))),
                     Configuration(3, np.zeros((1, 3)),
                                   np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])))
    return _extruded(base, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
                     [("w1",), ("w1", "w2"), ("w2",)])


DERIVATIONS = {   # bundled extrusion or pinning -> its construction by library calls
    "prism": lambda: _extruded(_bundled("triangle"), [(0.0, 2.0)]),
    "prism_pinned": _prism_pinned,
    "prism_twofold": _prism_twofold,
    "point_line_extruded": lambda: _extruded(_bundled("point_line_base"), [(4.0, 2.0)], [()]),
    "point_line_extruded_fixed": lambda: _extruded(_bundled("point_line_base"), [(2.0, 2.0)],
                                                   [("w1",)]),
    "point_line_extruded_fixed_pinned": lambda: _hyperplane_pinned("point_line_extruded_fixed"),
    "point_line_twofold": lambda: _extruded(_bundled("point_line_base"), [(2.0, 2.0), (4.0, 0.0)],
                                            [("w1",), ("w2",)]),
    "point_line_twofold_pinned": lambda: _hyperplane_pinned("point_line_twofold"),
    "constrained_cube": _constrained_cube,
    "constrained_cube_pinned": lambda: _hyperplane_pinned("constrained_cube"),
}


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
def test_bundled_extrusions_derive_from_their_bases(name):
    """Each bundled extrusion and pinning equals, array by array, its construction
    from the bundled bases (or a base written here) by extrude_framework,
    hyperplane_pinning and remove_edge."""
    doc, derived = documents.load(DATA / f"{name}.json"), DERIVATIONS[name]()
    assert frameworks_equal(doc.framework, derived.framework)
    assert doc.pinning == derived.pinning


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json")))
def test_gallery_document_round_trip(name, tmp_path):
    """load -> serialize -> load keeps graph, configuration, extrusion spec and
    pinning, and both loads serialize to the bundled file's text: every
    bundled document is canonical, so a hand edit must keep it so."""
    first = documents.load(DATA / name)
    dumped = tmp_path / name
    dumped.write_text(documents.serialize(first.framework, first.pinning))
    second = documents.load(dumped)
    assert frameworks_equal(second.framework, first.framework)
    assert second.pinning == first.pinning
    assert documents.serialize(second.framework, second.pinning) == dumped.read_text() \
        == (DATA / name).read_text()


def test_parse_errors():
    good = json.loads(documents.serialize(FIXTURES["prism"]()))
    bad = json.loads(json.dumps(good))
    bad["edges"][0]["u"] = "ghost"
    with pytest.raises(documents.DocumentError, match="unknown vertex"):
        documents.framework_from_document(bad)
    bad = json.loads(json.dumps(good))
    bad["vertices"].append(dict(bad["vertices"][0]))
    with pytest.raises(documents.DocumentError, match="duplicate"):
        documents.framework_from_document(bad)
    bad = json.loads(json.dumps(good))
    bad["vertices"][0]["kind"] = "banana"
    with pytest.raises(documents.DocumentError, match="unknown kind"):
        documents.framework_from_document(bad)
    with pytest.raises(documents.DocumentError, match="missing required key"):
        documents.framework_from_document({"dimension": 2})


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2,\n  "vertices": [}\n')
    with pytest.raises(documents.DocumentError, match="line 2"):
        documents.load(path)


@pytest.mark.parametrize("name", ["prism", "prism_pinned", "prism_twofold",
                                  "point_line_extruded", "point_line_extruded_fixed_pinned",
                                  "point_line_twofold_pinned", "constrained_cube_pinned",
                                  "triangle_cycle", "k33_orthogonal"])
def test_analyze_matches_golden(name, tmp_path):
    doc = tmp_path / f"{name}.json"
    doc.write_text((DATA / f"{name}.json").read_text())
    res = run_cli("analyze", str(doc))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / f"analyze_{name}.txt").read_text()


def test_analyze_deterministic(tmp_path):
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    a = run_cli("analyze", str(doc), "--json")
    b = run_cli("analyze", str(doc), "--json")
    assert a.stdout == b.stdout
    json.loads(a.stdout)


@pytest.mark.parametrize("name", ["prism_twofold", "point_line_twofold_pinned",
                                  "constrained_cube_pinned", "k33_orthogonal"])
def test_analyze_json_is_byte_identical_across_hash_seeds(name, tmp_path):
    """Two runs of ``analyze --json`` print the same bytes, also when string
    hashing, and so the iteration order of sets, differs between them."""
    doc = tmp_path / f"{name}.json"
    doc.write_text((DATA / f"{name}.json").read_text())
    runs = [subprocess.run([sys.executable, "-m", "extrig.cli", "analyze", str(doc), "--json"],
                           capture_output=True, env={**CHILD_ENV, "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)


def test_analyze_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("analyze", str(bad)).returncode == 2
    missing = tmp_path / "missing.json"
    assert run_cli("analyze", str(missing)).returncode == 2
    unpinned = tmp_path / "point_line_twofold.json"
    unpinned.write_text((DATA / "point_line_twofold.json").read_text())
    res = run_cli("analyze", str(unpinned))
    assert res.returncode == 3
    assert "hyperplane" in res.stderr


@pytest.mark.parametrize("tol", ["1e-8", "abc", "nan", "-1", "0", "inf"])
def test_tolerance_is_finite_and_positive(tol, tmp_path):
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    env = {k: v for k, v in CHILD_ENV.items() if k != "EXTRIG_TOL"}
    for argv, extra in ((["--tol", tol], {}), ([], {"EXTRIG_TOL": tol})):
        res = subprocess.run([sys.executable, "-m", "extrig.cli", "analyze", str(doc), "--json",
                              *argv], capture_output=True, text=True, env={**env, **extra})
        if tol == "1e-8":
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["tolerance"] == 1e-8
        else:
            assert res.returncode == 2 and not res.stdout, (argv, res.stdout)
            assert "is not a finite positive number" in res.stderr
            assert "Traceback" not in res.stderr


def test_coarse_tolerance_keeps_the_isotypic_bases(tmp_path):
    # --tol is a rank tolerance; it used to cut the projection ranks of the
    # hyperplane orbits too, and this exited 4
    doc = tmp_path / "point_line_extruded.json"
    doc.write_text((DATA / "point_line_extruded.json").read_text())
    res = run_cli("analyze", str(doc), "--tol", "0.1")
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("tol", ["5e-2", "0.1"])
def test_trivial_count_is_never_negative_at_a_coarse_tolerance(tol, tmp_path):
    # prism_pinned printed trivial -2 at both tolerances
    doc = tmp_path / "prism_pinned.json"
    doc.write_text((DATA / "prism_pinned.json").read_text())
    res = run_cli("analyze", str(doc), "--tol", tol, "--json")
    assert res.returncode == 0, res.stderr
    analysis = json.loads(res.stdout)["analysis"]
    assert 0 <= analysis["trivial_dim"] <= 3
    assert analysis["flexes"] == analysis["nullity"] - analysis["trivial_dim"]


def test_extrude_cli_roundtrip(tmp_path):
    tri = tmp_path / "triangle.json"
    tri.write_text((DATA / "triangle.json").read_text())
    out = tmp_path / "out.json"
    res = run_cli("extrude", str(tri), "--tau", "0,2", "-o", str(out))
    assert res.returncode == 0, res.stderr
    built = documents.load(out).framework
    expected = documents.framework_from_document(
        json.loads((DATA / "prism.json").read_text())).framework
    assert frameworks_equal(built, expected)
    res = run_cli("extrude", str(tri), "--tau", "0,0", "-o", str(out))
    assert res.returncode == 3
    assert "zero extrusion direction" in res.stderr


def test_pin_hyperplane_cli(tmp_path):
    doc = tmp_path / "pl.json"
    doc.write_text((DATA / "point_line_twofold.json").read_text())
    out = tmp_path / "pinned.json"
    assert run_cli("pin", "--mode", "hyperplane", str(doc), "-o", str(out)).returncode == 0
    pinned = documents.load(out)
    assert pinned.pinning.full_hyperplanes == frozenset({Vertex("w1", "*0")})
    assert pinned.framework.extrusion.active == (0,)
    assert run_cli("analyze", str(out)).returncode == 0


def test_push_cli_matches_golden(tmp_path):
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    pinned = tmp_path / "prism_min.json"
    assert run_cli("pin", "--mode", "minimal", str(doc), "-o", str(pinned)).returncode == 0
    res = run_cli("push", str(pinned), "--seed", "11", "--json")
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    expected = json.loads((GOLDEN / "push_prism.json").read_text())
    expected["input"] = "prism_min.json"
    assert got == expected


def test_analyze_of_a_minimal_pinning_exits_3_naming_the_pinning(tmp_path):
    # the README session: a minimal pinning is not invariant under the extrusion
    # action, so the block decomposition does not apply (a precondition, not exit 4)
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    pinned = tmp_path / "prism_min.json"
    assert run_cli("pin", "--mode", "minimal", str(doc), "-o", str(pinned)).returncode == 0
    for args in ((), ("--json",)):
        res = run_cli("analyze", str(pinned), *args)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: pinned coordinates are not invariant"), res.stderr
        assert "Traceback" not in res.stderr and not res.stdout
    res = run_cli("sketch", str(pinned), "--flex", "rho_0:0", "-o", str(tmp_path / "s.svg"))
    assert res.returncode == 3 and "pinned coordinates" in res.stderr, res.stderr


@pytest.mark.parametrize("option,value", [("--seed", "-1"), ("--max-iter", "-3"),
                                          ("--seed", "1.5"), ("--max-iter", "x")])
def test_push_counts_are_non_negative_integers(option, value, tmp_path):
    # --seed -1 ended in numpy's ValueError traceback (exit 1), --max-iter -3
    # in "no determination within -3 iterations" (exit 3)
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    pinned = tmp_path / "prism_min.json"
    assert run_cli("pin", "--mode", "minimal", str(doc), "-o", str(pinned)).returncode == 0
    res = run_cli("push", str(pinned), option, value, "--json")
    assert res.returncode == 2 and not res.stdout, res.stderr
    assert "is not a non-negative integer" in res.stderr and "Traceback" not in res.stderr
    # zero is a count: seed 0, or no iteration at all (no determination, exit 3)
    res = run_cli("push", str(pinned), option, "0", "--json")
    assert res.returncode == (3 if option == "--max-iter" else 0), res.stderr


def test_push_requires_pinned_document(tmp_path):
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    res = run_cli("push", str(doc))
    assert res.returncode == 3


def test_sketch_cli(tmp_path):
    doc = tmp_path / "prism.json"
    doc.write_text((DATA / "prism.json").read_text())
    out = tmp_path / "prism.svg"
    res = run_cli("sketch", str(doc), "--flex", "rho_0:2", "-o", str(out))
    assert res.returncode == 0, res.stderr
    svg = out.read_text()
    assert svg.count("<circle") == 6
    assert "marker-end" in svg  # velocity arrows present
    assert run_cli("sketch", str(doc), "--flex", "rho_9:0", "-o", str(out)).returncode == 2
    # an index outside 0..dim-1 of the block kernel, negative ones included
    twofold = tmp_path / "prism_twofold.json"
    twofold.write_text((DATA / "prism_twofold.json").read_text())
    for path, flex in ((doc, "rho_0:3"), (doc, "rho_0:-1"), (twofold, "rho_11:-5"),
                       (twofold, "rho_11:0")):
        res = run_cli("sketch", str(path), "--flex", flex, "-o", str(out))
        assert res.returncode == 2 and "has no kernel vector" in res.stderr, (flex, res.stderr)
        assert "Traceback" not in res.stderr


def test_empty_edge_framework_has_zero_constraint_characters(tmp_path):
    v1, v2 = Vertex("a"), Vertex("b")
    fw = Framework(PHGraph(points=(v1, v2), hyperplanes=()),
                   Configuration(2, np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((0, 3))))
    path = tmp_path / "empty.json"
    path.write_text(documents.serialize(fw))
    res = run_cli("analyze", str(path), "--json")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    rows = dict((name, vec) for name, vec in report["character_table"]["rows"])
    assert rows["chi(P'_E)"] == [0]


def test_analyze_rejects_documents_without_extrusion_action(tmp_path):
    good = json.loads((DATA / "prism.json").read_text())
    no_orbit = json.loads(json.dumps(good))   # drop one copy of p1 with its edges
    no_orbit["vertices"] = [v for v in no_orbit["vertices"] if v["id"] != "p1|1"]
    no_orbit["edges"] = [e for e in no_orbit["edges"] if "p1|1" not in (e["u"], e["v"])]
    half_orbit = json.loads(json.dumps(good))   # drop one copy of a triangle edge
    half_orbit["edges"] = [e for e in half_orbit["edges"]
                           if {e["u"], e["v"]} != {"p1|0", "p2|0"}]
    assert len(half_orbit["edges"]) == len(good["edges"]) - 1
    for name, doc, message in (("no_orbit", no_orbit, "does not permute the vertices"),
                               ("half_orbit", half_orbit, "does not preserve an edge set")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        res = run_cli("analyze", str(path))
        assert res.returncode == 2, res.stderr
        assert message in res.stderr


def test_non_symmetric_document_exits_3_naming_the_violation(tmp_path):
    doc = json.loads((DATA / "prism.json").read_text())
    moved = next(v for v in doc["vertices"] if v["id"] == "p1|0")
    moved["coords"][0] = 5.0
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(doc))
    for args in ((), ("--json",)):
        res = run_cli("analyze", str(path), *args)
        assert res.returncode == 3, res.stderr
        assert "not extrusion-symmetric: point-translation at p1|0" in res.stderr
        assert "hint" not in res.stderr and "Traceback" not in res.stderr


def test_symmetry_report_shows_broken_below_the_gate(tmp_path):
    # the report checks every element at --tol, the gate the active ones at
    # SYMMETRY_TOL: a 1e-8 shift fails the first and passes the second
    doc = json.loads((DATA / "prism.json").read_text())
    moved = next(v for v in doc["vertices"] if v["id"] == "p1|1")
    moved["coords"][0] += 1e-8
    path = tmp_path / "nudged.json"
    path.write_text(json.dumps(doc))
    res = run_cli("analyze", str(path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1] == \
        "extrusion symmetry: BROKEN (2 violations) (max residual 1.00e-08)"
    assert res.stdout.splitlines()[-1] == "verdict: +1 rho_0 flex"
    res = run_cli("analyze", str(path), "--json")
    assert res.returncode == 0, res.stderr
    symmetry = json.loads(res.stdout)["symmetry"]
    assert not symmetry["ok"]
    assert [v[:2] for v in symmetry["violations"]] == [["point-translation", "p1|0 gamma=(1,)"],
                                                       ["point-translation", "p1|1 gamma=(1,)"]]


def _set(path, value):
    """Mutation of a document: the entry at ``path`` (keys and indices) becomes ``value``."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _each(*mutations):
    """Mutation of a document: every one of ``mutations`` in turn."""
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def _rename(old, new):
    """Mutation of a document: vertex ``old`` is called ``new``, in its edges too."""
    def mutate(doc):
        for entry in doc["vertices"]:
            entry["id"] = new if entry["id"] == old else entry["id"]
        for entry in doc["edges"]:
            entry["u"], entry["v"] = (new if x == old else x for x in (entry["u"], entry["v"]))
    return mutate


def _add_edge(u, v, kind):
    """Mutation of a document: one more edge, appended after the others."""
    def mutate(doc):
        doc["edges"].append({"u": u, "v": v, "kind": kind})
    return mutate


MALFORMED = {   # name -> (gallery document, mutation)
    "coordinate_string": ("prism", _set(("vertices", 0, "coords", 0), "x")),
    "coordinate_nan": ("prism", _set(("vertices", 0, "coords", 1), float("nan"))),
    "coordinate_inf": ("prism", _set(("vertices", 2, "coords", 0), float("-inf"))),
    "normal_string": ("point_line_extruded", _set(("vertices", 2, "normal", 0), "x")),
    "offset_inf": ("point_line_extruded", _set(("vertices", 2, "offset"), float("inf"))),
    "direction_string": ("prism", _set(("extrusion", "directions", 0, 1), "x")),
    "direction_nan": ("prism", _set(("extrusion", "directions", 0, 0), float("nan"))),
    "vertices_integer": ("prism", _set(("vertices",), 5)),
    "edges_object": ("prism", _set(("edges",), {})),
    "id_integer": ("prism", _set(("vertices", 0, "id"), 5)),
    "edge_end_integer": ("prism", _set(("edges", 0, "u"), 5)),
    "word_character": ("prism", _rename("p1|0", "p1|x")),
    "active_out_of_range": ("prism", _set(("extrusion", "active"), [5])),
    "active_duplicate": ("prism", _set(("extrusion", "active"), [0, 0])),
    "active_string": ("prism", _set(("extrusion", "active"), ["0"])),
    "fixed_set_nested": ("prism", _set(("extrusion", "fixed_sets"), [[["p1"]]])),
    "fixed_set_disagrees_with_stars": ("point_line_extruded_fixed",
                                       _set(("extrusion", "fixed_sets"), [[]])),
    "pinning_index_string": ("prism_pinned", _set(("pinning", "coords", 0, 1), "x")),
    "pinning_index_point_range": ("prism_pinned", _set(("pinning", "coords", 0, 1), 7)),
    "pinning_index_hyperplane_range": ("point_line_extruded_fixed_pinned",
                                       _set(("pinning", "coords"), [["w2|0", 3]])),
    "pinning_point_as_hyperplane": ("point_line_extruded_fixed_pinned",
                                    _set(("pinning", "parallel_only"), ["v1|0"])),
    "pinning_list": ("prism_pinned", _set(("pinning",), [])),
    # squares of these overflow; the orbit copies agree, so only the magnitude is wrong
    "coordinates_1e300": ("prism", _each(_set(("vertices", 0, "coords", 0), 1e300),
                                         _set(("vertices", 1, "coords", 0), 1e300))),
    "normals_1e200": ("point_line_extruded", _each(_set(("vertices", 2, "normal", 0), 1e200),
                                                   _set(("vertices", 3, "normal", 0), 1e200))),
    "edge_self_loop": ("prism", _add_edge("p2|1", "p2|1", "pp")),
    "edge_unknown_end": ("prism", _add_edge("p2|1", "p4|1", "pp")),
    "edge_wrong_kind": ("point_line_twofold", _add_edge("v1|00", "w2|1*", "pp")),
    "edge_ph_between_points": ("point_line_twofold", _add_edge("v1|00", "v1|11", "ph")),
    "edge_duplicate": ("prism", _add_edge("p1|1", "p3|1", "pp")),
    "edge_reversed_duplicate": ("prism", _add_edge("p3|1", "p1|1", "pp")),
    "edge_parallel_reversed_duplicate": ("point_line_twofold",
                                         _add_edge("w2|1*", "w2|0*", "hh-parallel")),
    # w1|*1 and w2|1* share a parallel class through w1|*0 and w2|0*
    "edge_angle_within_parallel_class": ("point_line_twofold",
                                         _each(_add_edge("w1|*0", "w2|0*", "hh-parallel"),
                                               _add_edge("w1|*1", "w2|1*", "hh-angle"))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_exits_2_without_traceback(name, tmp_path):
    source, mutate = MALFORMED[name]
    doc = json.loads((DATA / f"{source}.json").read_text())
    mutate(doc)
    with pytest.raises(documents.DocumentError):
        documents.framework_from_document(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))   # NaN and infinity as Python's json writes them
    for command in ("analyze", "push"):
        res = run_cli(command, str(path))
        assert res.returncode == 2, (command, res.stderr)
        assert "Traceback" not in res.stderr and res.stderr.startswith("error: "), res.stderr


def test_undecodable_document_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": 2, "vertices": [{"id": "\xe9"}]}')
    with pytest.raises(documents.DocumentError, match="utf-8"):
        documents.load(path)
    res = run_cli("analyze", str(path))
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr


def test_ph_edge_may_list_the_hyperplane_first():
    doc = json.loads((DATA / "point_line_extruded.json").read_text())
    for entry in doc["edges"]:
        if entry["kind"] == "ph":
            entry["u"], entry["v"] = entry["v"], entry["u"]
    assert frameworks_equal(documents.framework_from_document(doc).framework,
                            _bundled("point_line_extruded"))


@pytest.mark.parametrize("command,options", [("analyze", ()), ("extrude", ("--tau", "0,2")),
                                             ("pin", ()), ("sketch", ())])
def test_unwritable_output_exits_2_without_traceback(command, options, tmp_path):
    out = tmp_path / "missing" / "out"
    res = run_cli(command, str(DATA / "triangle.json"), *options, "-o", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr, res.stderr
    assert not out.parent.exists()


def _document_paths(node, prefix=()):
    """Every path of keys and indices below the root of a JSON value."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _document_paths(child, prefix + (key,))


SWAPS = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400]),
                  st.text(max_size=4), st.lists(st.integers(0, 9), max_size=3),
                  st.dictionaries(st.sampled_from(["id", "u", "kind"]), st.integers(0, 9),
                                  max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), SWAPS), min_size=1, max_size=3))
def test_mutated_documents_parse_or_raise_document_error(name, mutations):
    """Dropped keys, swapped value types, NaN and infinity: a DocumentError or a framework."""
    doc = json.loads((DATA / name).read_text())
    for where, drop, value in mutations:
        paths = list(_document_paths(doc))
        if not paths:
            break
        path = paths[where % len(paths)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        documents.framework_from_document(doc)
    except documents.DocumentError:
        pass
