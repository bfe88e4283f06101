import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import extrig
from extrig import documents
from extrig.fixtures import FIXTURES, PINNED_FIXTURES
from extrig.frameworks import Configuration, Framework
from extrig.graphs import PHGraph, Vertex

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
                and a.extrusion.fixed_sets == b.extrusion.fixed_sets
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


@pytest.mark.parametrize("name", sorted(list(FIXTURES) + list(PINNED_FIXTURES)))
def test_bundled_documents_match_builders(name):
    doc = documents.framework_from_document(json.loads((DATA / f"{name}.json").read_text()))
    if name in FIXTURES:
        assert frameworks_equal(doc.framework, FIXTURES[name]())
    else:
        fw, pin = PINNED_FIXTURES[name]()
        assert frameworks_equal(doc.framework, fw)
        assert doc.pinning == pin


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


def test_empty_edge_framework_has_zero_constraint_characters(tmp_path):
    v1, v2 = Vertex("a"), Vertex("b")
    fw = Framework(PHGraph(points=(v1, v2), hyperplanes=()),
                   Configuration(2, np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((0, 3))))
    path = tmp_path / "empty.json"
    documents.dump(path, fw)
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
