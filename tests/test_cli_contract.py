"""The exit-code contract of ``extrig``, checked in process through ``extrig.cli.main``.

Every command on every bundled document, and on three documents that parse
but break a hypothesis, exits 0, 2 or 3 with no exception escaping: 2 for a
document or file that cannot be read or written, 3 for a failed
precondition, 4 only for an internal numeric inconsistency.
"""
import json
from importlib import resources

import pytest

import extrig.cli
from extrig import documents
from extrig.rigidity import EMPTY_PIN, rigidity_matrix
from extrig.symmetry import fowler_guest_count

DATA = resources.files("extrig") / "data"


def _copy_edge_document():
    """prism_twofold with two pp edges whose ends are copies differing in both directions."""
    doc = json.loads((DATA / "prism_twofold.json").read_text())
    doc["edges"] += [{"u": "p1|00", "v": "p1|11", "kind": "pp"},
                     {"u": "p1|01", "v": "p1|10", "kind": "pp"}]
    return doc


FAULTS = {
    "two_direction_copy_edge": _copy_edge_document(),
    # parallel rows are defined for d = 2 and 3 only
    "parallel_d4": {"dimension": 4, "vertices": [
        {"id": "w1", "kind": "hyperplane", "normal": [1, 0, 0, 0], "offset": 0},
        {"id": "w2", "kind": "hyperplane", "normal": [2, 0, 0, 0], "offset": 1},
        {"id": "p", "kind": "point", "coords": [0, 0, 0, 0]}],
        "edges": [{"u": "w1", "v": "w2", "kind": "hh-parallel"},
                  {"u": "p", "v": "w1", "kind": "ph"}]},
    "bar_d1": {"dimension": 1, "vertices": [{"id": "a", "kind": "point", "coords": [0]},
                                            {"id": "b", "kind": "point", "coords": [1]}],
               "edges": [{"u": "a", "v": "b", "kind": "pp"}]},
}

DOCUMENTS = sorted(p.name[:-5] for p in DATA.iterdir() if p.name.endswith(".json")) + sorted(FAULTS)


def _document(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(FAULTS[name]) if name in FAULTS
                    else (DATA / f"{name}.json").read_text())
    return path


def run(capsys, *argv):
    """``extrig ARGV`` in process: (exit code, stdout, stderr)."""
    code = extrig.cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_command_exits_0_2_or_3(name, tmp_path, capsys):
    path = _document(name, tmp_path)
    dim = json.loads(path.read_text())["dimension"]
    out = tmp_path / "out"
    commands = (["analyze"], ["analyze", "--json"],
                ["extrude", "--tau", ",".join(f"{0.37 + i}" for i in range(dim)), "-o", out],
                ["pin", "-o", out], ["pin", "--mode", "hyperplane", "-o", out], ["push"],
                ["sketch", "-o", out], ["sketch", "--flex", "rho_0:0", "-o", out])
    codes = {}
    for command, *options in commands:
        code, _, err = run(capsys, command, path, *options)
        assert "Traceback" not in err, (command, options, err)
        codes[" ".join(map(str, [command, *options]))] = code
    assert set(codes.values()) <= {0, 2, 3}, codes


@pytest.mark.parametrize("name,message", [
    ("two_direction_copy_edge", "edge p1|00-p1|11 joins copies differing in 2 coordinates"),
    ("parallel_d4", "parallel constraint rows are only defined for d = 2 and d = 3")])
@pytest.mark.parametrize("argv", [("analyze",), ("analyze", "--json"),
                                  ("sketch", "--flex", "rho_0:0", "-o", "OUT")])
def test_failed_hypothesis_exits_3(name, message, argv, tmp_path, capsys):
    # analyze exited 4 ("internal numeric inconsistency"), sketch --flex with a traceback;
    # the d = 4 message was numpy's "operands could not be broadcast together"
    argv = [tmp_path / "s.svg" if a == "OUT" else a for a in argv]
    code, out, err = run(capsys, argv[0], _document(name, tmp_path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


def test_block_path_states_the_parallel_row_rule(tmp_path):
    fw = documents.load(_document("parallel_d4", tmp_path)).framework
    with pytest.raises(ValueError) as dense:
        rigidity_matrix(fw)
    with pytest.raises(ValueError) as blocks:
        fowler_guest_count(fw, EMPTY_PIN)
    assert type(blocks.value) is type(dense.value)
    assert str(blocks.value) == str(dense.value)


@pytest.mark.parametrize("flex", [(), ("--flex", "rho_0:0")])
def test_sketch_draws_a_line_framework(flex, tmp_path, capsys):
    # d = 1 points were drawn from a 1-vector: an IndexError traceback
    out = tmp_path / "bar.svg"
    code, _, err = run(capsys, "sketch", _document("bar_d1", tmp_path), *flex, "-o", out)
    assert code == 0, err
    svg = out.read_text()
    assert svg.count("<circle") == 2
    assert svg.count("marker-end") == (2 if flex else 0)


def test_assertion_is_an_internal_inconsistency(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("characters disagree")
    monkeypatch.setattr(extrig.cli, "fowler_guest_count", broken)
    code, out, err = run(capsys, "analyze", DATA / "prism.json")
    assert (code, out) == (4, "")
    assert err == "error: internal numeric inconsistency: characters disagree\n"


def test_a_warning_is_one_line_without_a_source_location(tmp_path, capsys):
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "extrude", DATA / "k33_orthogonal.json", "--tau", "0,2", "-o", out)
    assert code == 0 and out.exists()
    assert err.splitlines()[0] == "warning: extrusion produced coincident points"


@pytest.mark.parametrize("argv,message", [
    (("extrude", "DOC", "--tau", "0,x", "-o", "OUT"), "cannot parse vector '0,x'"),
    (("sketch", "DOC", "--flex", "rho_0", "-o", "OUT"), "'rho_0' is not IRREP:INDEX"),
    (("sketch", "DOC", "--flex", "rho_0:x", "-o", "OUT"), "'rho_0:x' is not IRREP:INDEX")])
def test_malformed_vectors_and_flexes_are_argument_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [DATA / "prism.json" if a == "DOC" else out if a == "OUT" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()
