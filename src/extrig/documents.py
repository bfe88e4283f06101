"""Framework documents: a JSON-compatible schema with exact round-tripping.

Numbers are serialized by Python's shortest round-trip repr, so
``parse(serialize(fw))`` reproduces every coordinate bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .frameworks import Configuration, ExtrusionSpec, Framework
from .graphs import PHGraph, Vertex, parse_vertex
from .linalg import MAX_MAGNITUDE
from .rigidity import PinningSpec

_EDGE_KEYS = {"pp": "edges_pp", "ph": "edges_ph",
              "hh-angle": "edges_hh_angle", "hh-parallel": "edges_hh_par"}


class DocumentError(ValueError):
    """Malformed framework document."""


@dataclass(frozen=True)
class FrameworkDocument:
    framework: Framework
    pinning: PinningSpec = None


def document_from_framework(fw: Framework, pin: PinningSpec = None) -> dict:
    vertices = []
    for v in fw.graph.points:
        vertices.append({"id": v.label, "kind": "point",
                         "coords": [float(x) for x in fw.point(v)]})
    for w in fw.graph.hyperplanes:
        a, r = fw.hyperplane(w)
        vertices.append({"id": w.label, "kind": "hyperplane",
                         "normal": [float(x) for x in a], "offset": float(r)})
    edges = []
    for kind, attr in _EDGE_KEYS.items():
        for u, v in getattr(fw.graph, attr):
            edges.append({"u": u.label, "v": v.label, "kind": kind})
    doc = {"dimension": fw.dim, "vertices": vertices, "edges": edges}
    if fw.extrusion is not None:
        doc["extrusion"] = {
            "directions": [[float(x) for x in tau] for tau in fw.extrusion.directions],
            "fixed_sets": [sorted(fs) for fs in fw.graph.fixed_sets],
            "active": list(fw.extrusion.active),
        }
    if pin is not None and not pin.is_empty():
        doc["pinning"] = {
            "coords": sorted([[v.label, c] for v, c in pin.coords]),
            "full_hyperplanes": sorted(w.label for w in pin.full_hyperplanes),
            "parallel_only": sorted(w.label for w in pin.parallel_only),
        }
    return doc


def serialize(fw: Framework, pin: PinningSpec = None) -> str:
    return json.dumps(document_from_framework(fw, pin), indent=2) + "\n"


def _require(cond, msg):
    if not cond:
        raise DocumentError(msg)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _list(value, what) -> list:
    _require(isinstance(value, list), f"{what} must be a list")
    return value


def _vertex(label, what) -> Vertex:
    _require(isinstance(label, str), f"{what} must be a string")
    try:
        return parse_vertex(label)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _numbers(values, length, what) -> list:
    """``length`` floats of magnitude at most MAX_MAGNITUDE."""
    _require(isinstance(values, list) and len(values) == length
             and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     and abs(x) <= MAX_MAGNITUDE for x in values),   # false for NaN
             f"{what} must be a list of {length} finite numbers of magnitude "
             f"at most {MAX_MAGNITUDE:g}")
    return [float(x) for x in values]


def framework_from_document(doc: dict) -> FrameworkDocument:
    """Framework and pinning of a parsed JSON document; DocumentError if malformed."""
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("dimension", "vertices", "edges"):
        _require(key in doc, f"missing required key {key!r}")
    dim = doc["dimension"]
    _require(_is_int(dim) and dim >= 1, "dimension must be a positive integer")

    points, hyperplanes = [], []
    coords, rows = [], []
    seen = {}
    for i, entry in enumerate(_list(doc["vertices"], "'vertices'")):
        _require(isinstance(entry, dict) and "id" in entry and "kind" in entry,
                 f"vertex #{i} needs 'id' and 'kind'")
        v = _vertex(entry["id"], f"vertex #{i} id")
        _require(v not in seen, f"duplicate vertex id {entry['id']!r}")
        seen[v] = entry["kind"]
        if entry["kind"] == "point":
            points.append(v)
            coords.append(_numbers(entry.get("coords"), dim, f"vertex {v.label!r} coordinates"))
        elif entry["kind"] == "hyperplane":
            _require("offset" in entry, f"vertex {v.label!r} needs an offset")
            hyperplanes.append(v)
            rows.append(_numbers(entry.get("normal"), dim, f"vertex {v.label!r} normal")
                        + _numbers([entry["offset"]], 1, f"vertex {v.label!r} offset"))
        else:
            raise DocumentError(f"vertex {v.label!r} has unknown kind {entry['kind']!r}")

    edge_lists = {attr: [] for attr in _EDGE_KEYS.values()}
    for i, entry in enumerate(_list(doc["edges"], "'edges'")):
        _require(isinstance(entry, dict) and {"u", "v", "kind"} <= set(entry),
                 f"edge #{i} needs 'u', 'v', and 'kind'")
        kind = entry["kind"]
        _require(isinstance(kind, str) and kind in _EDGE_KEYS, f"edge #{i} has unknown kind {kind!r}")
        u, v = _vertex(entry["u"], f"edge #{i} 'u'"), _vertex(entry["v"], f"edge #{i} 'v'")
        for x in (u, v):
            _require(x in seen, f"edge #{i} references unknown vertex {x.label!r}")
        if kind == "ph" and seen[u] == "hyperplane":
            u, v = v, u
        edge_lists[_EDGE_KEYS[kind]].append((u, v))

    word_lengths = {len(v.word) for v in seen}
    _require(len(word_lengths) <= 1, "vertex words must all have one length")
    order = word_lengths.pop() if word_lengths else 0
    try:
        graph = PHGraph(points=tuple(points), hyperplanes=tuple(hyperplanes),
                        extrusion_order=order,
                        **{attr: tuple(v) for attr, v in edge_lists.items()})
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    ext = doc.get("extrusion")
    _require(ext is None or isinstance(ext, dict), "'extrusion' must be an object")
    if ext is not None:
        _require("directions" in ext, "extrusion needs 'directions'")
        dirs = [_numbers(tau, dim, f"extrusion direction #{h}")
                for h, tau in enumerate(_list(ext["directions"], "extrusion 'directions'"))]
        _require(dirs and len(dirs) == order,
                 f"{len(dirs)} extrusion directions for vertex words of length {order}")
        declared = ext.get("fixed_sets", [list(fs) for fs in graph.fixed_sets])
        _require(isinstance(declared, list) and all(
            isinstance(fs, list) and all(isinstance(b, str) for b in fs) for fs in declared),
            "extrusion 'fixed_sets' must be lists of base identifiers")
        declared = tuple(frozenset(fs) for fs in declared)
        _require(len(declared) == order, "need one fixed set per direction")
        _require(declared == graph.fixed_sets,
                 "declared fixed sets disagree with the vertex star patterns")
        active = _list(ext.get("active", list(range(order))), "extrusion 'active'")
        _require(all(_is_int(h) and 0 <= h < order for h in active),
                 f"extrusion 'active' indices must lie in 0..{order - 1}")

    try:
        order_map = {v: i for i, v in enumerate(points)}
        pts = np.asarray([coords[order_map[v]] for v in graph.points], dtype=float) \
            if points else np.zeros((0, dim))
        hyp_map = {v: i for i, v in enumerate(hyperplanes)}
        hyp = np.asarray([rows[hyp_map[v]] for v in graph.hyperplanes], dtype=float) \
            if hyperplanes else np.zeros((0, dim + 1))
        extrusion = None if ext is None else ExtrusionSpec(directions=dirs, active=tuple(active))
        fw = Framework(graph, Configuration(dim, pts, hyp), extrusion)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc

    pin = None
    p = doc.get("pinning")
    _require(p is None or isinstance(p, dict), "'pinning' must be an object")
    if p is not None:
        pc = set()
        for entry in _list(p.get("coords", []), "pinning 'coords'"):
            _require(isinstance(entry, list) and len(entry) == 2,
                     "each pinned coordinate must be a [vertex, index] pair")
            v, c = _vertex(entry[0], "pinned vertex"), entry[1]
            _require(v in graph.position, f"pinning references unknown vertex {v.label!r}")
            width = dim if graph.is_point(v) else dim + 1
            _require(_is_int(c) and 0 <= c < width,
                     f"pinned coordinate index of {v.label!r} must lie in 0..{width - 1}")
            pc.add((v, c))
        hyps = {key: frozenset(_vertex(s, "pinned hyperplane")
                               for s in _list(p.get(key, []), f"pinning {key!r}"))
                for key in ("full_hyperplanes", "parallel_only")}
        for v in hyps["full_hyperplanes"] | hyps["parallel_only"]:
            _require(v in graph.position, f"pinning references unknown vertex {v.label!r}")
            _require(not graph.is_point(v), f"pinned hyperplane {v.label!r} is a point")
        try:
            pin = PinningSpec(coords=frozenset(pc), **hyps)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    return FrameworkDocument(framework=fw, pinning=pin)


def load(path) -> FrameworkDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except ValueError as exc:   # not UTF-8, or an integer beyond the digit limit
            raise DocumentError(f"{path}: {exc}") from exc
    return framework_from_document(doc)


def dump(path, fw: Framework, pin: PinningSpec = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(fw, pin))
