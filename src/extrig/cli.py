"""Command-line driver.

Exit codes: 0 analysis complete, 2 parse error, 3 precondition error,
4 internal numeric inconsistency.  ``EXTRIG_TOL`` overrides the default
of ``--tol``, the rank tolerance; the fixed tolerances live in
:mod:`extrig.linalg`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import documents
from .finiteflex import PRECONDITION_FAILED, linear_push
from .frameworks import Framework, extrude_framework, verify_extrusion_symmetry
from .linalg import MIN_SYMMETRY_TOL, RANK_TOL
from .rigidity import (hyperplane_pinning, infinitesimal_analysis, maxwell_rhs,
                       minimal_pinning, trivial_motion_dim, EMPTY_PIN)
from .sketch import render_svg
from .symmetry import SymmetryPreconditionError, fowler_guest_count

EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_NUMERIC = 0, 2, 3, 4


def _tolerance(text: str) -> float:
    """The type of ``--tol``; argparse applies it to the ``EXTRIG_TOL`` default too."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number "
                                     "(EXTRIG_TOL sets the default)")


def _count(text: str) -> int:
    """The type of ``push --seed`` and ``--max-iter``: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")


def _load(path):
    try:
        return documents.load(path)
    except (OSError, documents.DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _fmt_row(name, values, width=6):
    return f"  {name:28s}" + "".join(f"{v:>{width}}" for v in values)


def build_report(docpath, fw, pin, tol) -> dict:
    report = {
        "input": os.path.basename(str(docpath)),
        "dimension": fw.dim,
        "vertices": len(fw.graph.vertices),
        "edges": len(fw.graph.edges),
        "extrusion_order": fw.graph.extrusion_order,
        "tolerance": tol,
    }
    if fw.extrusion is not None:
        check = verify_extrusion_symmetry(fw, max(tol, MIN_SYMMETRY_TOL))
        report["symmetry"] = {"ok": check.ok,
                              "max_residual": float(check.max_residual),
                              "violations": [list(v) for v in check.violations],
                              "notes": list(check.notes)}
        report["active_directions"] = list(fw.extrusion.active)
    mob = fowler_guest_count(fw, pin, tol)
    report["character_table"] = {
        "elements": ["".join(map(str, g)) if g else "()" for g in mob.elements],
        "rows": [[name, list(vec)] for name, vec in mob.char_rows],
    }
    report["decomposition"] = {
        "irreps": list(mob.irrep_names),
        "freedoms": [int(x) for x in mob.freedoms],
        "translations": [int(x) for x in mob.translations],
        "constraints": [int(x) for x in mob.constraints],
        "nets": [int(x) for x in mob.nets],
    }
    report["blocks"] = {
        "shapes": [list(s) for s in mob.block_shapes],
        "offdiag_residual": float(mob.offdiag_residual),
        "symmetric_kernel_dims": {mob.irrep_names[i]: int(v)
                                  for i, v in mob.detected_flex_dims.items()},
        "symmetric_stress_dims": {mob.irrep_names[i]: int(v)
                                  for i, v in mob.stress_dims.items()},
    }
    if fw.is_bar_joint() and report.get("symmetry", {"ok": True})["ok"]:
        # the blocks are R in orthonormal bases, cut as R is: their (left) kernels add up to R's
        nullity, stresses = sum(mob.detected_flex_dims.values()), sum(mob.stress_dims.values())
        rank, trivial = int(mob.freedoms.sum()) - nullity, trivial_motion_dim(fw, pin, tol)
    else:
        # point-hyperplane bases are not orthonormal across irreducibles, and off
        # symmetry the blocks stand for the symmetrised framework: decide on R
        ana = infinitesimal_analysis(fw, pin, tol)
        rank, nullity, trivial, stresses = ana.rank, ana.nullity, ana.trivial_dim, ana.stress_dim
    report["analysis"] = {"rank": rank, "nullity": nullity, "trivial_dim": trivial,
                          "flexes": nullity - trivial, "stresses": stresses}
    if pin.is_empty():
        # the count identity m - s = d|V| - |E| - d(d+1)/2 is an unpinned statement
        report["analysis"]["maxwell_rhs"] = maxwell_rhs(fw)
    report["verdicts"] = mob.summary()
    report["caveats"] = list(mob.caveats)
    return report


def render_text(report: dict) -> str:
    out = []
    out.append(f"framework: {report['input']} (d={report['dimension']}, "
               f"{report['vertices']} vertices, {report['edges']} edges, "
               f"t={report['extrusion_order']})")
    if "symmetry" in report:
        sym = report["symmetry"]
        status = "ok" if sym["ok"] else f"BROKEN ({len(sym['violations'])} violations)"
        out.append(f"extrusion symmetry: {status} (max residual {sym['max_residual']:.2e})")
        for note in sym["notes"]:
            out.append(f"  note: {note}")
    table = report["character_table"]
    out.append("")
    out.append("character table (elements: " + ", ".join(table["elements"]) + ")")
    for name, vec in table["rows"]:
        out.append(_fmt_row(name, vec))
    dec = report["decomposition"]
    out.append("")
    out.append("irreducible decomposition (" + ", ".join(dec["irreps"]) + ")")
    out.append(_fmt_row("freedoms lambda", dec["freedoms"]))
    out.append(_fmt_row("translations nu", dec["translations"]))
    out.append(_fmt_row("constraints mu", dec["constraints"]))
    out.append(_fmt_row("net lambda-nu-mu", dec["nets"]))
    blocks = report["blocks"]
    shapes = ", ".join(f"{dec['irreps'][i]}: {r}x{c}"
                       for i, (r, c) in enumerate(blocks["shapes"]))
    out.append("")
    out.append(f"blocks: {shapes} (off-diagonal residual {blocks['offdiag_residual']:.2e})")
    ana = report["analysis"]
    line = (f"rank {ana['rank']}, nullity {ana['nullity']}, trivial {ana['trivial_dim']}, "
            f"flexes m={ana['flexes']}, stresses s={ana['stresses']}")
    if "maxwell_rhs" in ana:
        line += f", maxwell m-s={ana['flexes'] - ana['stresses']} (count {ana['maxwell_rhs']})"
    out.append(line)
    out.append("verdict: " + "; ".join(report["verdicts"]))
    for cav in report["caveats"]:
        out.append(f"caveat: {cav}")
    return "\n".join(out) + "\n"


def cmd_analyze(args) -> int:
    doc = _load(args.document)
    fw, pin = doc.framework, doc.pinning or EMPTY_PIN
    try:
        report = build_report(args.document, fw, pin, args.tol)
    except SymmetryPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.hint:
            print(f"hint: {exc.hint}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, AssertionError) as exc:
        print(f"error: internal numeric inconsistency: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    text = json.dumps(report, indent=2) + "\n" if args.json else render_text(report)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_vec(text):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        print(f"error: cannot parse vector {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def cmd_extrude(args) -> int:
    doc = _load(args.document)
    taus = [_parse_vec(t) for t in args.tau]
    fixes = [tuple(x for x in f.split(",") if x) for f in args.fix] if args.fix else []
    while len(fixes) < len(taus):
        fixes.append(())
    if len(fixes) != len(taus):
        print("error: more --fix entries than --tau entries", file=sys.stderr)
        return EXIT_PARSE
    try:
        out = extrude_framework(doc.framework, np.asarray(taus), fixes, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _write(args.output, documents.serialize(out))
    return EXIT_OK


def cmd_pin(args) -> int:
    doc = _load(args.document)
    fw = doc.framework
    try:
        if args.mode == "minimal":
            pin = minimal_pinning(fw, args.tol)
            out_fw = fw
        else:
            pin, reduced = hyperplane_pinning(fw)
            out_fw = Framework(fw.graph, fw.config, reduced)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _write(args.output, documents.serialize(out_fw, pin))
    return EXIT_OK


def cmd_push(args) -> int:
    doc = _load(args.document)
    if doc.pinning is None:
        print("error: linear push needs a pinned document (run: extrig pin --mode minimal)",
              file=sys.stderr)
        return EXIT_PRECONDITION
    res = linear_push(doc.framework, doc.pinning, seed=args.seed,
                      max_iter=args.max_iter, tol=args.tol)
    report = {"input": os.path.basename(str(args.document)), "determination": res.determination,
              "iterations": res.iterations, "subspace_dim": res.subspace.dim,
              "trace": [list(t) for t in res.trace], "seed": res.seed}
    if res.reason:
        report["reason"] = res.reason
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        line = (f"{res.determination} after {res.iterations} iterations, "
                f"dim B = {res.subspace.dim}")
        if res.reason:
            line += f" ({res.reason})"
        sys.stdout.write(line + "\n")
        for i, (rank, dim) in enumerate(res.trace, start=1):
            sys.stdout.write(f"  iter {i}: sample rank {rank}, dim B {dim}\n")
    return EXIT_PRECONDITION if res.determination == PRECONDITION_FAILED else EXIT_OK


def cmd_sketch(args) -> int:
    doc = _load(args.document)
    fw, pin = doc.framework, doc.pinning or EMPTY_PIN
    flex = None
    if args.flex:
        try:
            irrep, idx = args.flex.split(":")
            idx = int(idx)
        except ValueError:
            print("error: --flex expects IRREP:INDEX, e.g. rho_0:0", file=sys.stderr)
            return EXIT_PARSE
        try:
            mob = fowler_guest_count(fw, pin, args.tol)
        except SymmetryPreconditionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        if irrep not in mob.irrep_names:
            print(f"error: unknown irreducible {irrep!r}; have {mob.irrep_names}",
                  file=sys.stderr)
            return EXIT_PARSE
        basis = mob.detected_flexes[mob.irrep_names.index(irrep)]
        if not 0 <= idx < basis.shape[1]:
            print(f"error: {irrep} has no kernel vector {idx} (of {basis.shape[1]})",
                  file=sys.stderr)
            return EXIT_PARSE
        flex = basis[:, idx]
    _write(args.output, render_svg(fw, flex))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="extrig",
        description="Mobility analysis of frameworks with extrusion symmetry")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=False):
        p.add_argument("document", help="framework document (JSON)")
        p.add_argument("--tol", type=_tolerance,
                       default=os.environ.get("EXTRIG_TOL", repr(RANK_TOL)),
                       help="numeric rank tolerance")
        if output:
            p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="character table, counts, and block sizes")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extrude", help="extrude a framework along new directions")
    common(p, output=True)
    p.add_argument("--tau", action="append", required=True,
                   help="comma-separated direction, repeatable")
    p.add_argument("--fix", action="append",
                   help="comma-separated hyperplane bases contracted along the "
                        "matching --tau (positional; empty string for none)")
    p.set_defaults(func=cmd_extrude)

    p = sub.add_parser("pin", help="compute a pinning")
    common(p, output=True)
    p.add_argument("--mode", choices=("minimal", "hyperplane"), default="minimal")
    p.set_defaults(func=cmd_pin)

    p = sub.add_parser("push", help="numerical linear push on a pinned document")
    common(p)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--max-iter", type=_count, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("sketch", help="render the framework to SVG")
    common(p, output=True)
    p.add_argument("--flex", help="velocity field to draw, IRREP:INDEX")
    p.set_defaults(func=cmd_sketch)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
