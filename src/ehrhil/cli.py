"""Terminal front end: compute, cross-check, certify and export.

Commands:
  poly              one counting polynomial of a graph, by one or all methods
  certify           all five polynomials, all three methods; exit 0 iff agree
  complex           export a construction's relative complex as JSON
  triangulate       pull a complex to simplices and report f-vectors
  check-compressed  test a polytope for the unimodular-pulling property
  realize           build a relative complex with a prescribed f-vector
  hilbert-normal    count surviving monomials on a normal-faced complex

Exit status: 0 success, 1 a cross-check or theorem check failed, 2 bad input.
"""

import argparse
import json
import sys
import time

from . import io
from .complexes import NotCompressedError
from .constructions import (
    KINDS,
    METHODS,
    CheckFailure,
    build_family,
    certify,
)
from .normal_sr import (
    GREVLEX,
    GRLEX,
    NormalityError,
    hilbert_normal,
    homogenize,
)
from .polytope import IntegralityError
from .srideal import realize_polynomial


def _timed(fn):
    start = time.perf_counter_ns()
    value = fn()
    return value, (time.perf_counter_ns() - start) // 1_000_000


def _basis_str(poly):
    return "[" + ", ".join(str(c) for c in poly.binomial_basis) + "]"


def _print_table(headers, rows):
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    for line in [headers] + rows:
        print("  ".join(c.rjust(w) for c, w in zip(line, widths)))


def _verdict(reports):
    return "PASS" if all(kr.agree for kr in reports) else "FAIL"


def _report_json(g, reports):
    return {
        "graph": {"vertices": len(g.vertices), "edges": len(g.edges)},
        "kinds": [
            {
                "kind": kr.kind,
                "degree": kr.degree,
                "ks": list(kr.ks),
                "polynomial": io.polynomial_to_json(kr.polynomial),
                "realizable": kr.polynomial.is_realizable(),
                "methods": [
                    {"method": r.method, "values": list(r.values), "ms": r.ms}
                    for r in kr.runs],
                "agree": kr.agree,
            }
            for kr in reports],
        "verdict": _verdict(reports),
    }


def _graph_line(g):
    return f"graph: {len(g.vertices)} vertices, {len(g.edges)} edges"


# -- commands -----------------------------------------------------------------

def cmd_poly(args):
    g = io.graph_from_json(io.read_json_file(args.graph))
    methods = METHODS if args.method == "all" else (args.method,)
    kr = certify(args.kind, g, methods, args.kmax)
    if args.as_json:
        print(json.dumps(_report_json(g, [kr]), indent=2, sort_keys=True))
    else:
        print(f"{_graph_line(g)}; {kr.kind} polynomial, degree <= {kr.degree}")
        print(json.dumps(io.polynomial_to_json(kr.polynomial), sort_keys=True))
        headers = ["k"] + [r.method for r in kr.runs]
        rows = [[str(k)] + [str(r.values[i]) for r in kr.runs]
                for i, k in enumerate(kr.ks)]
        _print_table(headers, rows)
        if len(kr.runs) > 1:
            print(f"agreement: {'ok' if kr.agree else 'FAILED'}")
    if not kr.agree:
        print(f"check failed: {kr.mismatch()}", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args):
    g = io.graph_from_json(io.read_json_file(args.graph))
    reports = [certify(kind, g, kmax=args.kmax) for kind in KINDS]
    verdict = _verdict(reports)
    if args.as_json:
        print(json.dumps(_report_json(g, reports), indent=2, sort_keys=True))
    else:
        print(_graph_line(g))
        headers = ["kind", "degree", "binomial basis", "sampled k", "ms",
                   "agreement"]
        rows = [[kr.kind, str(kr.degree), _basis_str(kr.polynomial),
                 f"1..{kr.ks[-1]}", str(sum(r.ms for r in kr.runs)),
                 "ok" if kr.agree else "FAILED"]
                for kr in reports]
        _print_table(headers, rows)
        print(f"verdict: {verdict}")
    if verdict != "PASS":
        for kr in reports:
            if not kr.agree:
                print(f"check failed: {kr.mismatch()}", file=sys.stderr)
        return 1
    return 0


def cmd_complex(args):
    g = io.graph_from_json(io.read_json_file(args.graph))
    rel = build_family(args.kind, g).relative
    io.write_json_file(args.out, io.complex_to_json(rel))
    cells = len(rel.complex.maximal_cells)
    if args.as_json:
        print(json.dumps({"kind": args.kind, "maximal_cells": cells,
                          "dim": rel.complex.dim, "out": args.out},
                         sort_keys=True))
    elif rel.complex.is_empty:
        print(f"{args.kind} complex: empty; wrote {args.out}")
    else:
        print(f"{args.kind} complex: {cells} maximal cells, dimension "
              f"{rel.complex.dim}; wrote {args.out}")
    return 0


def cmd_triangulate(args):
    rel = io.complex_from_json(io.read_json_file(args.complex))
    delta, gamma, f_rel = rel._pull_by_face(
        faces=[frozenset(c.vertices) for c in rel.sub.maximal_cells])
    doc = io.cells_to_json(delta.maximal_simplices, gamma.maximal_simplices)
    if args.as_json:
        print(json.dumps({"triangulation": doc,
                          "f_vector": list(delta.f_vector()),
                          "relative_f_vector": list(f_rel)},
                         indent=2, sort_keys=True))
    else:
        print(f"f-vector: {list(delta.f_vector())}")
        print(f"relative f-vector: {list(f_rel)}")
        print(json.dumps(doc, sort_keys=True))
    bad = delta.first_non_unimodular()
    if bad is not None:
        print(f"warning: pulled simplex {[list(v) for v in bad]} is not "
              f"unimodular, so the relative f-vector does not count "
              f"lattice points", file=sys.stderr)
    return 0


def cmd_check_compressed(args):
    # compressed <=> width one on every facet (Sullivant 2006, Thm 2.4)
    p = io.polytope_from_json(io.read_json_file(args.polytope))
    two = p.is_two_level()
    if args.as_json:
        print(json.dumps({"two_level": two, "compressed": two},
                         sort_keys=True))
    else:
        print(f"two-level: {'yes' if two else 'no'}")
        print(f"compressed: {'yes' if two else 'no'}")
    if not two:
        print("check failed: a facet has lattice width above one, so some "
              "pulling order produces a non-unimodular maximal simplex",
              file=sys.stderr)
        return 1
    return 0


def _parse_coeffs(text):
    from fractions import Fraction
    items = [t.strip() for t in text.split(",")]
    if not items or any(not t for t in items):
        raise io.InputError("--coeffs expects a comma-separated list")
    out = []
    for t in items:
        try:
            out.append(Fraction(t))
        except (ValueError, ZeroDivisionError) as exc:
            raise io.InputError(f"--coeffs: {t!r} is not a number") from exc
    return out


def cmd_realize(args):
    f = _parse_coeffs(args.coeffs)
    rel = realize_polynomial(f)
    f_check = rel.pulled_f_vector()
    counts = [rel.count_points(k) for k in range(1, len(f) + 2)]
    doc = io.complex_to_json(rel)
    if args.as_json:
        print(json.dumps({"f_vector": [int(c) for c in f],
                          "triangulated_f_vector": list(f_check),
                          "counts": counts, "complex": doc},
                         indent=2, sort_keys=True))
    else:
        print(f"realized f-vector {[int(c) for c in f]}; counts at "
              f"k=1..{len(f) + 1}: {counts}")
        print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_hilbert_normal(args):
    if args.k < 1:
        raise io.InputError("--k must be a positive integer")
    rel = io.complex_from_json(io.read_json_file(args.complex))
    order = GREVLEX if args.order == "grevlex" else GRLEX
    count, ms = _timed(lambda: hilbert_normal(homogenize(rel), args.k, order))
    if args.as_json:
        print(json.dumps({"k": args.k, "order": args.order, "count": count,
                          "ms": ms}, sort_keys=True))
    else:
        print(f"valid monomials of degree {args.k} ({args.order}): {count}")
    return 0


# -- wiring -------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ehrhil",
        description="Count graph colorings, flows and tensions three ways: "
                    "direct enumeration, lattice points of a relative "
                    "complex, and Hilbert functions of its triangulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="print a machine-readable report")
        return sp

    sp = add("poly", "compute one counting polynomial of a graph", cmd_poly)
    sp.add_argument("kind", choices=KINDS)
    sp.add_argument("graph", metavar="graph.json")
    sp.add_argument("--method", choices=METHODS + ("all",), default="all")
    sp.add_argument("--kmax", type=int, default=None,
                    help="largest k sampled (default: degree+2; values below "
                         "degree+1 are raised to it)")

    sp = add("certify", "cross-check all five polynomials by all methods",
             cmd_certify)
    sp.add_argument("graph", metavar="graph.json")
    sp.add_argument("--kmax", type=int, default=None)

    sp = add("complex", "export a construction's relative complex",
             cmd_complex)
    sp.add_argument("kind", choices=KINDS)
    sp.add_argument("graph", metavar="graph.json")
    sp.add_argument("--out", required=True, metavar="file.json")

    sp = add("triangulate", "pull a relative complex to simplices",
             cmd_triangulate)
    sp.add_argument("complex", metavar="complex.json")

    sp = add("check-compressed",
             "test a polytope for unimodular pulling triangulations",
             cmd_check_compressed)
    sp.add_argument("polytope", metavar="polytope.json")

    sp = add("realize", "build a relative complex with a given f-vector",
             cmd_realize)
    sp.add_argument("--coeffs", required=True, metavar="f0,f1,...")

    sp = add("hilbert-normal",
             "count valid monomials via minimal representatives",
             cmd_hilbert_normal)
    sp.add_argument("complex", metavar="complex.json")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--order", choices=("grlex", "grevlex"),
                    default="grevlex")

    return parser


def _protect_values(argv):
    # keep `--coeffs -1,1` working: the value must not be read as a flag
    out = []
    it = iter(argv)
    for item in it:
        if item == "--coeffs":
            value = next(it, None)
            out.append(item if value is None else f"--coeffs={value}")
        else:
            out.append(item)
    return out


def main(argv=None):
    argv = _protect_values(sys.argv[1:] if argv is None else list(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (CheckFailure, NormalityError, IntegralityError,
            NotCompressedError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # io.InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
