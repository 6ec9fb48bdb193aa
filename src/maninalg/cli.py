"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 bad
input.  All reports are deterministic JSON on standard output.  The
environment variable MANIN_BUDGET overrides the component-size caps.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import idempotents as idem
from .freealg import content_lines, parse_poly, parse_poly_matrix, sorted_generators
from .ideals import PresentedAlgebra
from .linalg import format_rat
from .manin import ManinPair, is_manin
from .minors import a_minor, s_minor
from .pairing import METHODS, NotExists, build_pairing, generic_pairing, verify_axioms
from .quadratic import VARIANTS, QuadAlgebra, dimension_table
from .scenarios import bcd_report, fourparam_report, lie_seed
from .suites import run_suite, suite_names
from .tensor import TensorOperator


def operator_to_json(spec_name: str, op: TensorOperator) -> dict:
    grid = [["0"] * op.col_dim ** op.arity for _ in range(op.row_dim ** op.arity)]
    for i, row in op.num.items():
        for j, x in row.items():
            grid[i][j] = format_rat(Fraction(x, op.den))
    return {
        "name": spec_name,
        "local_rows": op.row_dim,
        "local_cols": op.col_dim,
        "arity": op.arity,
        "matrix": grid,
    }


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def build_spec(doc) -> tuple:
    """The idempotent spec that a JSON document describes, and its operator."""
    spec = idem.IdempotentSpec.from_json(doc)
    return spec, idem.build(spec)


def load_spec(args) -> tuple:
    """The spec that --spec or --family names, and its operator."""
    if args.spec:
        return build_spec(read_json(args.spec))
    if not args.family:
        raise ValueError("give --spec FILE or --family (with --n / parameters)")
    params = {}
    for key in ("q", "a", "b", "c", "kappa"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if getattr(args, "params", None):
        extra = json.loads(args.params)
        if not isinstance(extra, dict):
            raise ValueError(f"--params must be a JSON object, got {args.params!r}")
        params.update(extra)
    return build_spec({"family": args.family, "n": args.n or 0, "params": params})


def add_spec_arguments(sub):
    sub.add_argument("--spec", help="idempotent spec JSON file")
    sub.add_argument("--family", help="catalog family name")
    sub.add_argument("--n", type=int, help="local dimension")
    sub.add_argument("--q", help="deformation parameter (rational)")
    sub.add_argument("--a", help="4-parameter a")
    sub.add_argument("--b", help="4-parameter b")
    sub.add_argument("--c", help="4-parameter c")
    sub.add_argument("--kappa", help="4-parameter kappa")
    sub.add_argument("--params", help="extra parameters as inline JSON")


def load_pair(path: str) -> ManinPair:
    doc = read_json(path)
    if not isinstance(doc, dict) or "A" not in doc or "B" not in doc:
        raise ValueError("a pair file must be a JSON object with keys 'A' and 'B'")
    return ManinPair(build_spec(doc["A"])[1], build_spec(doc["B"])[1])


def emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_catalog(args) -> int:
    spec, op = load_spec(args)
    emit(operator_to_json(spec.family, op))
    return 0


def cmd_check_idempotent(args) -> int:
    spec, op = load_spec(args)
    ok = idem.is_idempotent(op)
    rank = op.row_space().dim
    trace = op.trace()
    emit({"family": spec.family, "idempotent": ok, "rank": rank,
          "trace": format_rat(trace),
          "rank_equals_trace": Fraction(rank) == trace})
    return 0 if ok and Fraction(rank) == trace else 1


def cmd_equiv(args) -> int:
    _, left = build_spec(read_json(args.left))
    _, right = build_spec(read_json(args.right))
    result = {"left_equivalent": idem.left_equivalent(left, right),
              "right_equivalent": idem.right_equivalent(left, right)}
    emit(result)
    if args.mode == "left":
        return 0 if result["left_equivalent"] else 1
    if args.mode == "right":
        return 0 if result["right_equivalent"] else 1
    return 0 if (result["left_equivalent"] or result["right_equivalent"]) else 1


def cmd_dims(args) -> int:
    spec, op = load_spec(args)
    table = dimension_table(QuadAlgebra(op, args.variant), args.max_degree)
    emit({"family": spec.family, "n": op.row_dim, "variant": args.variant,
          "dims": table})
    return 0


def cmd_manin_check(args) -> int:
    pair = load_pair(args.pair)
    with open(args.matrix_file) as fh:
        M = parse_poly_matrix(fh.read())
    with open(args.relations) as fh:
        rel_polys = [parse_poly(line) for _, line in content_lines(fh.read())]
    gens = sorted_generators(
        {g for row in M for e in row for g in e.generators()}
        | {g for p in rel_polys for g in p.generators()})
    ambient = PresentedAlgebra.from_polys(gens, [p for p in rel_polys
                                                 if not p.is_zero()])
    ok = is_manin(pair, M, ambient)
    emit({"manin": ok, "generators": [repr(g) for g in gens],
          "relation_dim": ambient.relations.dim})
    return 0 if ok else 1


def cmd_pairing(args) -> int:
    spec, E = load_spec(args)
    op = build_pairing(spec, E, args.k, args.kind, args.method)
    if isinstance(op, NotExists):
        emit({"exists": False, "reason": op.reason,
              "details": {k: str(v) for k, v in op.details.items()}})
        return 1
    report = verify_axioms(op)
    doc = operator_to_json(f"{args.kind}_({args.k})", op.operator)
    doc["provenance"] = op.provenance
    doc["axioms"] = {k: v for k, v in report.items()}
    emit({"exists": True, "operator": doc})
    return 0 if report["pass"] else 1


def cmd_minor(args) -> int:
    pair = load_pair(args.pair)
    with open(args.matrix_file) as fh:
        M = parse_poly_matrix(fh.read())
    if len(M) != pair.n or len(M[0]) != pair.m:
        raise ValueError("matrix shape does not match the pair")
    E, minor = (pair.A, a_minor) if args.kind == "A" else (pair.B, s_minor)
    op = generic_pairing(E, args.k, args.kind)
    if isinstance(op, NotExists):
        emit({"exists": False, "reason": op.reason})
        return 1
    grid = minor(M, op.operator, args.k)
    emit({"kind": args.kind, "k": args.k,
          "entries": [[repr(e) for e in row] for row in grid]})
    return 0


def cmd_scenario(args) -> int:
    if args.which == "bcd":
        report = bcd_report(args.family, args.n)
    elif args.which == "fourparam":
        report = fourparam_report(args.a, args.b, args.c, args.kappa)
    else:
        doc = read_json(args.sc)
        if not isinstance(doc, dict):
            raise ValueError("a Lie scenario file must be a JSON object "
                             "with 'dim' and 'brackets'")
        report = lie_seed(idem.parse_brackets(doc.get("brackets")),
                          idem.parse_integer(doc.get("dim"), "'dim'"))
    emit(report.to_json())
    return 0 if report.passed else 1


def cmd_verify_suite(args) -> int:
    results = run_suite(args.suite)
    doc = {"suite": args.suite,
           "results": [{"id": rid, "pass": ok, "detail": detail}
                       for rid, ok, detail in results],
           "pass": all(ok for _, ok, _ in results)}
    emit(doc)
    return 0 if doc["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maninalg",
        description="Exact computations with quadratic algebras, Manin "
                    "matrices, pairing operators and noncommutative minors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a catalog operator as JSON")
    add_spec_arguments(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("check-idempotent", help="idempotency and rank = trace")
    add_spec_arguments(p)
    p.set_defaults(fn=cmd_check_idempotent)

    p = sub.add_parser("equiv", help="left/right equivalence of two idempotents")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=("left", "right", "both"), default="both")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("dims", help="graded dimension table")
    add_spec_arguments(p)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("manin-check", help="Manin predicate over a presented algebra")
    p.add_argument("--pair", required=True, help="JSON file with 'A' and 'B' specs")
    p.add_argument("--matrix", dest="matrix_file", required=True,
                   help="matrix file (';' separated)")
    p.add_argument("--relations", required=True, help="one relation per line")
    p.set_defaults(fn=cmd_manin_check)

    p = sub.add_parser("pairing", help="construct and verify a pairing operator")
    add_spec_arguments(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("S", "A"), required=True)
    p.add_argument("--method", choices=METHODS, default="generic")
    p.set_defaults(fn=cmd_pairing)

    p = sub.add_parser("minor", help="minor operator of a matrix")
    p.add_argument("--pair", required=True)
    p.add_argument("--matrix", dest="matrix_file", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("S", "A"), required=True)
    p.set_defaults(fn=cmd_minor)

    p = sub.add_parser("scenario", help="named scenario reports")
    which = p.add_subparsers(dest="which", required=True)
    b = which.add_parser("bcd")
    b.add_argument("--family", choices=("B", "C", "D"), required=True)
    b.add_argument("--n", type=int, required=True)
    f = which.add_parser("fourparam")
    f.add_argument("--a", required=True)
    f.add_argument("--b", required=True)
    f.add_argument("--c", required=True)
    f.add_argument("--kappa", default="0")
    l = which.add_parser("lie")
    l.add_argument("--sc", required=True, help="JSON with 'dim' and 'brackets'")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("verify-suite", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(suite_names())}")
    p.set_defaults(fn=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
