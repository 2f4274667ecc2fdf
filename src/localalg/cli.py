"""Command-line front door.

Subcommands: ``algebra`` (structural report), ``lift`` (evaluate both lift
routes at a point), ``check`` (numerical differentiability of a lifted
expression), ``verify`` (function-space suite on a torus), ``forms``
(1-form dimension suite). Exit codes: 0 pass, 2 invalid algebra, 3
parse/domain error, 4 failed checks, 5 size cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import algebra as alg
from . import forms as fm
from . import lift as lf
from . import torus as tr
from .errors import (
    AlgebraFormatError,
    DomainError,
    ExprSyntaxError,
    NonUnitError,
    SizeCapExceeded,
    SpanFailure,
)
from .expr import parse
from .report import Report, fmt


def _add_common(p: argparse.ArgumentParser, tol_default: float):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="algebra preset (dual, trunc:k, square:r)")
    src.add_argument("--spec", help="path to an algebra spec file")
    p.add_argument("--tol", type=float, default=tol_default)
    p.add_argument("--cap", type=int, default=tr.DEFAULT_CAP)
    p.add_argument("--out", help="also write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localalg",
        description="structure, lifting and torus verification for "
        "finite-dimensional local commutative real algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="validate and print structural invariants")
    _add_common(p, 1e-9)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("lift", help="lift an expression at a point, both routes")
    _add_common(p, 1e-9)
    p.add_argument("--expr", required=True)
    p.add_argument("--at", required=True, metavar="POINT",
                   help="semicolon-separated element literals")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("check", help="numerical differentiability of a lift")
    _add_common(p, 1e-5)
    p.add_argument("--expr", required=True)
    p.add_argument("--at", required=True, metavar="POINT")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="function-space suite on a torus")
    _add_common(p, 1e-8)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--grid", type=int, default=32)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("forms", help="1-form dimension suite on a torus")
    _add_common(p, 1e-8)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--degree", type=int, default=1)
    p.set_defaults(func=cmd_forms)

    return parser


def _load(args) -> alg.StructureConstants:
    if args.preset:
        return alg.preset(args.preset)
    return alg.load_spec(args.spec)


def _validated(args) -> tuple[alg.StructureConstants, Report | None]:
    A = _load(args)
    violations = alg.validate_algebra(A)
    if violations:
        rep = Report()
        rep.add("valid_local_algebra", False, len(violations))
        rep.put("N", A.n)
        for i, v in enumerate(violations):
            rep.put(f"VIOLATION[{i}]", str(v))
        return A, rep
    return A, None


def _check_torus_args(args) -> None:
    """Reject torus arguments out of range before anything is built."""
    for name, low in (("m", 1), ("degree", 0), ("grid", 1)):
        value = getattr(args, name, low)
        if value < low:
            raise DomainError(f"--{name} {value} must be at least {low}")


def cmd_algebra(args) -> tuple[str, int]:
    A, bad = _validated(args)
    if bad is not None:
        return bad.render(), 2
    A_std, info = alg.standardize(A)
    rad = alg.radical_basis(A)
    rep = Report()
    rep.add("valid_local_algebra", True, 0)
    rep.put("N", A.n)
    rep.put("LABELS", ",".join(A_std.labels))
    rep.put("RADICAL_DIM", rad.shape[0])
    rep.put("FILTRATION_DIMS", ",".join(str(d) for d in info.filtration_dims))
    rep.put("NU", info.nu)
    rep.put("PSEUDOBASIS", ",".join(A_std.labels[k] for k in info.pseudobasis))
    for k in sorted(info.monomial):
        rep.put(f"MONOMIAL[{A_std.labels[k]}]",
                "(" + ",".join(str(s) for s in info.monomial[k]) + ")")
    rep.put("SOCLE", ",".join(A_std.labels[k] for k in info.socle))
    for i, row in enumerate(rad):
        rep.put(f"RADICAL_BASIS[{i}]", lf.format_element(row, A))
    return rep.render(), 0


def cmd_lift(args) -> tuple[str, int]:
    A, bad = _validated(args)
    if bad is not None:
        return bad.render(), 2
    A_std, info = alg.standardize(A)
    X = lf.parse_point(args.at, A_std)
    if args.m is not None and args.m != X.m:
        raise AlgebraFormatError(f"--m {args.m} != point arity {X.m}")
    e = parse(args.expr, X.m)
    lifted = lf.taylor_lift(e, X, A_std, info)
    evaluated = lf.lift_eval(e, X, A_std, info)
    gap = float(np.abs(lifted - evaluated).max())
    lines = [
        f"TAYLOR {lf.format_element(lifted, A_std)}",
        f"EVAL {lf.format_element(evaluated, A_std)}",
        "---",
        f"DIFF={fmt(gap)}",
    ]
    return "\n".join(lines) + "\n", 0


def cmd_check(args) -> tuple[str, int]:
    A, bad = _validated(args)
    if bad is not None:
        return bad.render(), 2
    A_std, info = alg.standardize(A)
    X = lf.parse_point(args.at, A_std)
    if args.m is not None and args.m != X.m:
        raise AlgebraFormatError(f"--m {args.m} != point arity {X.m}")
    e = parse(args.expr, X.m)
    defect = lf.adiff_defect(lf.lift_map(e, A_std, info), X, A_std)
    residual = lf.e1_component_residual(e, X, A_std, info)
    rep = Report()
    rep.add("adiff_defect", defect <= args.tol, defect)
    rep.add("e1_component_identity", residual <= args.tol, residual)
    rep.put("DEFECT", defect)
    rep.put("E1_RESIDUAL", residual)
    rep.put("STEP", lf.DEFAULT_STEP)
    return rep.render(), 0 if defect <= args.tol and residual <= args.tol else 4


def cmd_verify(args) -> tuple[str, int]:
    _check_torus_args(args)
    A, bad = _validated(args)
    if bad is not None:
        return bad.render(), 2
    cfg = tr.make_torus(A, args.m)
    system = tr.assemble_function_constraints(cfg, args.degree, args.cap)
    solutions = tr.solve_nullspace(system, args.tol)
    rep = Report()
    rep.merge(tr.verify_constancy(solutions, cfg, system.trig, args.tol))
    rep.merge(tr.verify_socle_decomposition(solutions, cfg, system.trig, args.tol))
    rep.merge(tr.verify_min_leaf_all(solutions, cfg, system.trig,
                                     grid=args.grid, tol=args.tol, system=system))
    rep.put("M", args.m)
    rep.put("DEGREE", args.degree)
    rep.put("NROWS", system.nrows)
    rep.put("NCOLS", system.ncols)
    return rep.render(), 0 if rep.passed else 4


def cmd_forms(args) -> tuple[str, int]:
    _check_torus_args(args)
    A, bad = _validated(args)
    if bad is not None:
        return bad.render(), 2
    cfg = tr.make_torus(A, args.m)
    summary = fm.cohomology_report(cfg, args.degree, null_tol=args.tol,
                                   cap=args.cap)
    rep = fm.forms_report(cfg, summary)
    rep.put("M", args.m)
    rep.put("DEGREE", args.degree)
    return rep.render(), 0 if rep.passed else 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
    except SizeCapExceeded as e:
        print(f"ERROR size cap exceeded: {e}")
        return 5
    except (ExprSyntaxError, DomainError, NonUnitError) as e:
        print(f"ERROR {e}")
        return 3
    except (AlgebraFormatError, SpanFailure) as e:
        print(f"ERROR {e}")
        return 2 if args.command == "algebra" else 3
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
