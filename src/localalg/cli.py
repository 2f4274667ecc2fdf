"""Command-line front door.

Subcommands: ``algebra`` (structural report), ``lift`` (evaluate both lift
routes at a point), ``check`` (numerical differentiability of a lifted
expression), ``verify`` (function-space suite on a torus), ``forms``
(1-form dimension suite). Every command loads, validates and standardizes
its algebra in ``_standardized``; ``main`` builds its parser once per
process. Exit codes: 0 pass; 2 invalid algebra, which every command prints
(and writes to ``--out``) as its violation report, an unreadable or
malformed spec for ``algebra``, or a command line argparse rejects,
``--name=--`` included; 3 parse or domain error, such as a spec for the
other commands, an empty ``--at`` slot, an out-of-range
``--m``/``--degree``/``--grid`` or ``--tol`` (negative, nan or inf) and an
unwritable ``--out``; 4 failed checks; 5 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
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
    InvalidAlgebra,
    NonUnitError,
    SizeCapExceeded,
    SpanFailure,
)
from .expr import parse
from .report import Report, fmt


def _add_common(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="algebra preset (dual, trunc:k, square:r)")
    src.add_argument("--spec", help="path to an algebra spec file")
    p.add_argument("--out", help="also write the report to this path")


def _add_torus(p: argparse.ArgumentParser):
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--cap", type=int, default=tr.DEFAULT_CAP)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--degree", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localalg",
        description="structure, lifting and torus verification for "
        "finite-dimensional local commutative real algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="validate and print structural invariants")
    _add_common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("lift", help="lift an expression at a point, both routes")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--at", required=True, metavar="POINT",
                   help="semicolon-separated element literals")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("check", help="numerical differentiability of a lift")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--expr", required=True)
    p.add_argument("--at", required=True, metavar="POINT")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="function-space suite on a torus")
    _add_torus(p)
    p.add_argument("--grid", type=int, default=32)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("forms", help="1-form dimension suite on a torus")
    _add_torus(p)
    p.set_defaults(func=cmd_forms)

    return parser


_parser = functools.cache(build_parser)  # main's own; parsing leaves it unchanged


def _standardized(args):
    """Every command's front door: range-check the numeric options, load the
    algebra, validate it (InvalidAlgebra carries the violation report) and
    return it as given, in its standard basis, and the basis info."""
    for name, low in (("m", 1), ("degree", 0), ("grid", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise DomainError(f"--{name} {value} must be at least {low}")
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"--tol {tol:g} must be at least 0 and finite")
    A = alg.preset(args.preset) if args.preset else alg.load_spec(args.spec)
    if A.n < 2:
        raise AlgebraFormatError(f"algebra of dimension {A.n} has a zero radical; need n >= 2")
    violations, rad = alg.validate_algebra(A)
    if violations:
        rep = Report()
        rep.add("valid_local_algebra", False, len(violations))
        rep.put("N", A.n)
        rep.data.update((f"VIOLATION[{i}]", str(v)) for i, v in enumerate(violations))
        raise InvalidAlgebra(rep)
    return (A, *alg.standardize(A, rad))


def _lift_input(args):
    """``lift`` and ``check``: the standard-basis algebra, its info, the
    ``--at`` point (arity checked against ``--m``) and the ``--expr``."""
    _, A, info = _standardized(args)
    X = lf.parse_point(args.at, A)
    if args.m is not None and args.m != len(X):
        raise AlgebraFormatError(f"--m {args.m} != point arity {len(X)}")
    return A, info, X, parse(args.expr, len(X))


def cmd_algebra(args) -> tuple[str, int]:
    A, A_std, info = _standardized(args)
    rep = Report()
    rep.add("valid_local_algebra", True, 0)
    rep.put("N", A.n)
    rep.put("LABELS", ",".join(A_std.labels))
    rep.put("RADICAL_DIM", info.radical.shape[0])
    rep.put("FILTRATION_DIMS", ",".join(str(d) for d in info.filtration_dims))
    rep.put("NU", info.nu)
    rep.put("PSEUDOBASIS", ",".join(A_std.labels[k] for k in info.pseudobasis))
    for k in sorted(info.monomial):
        rep.put(f"MONOMIAL[{A_std.labels[k]}]",
                "(" + ",".join(str(s) for s in info.monomial[k]) + ")")
    rep.put("SOCLE", ",".join(A_std.labels[k] for k in info.socle))
    for i, row in enumerate(info.radical):
        rep.put(f"RADICAL_BASIS[{i}]", lf.format_element(row, A))
    return rep.render(), 0


def cmd_lift(args) -> tuple[str, int]:
    A, info, X, e = _lift_input(args)
    lifted = lf.taylor_lift(e, X, A, info)
    evaluated = lf.lift_eval(e, X, A, info)
    gap = float(np.abs(lifted - evaluated).max())
    lines = [
        f"TAYLOR {lf.format_element(lifted, A)}",
        f"EVAL {lf.format_element(evaluated, A)}",
        "---",
        f"DIFF={fmt(gap)}",
    ]
    return "\n".join(lines) + "\n", 0


def cmd_check(args) -> tuple[str, int]:
    A, info, X, e = _lift_input(args)
    defect = lf.adiff_defect(lf.lift_map(e, A, info), X, A)
    residual = lf.e1_component_residual(e, X, A, info)
    rep = Report()
    rep.add("adiff_defect", defect <= args.tol, defect)
    rep.add("e1_component_identity", residual <= args.tol, residual)
    rep.data.update(DEFECT=defect, E1_RESIDUAL=residual, STEP=lf.DEFAULT_STEP)
    return rep.render(), 0 if defect <= args.tol and residual <= args.tol else 4


def cmd_verify(args) -> tuple[str, int]:
    cfg = tr.TorusConfig(*_standardized(args)[1:], args.m)
    system = tr.assemble_function_constraints(cfg, args.degree, args.cap)
    solutions = tr.solve_nullspace(system, args.tol)
    rep = Report()
    rep.merge(tr.verify_constancy(solutions, cfg, system.trig, args.tol))
    rep.merge(tr.verify_socle_decomposition(solutions, cfg, system.trig, args.tol))
    residual = system.residual_inf(solutions)
    rep.merge(tr.verify_min_leaf_all(solutions, cfg, system.trig, args.grid, args.tol))
    rep.add("adiff_constraints", residual <= args.tol, residual)
    expected = cfg.n + cfg.basic_socle_dim(args.degree)
    rep.add("nullspace_dim_theorem", len(solutions) == expected, len(solutions))
    rep.data.update(ADIFF_RESIDUAL=residual, M=args.m, DEGREE=args.degree,
                    NROWS=system.nrows, NCOLS=system.ncols,
                    EXPECTED_NULLSPACE_DIM=expected)
    return rep.render(), 0 if rep.passed else 4


def cmd_forms(args) -> tuple[str, int]:
    cfg = tr.TorusConfig(*_standardized(args)[1:], args.m)
    rep = fm.cohomology_report(cfg, args.degree, null_tol=args.tol, cap=args.cap)
    rep.data.update(M=args.m, DEGREE=args.degree)
    return rep.render(), 0 if rep.passed else 4


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # "--name=--": argparse drops the "--"
            parser.error(f"argument --{name}: expected one argument")
    try:
        text, code = args.func(args)
    except InvalidAlgebra as e:
        text, code = e.report.render(), 2
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"ERROR cannot write --out {args.out}: {e.strerror or e}")
            return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
