"""End-to-end CLI behaviour: output contracts, exit codes, determinism."""

import itertools
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import numpy as np
import sympy
from numpy.testing import assert_allclose

from localalg import lift as lf
from localalg.algebra import preset
from localalg.cli import _parser, build_parser, main
from localalg.lift import format_element, parse_element

from util import (
    CORPUS,
    CORPUS_VARS,
    FORMS_LADDER,
    localalg_env,
    scaled_trunc_spec,
    unit_safe_point,
)

CMD = [sys.executable, "-m", "localalg"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=localalg_env())


def test_algebra_trunc3():
    proc = run("algebra", "--preset", "trunc:3")
    assert proc.returncode == 0
    assert "SOCLE=e2" in proc.stdout
    assert "NU=3" in proc.stdout
    assert "CHECK valid_local_algebra PASS" in proc.stdout


def test_algebra_dual_radical_dim():
    proc = run("algebra", "--preset", "dual")
    assert proc.returncode == 0
    assert "RADICAL_DIM=1" in proc.stdout


def test_algebra_rejects_split_algebra(tmp_path):
    spec = tmp_path / "split.alg"
    spec.write_text("algebra n=2\nbasis 1 u\nmul u u = 1*u\n")
    proc = run("algebra", "--spec", str(spec))
    assert proc.returncode == 2
    assert "locality" in proc.stdout


def test_lift_dual():
    proc = run("lift", "--preset", "dual", "--expr", "x1^2", "--at", "3 + 2 e1")
    assert proc.returncode == 0
    assert "TAYLOR 9 + 12 e1" in proc.stdout
    assert "EVAL 9 + 12 e1" in proc.stdout
    assert "DIFF=0" in proc.stdout


def test_lift_huge_power_is_one_series():
    # the power was e products, one per unit of the exponent: this ran for minutes
    proc = run("lift", "--preset", "dual", "--expr", "x1^99999999",
               "--at", "1.00000001 + 1 e1")
    assert proc.returncode == 0
    taylor, value, rule, diff = proc.stdout.splitlines()
    assert taylor.removeprefix("TAYLOR ") == value.removeprefix("EVAL ")
    assert (rule, diff) == ("---", "DIFF=0")


@pytest.mark.parametrize("argv, code, first", [
    (["lift", "--preset", "dual", "--expr", "x1^99999999", "--at", "1.00000001 + 1 e1"],
     0, "TAYLOR 2.71828177116454 + 271828171.67989051 e1"),
    (["lift", "--preset", "trunc:4", "--expr", "log(x1)", "--at", "1e-300 + 1 e1"],
     3, "ERROR the Taylor lift leaves the float range"),
    (["lift", "--preset", "dual", "--expr", "exp(x1)^2", "--at", "700 + 1 e1"],
     3, "ERROR IntPow leaves the float range"),
], ids=("huge-power", "log-near-zero", "power-overflow"))
def test_lift_power_and_range_edges_keep_their_outcomes(capsys, argv, code, first):
    # the Taylor arithmetic divides by base values: no numpy warning may reach
    # stderr, and the outcomes are those of the symbolic derivative sweep
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (out.splitlines()[0], err) == (first, "")


def test_check_fails_on_a_wrong_first_order_taylor_coefficient(monkeypatch, capsys):
    # e1_component_residual compares the Taylor table with expr.diff, so an
    # error of 1e-6 in the table's first-order entry is reported
    argv = ["check", "--preset", "trunc:3", "--expr", "sin(x1) * x2",
            "--at", "0.3 + 1 e1 + 0.5 e2; -0.45 + 0.25 e1", "--tol", "1e-7"]
    assert main(argv) == 0
    assert "CHECK e1_component_identity PASS" in capsys.readouterr().out
    real = lf._taylor_coefficients

    def shifted(e, x, nu):
        coeffs = real(e, x, nu).copy()
        coeffs[1] += 1e-6
        return coeffs

    monkeypatch.setattr(lf, "_taylor_coefficients", shifted)
    assert main(argv) == 4
    out = capsys.readouterr().out
    assert "CHECK e1_component_identity FAIL" in out and "CHECK adiff_defect PASS" in out
    residual = float(out.split("E1_RESIDUAL=")[1].split()[0])
    assert abs(residual - 1e-6) <= 1e-12


def test_lift_trunc3_exp():
    proc = run("lift", "--preset", "trunc:3", "--expr", "exp(x1)",
               "--at", "0 + 1 e1")
    assert proc.returncode == 0
    assert "1 + 1 e1 + 0.5 e2" in proc.stdout


def test_lift_domain_error_exit3():
    proc = run("lift", "--preset", "dual", "--expr", "log(x1)", "--at", "-1")
    assert proc.returncode == 3


def test_lift_parse_error_exit3():
    proc = run("lift", "--preset", "dual", "--expr", "x1 +", "--at", "1")
    assert proc.returncode == 3


def test_check_lift_passes():
    proc = run("check", "--preset", "trunc:3", "--expr", "sin(x1)",
               "--at", "0.3 + 1 e1 + 0.5 e2")
    assert proc.returncode == 0
    assert "CHECK adiff_defect PASS" in proc.stdout
    assert "CHECK e1_component_identity PASS" in proc.stdout


@pytest.mark.parametrize("preset,m,degree,dim", [
    ("dual", "1", "2", 6),
    ("trunc:3", "1", "1", 5),
    ("square:2", "1", "1", 7),
])
def test_verify_passes(preset, m, degree, dim):
    proc = run("verify", "--preset", preset, "--m", m, "--degree", degree)
    assert proc.returncode == 0, proc.stdout
    assert f"NULLSPACE_DIM={dim}" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_square2_socle_dim():
    proc = run("verify", "--preset", "square:2", "--m", "1", "--degree", "1")
    assert proc.returncode == 0
    assert "SOCLE_DIM=2" in proc.stdout


def test_forms_trunc3():
    proc = run("forms", "--preset", "trunc:3", "--m", "1", "--degree", "2")
    assert proc.returncode == 0
    assert "DIM_ZBREVE[e1]=2" in proc.stdout
    assert "BOUND=9" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_forms_dual_vacuous_note():
    proc = run("forms", "--preset", "dual", "--m", "1", "--degree", "2")
    assert proc.returncode == 0
    assert "NOTE=" in proc.stdout
    assert "CHECK class_map_injective PASS" in proc.stdout


def test_forms_size_cap_exit5():
    proc = run("forms", "--preset", "trunc:4", "--degree", "6")
    assert proc.returncode == 5


def test_theorem_counts_fail_when_every_direction_is_null(capsys):
    # --tol 1 counts every symbol direction of dual m=1 d=1 as null: all
    # 2 * 9 coefficients solve, against n + s((2d+1)^m - 1) = 4 functions,
    # 4 closed forms and 2 zero-mean ones
    assert main(["verify", "--preset", "dual", "--degree", "1", "--tol", "1"]) == 4
    out = capsys.readouterr().out
    assert "CHECK nullspace_dim_theorem FAIL detail=18\n" in out
    assert "EXPECTED_NULLSPACE_DIM=4\n" in out
    assert main(["forms", "--preset", "dual", "--degree", "1", "--tol", "1"]) == 4
    out = capsys.readouterr().out
    assert "CHECK form_dims_theorem FAIL detail=18,16\n" in out
    assert "EXPECTED_FORM_NULLSPACE_DIM=4\n" in out and "EXPECTED_ZERO_MEAN_DIM=2\n" in out


@pytest.mark.parametrize("command", ["verify", "forms"])
def test_theorem_count_takes_no_extra_socle_basis(monkeypatch, capsys, command):
    # s is the socle rank the standard-basis guard already took; no socle
    # basis is built, and src has no function that builds one
    from localalg import algebra
    calls = []
    original = algebra.socle_dim
    monkeypatch.setattr(algebra, "socle_dim", lambda *a: calls.append(1) or original(*a))
    assert main([command, "--preset", "square:2", "--m", "2", "--degree", "1"]) == 0
    assert "theorem PASS" in capsys.readouterr().out
    assert len(calls) == 1
    assert not hasattr(algebra, "socle_basis")


def test_verify_huge_grid_prints_what_grid_32_prints(capsys):
    # no solution reaches the min-leaf check, and the report has no grid key
    assert main(["verify", "--preset", "dual", "--m", "2", "--degree", "1", "--grid", "32"]) == 0
    want = capsys.readouterr()
    assert main(["verify", "--preset", "dual", "--m", "2", "--degree", "1",
                 "--grid", "100000"]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv,code", [
    ("verify --preset dual --m 2 --degree 1 --tol 1 --grid 1000000000", 4),
    ("verify --preset dual --m 2 --degree 1 --tol 1 --grid 10000000000000000000", 4),
    (f"verify --preset dual --m 2 --degree 1 --tol 1 --grid {10**30}", 4),
    ("verify --preset dual --m 100000 --degree 0", 0),
    ("verify --preset trunc:8 --m 200 --degree 0", 0),
    ("verify --preset dual --m 32 --degree 0 --grid 1", 0),
    ("forms --preset dual --m 33 --degree 0", 0),
])
def test_large_runs_complete_without_traceback(argv, code):
    # live rows on 10^18- to 10^60-point leaf lattices, the larger past
    # int64, degree-0 trig spaces past numpy's 64 axes, and symbols whose dense A-linearity block would be
    # O(m^2): each run completes with an exit code and no traceback
    proc = run(*argv.split())
    assert (proc.returncode, proc.stderr) == (code, ""), proc.stderr
    assert "NULLSPACE_DIM=" in proc.stdout


def test_verify_dual_m4_tol1_fits_in_memory(capsys):
    # 11200 live rows at tol 1 need only O(live rows) memory
    tracemalloc.start()
    try:
        code = main("verify --preset dual --m 4 --degree 1 --tol 1".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    out = capsys.readouterr().out
    assert "\nGRAD_MAX=1\nG_VARIATION=2\n" in out and "real_part_variation FAIL" in out
    assert peak <= 32 * 2**20


def test_verify_dual_m4_fits_the_lattice_budget():
    # the 82 solutions are all flat, so none reaches the min-leaf check
    proc = run("verify", "--preset", "dual", "--m", "4", "--degree", "1")
    assert proc.returncode == 0
    assert "NULLSPACE_DIM=82" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_dual_m8_has_no_leaf_lattice_to_refuse():
    # the leaf is bounded, not sampled: no 17 * 8^8 leaf lattice values
    proc = run("verify", "--preset", "dual", "--m", "8", "--degree", "0", "--grid", "2")
    assert proc.returncode == 0, proc.stdout
    assert "\nNULLSPACE_DIM=2\n" in proc.stdout
    assert "\nEXPECTED_NULLSPACE_DIM=2\n" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.txt"
    proc = run("verify", "--preset", "dual", "--degree", "1", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exit3(tmp_path, where):
    out = tmp_path / "missing" / "report.txt" if where == "missing-directory" else tmp_path
    report = run("algebra", "--preset", "dual").stdout
    proc = run("algebra", "--preset", "dual", "--out", str(out))
    assert proc.returncode == 3
    # the report is printed, then the write fails
    assert proc.stdout.startswith(report)
    assert proc.stdout[len(report):].startswith(f"ERROR cannot write --out {out}: ")
    assert "Traceback" not in proc.stderr


def test_verify_deterministic():
    a = run("verify", "--preset", "trunc:3", "--m", "1", "--degree", "1")
    b = run("verify", "--preset", "trunc:3", "--m", "1", "--degree", "1")
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_forms_deterministic():
    a = run("forms", "--preset", "trunc:3", "--m", "1", "--degree", "2")
    b = run("forms", "--preset", "trunc:3", "--m", "1", "--degree", "2")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("args", [
    ("verify", "--grid", "0"),
    ("verify", "--grid", "-3"),
    ("verify", "--m", "0"),
    ("verify", "--m", "-1"),
    ("verify", "--degree", "-1"),
    ("forms", "--m", "0"),
    ("forms", "--degree", "-1"),
    ("verify", "--tol", "-1"),
    ("verify", "--tol", "inf"),
    ("forms", "--tol", "-1"),
    ("forms", "--tol", "nan"),
    ("check", "--tol", "nan", "--expr", "x1", "--at", "1"),
    ("check", "--tol", "-inf", "--expr", "x1", "--at", "1"),
], ids=lambda args: f"{args[0]}{args[1]}={args[2]}")
def test_torus_argument_out_of_range_exit3(args):
    command, flag, value, *extra = args
    proc = run(command, "--preset", "dual", f"{flag}={value}", *extra)
    assert proc.returncode == 3
    assert proc.stdout.startswith(f"ERROR {flag} {value} must be at least")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,source,code", [
    ("algebra", "missing", 2),
    ("algebra", "directory", 2),
    ("algebra", "binary", 2),
    ("verify", "missing", 3),
    ("check", "binary", 3),
])
def test_unreadable_spec_exits_with_error(tmp_path, command, source, code):
    binary = tmp_path / "binary.alg"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
    path = {"missing": tmp_path / "missing.alg", "directory": tmp_path, "binary": binary}[source]
    extra = ("--expr", "x1", "--at", "1") if command == "check" else ()
    proc = run(command, "--spec", str(path), *extra)
    assert proc.returncode == code
    assert proc.stdout.startswith(f"ERROR cannot read spec {path}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("at", ["1;;2", "1;", ";1"])
def test_empty_point_slot_exit3(at):
    proc = run("lift", "--preset", "dual", "--expr", "x1", "--at", at)
    assert proc.returncode == 3
    assert proc.stdout == f"ERROR empty slot in point literal {at!r}\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("lift", "--preset", "dual", "--expr", "exp(x1)^1000", "--at", "1 + 1 e1"),
    # check runs lift_eval first, whose exp series overflows at exp(7) = 1096.6
    ("check", "--preset", "dual", "--expr", "exp(exp(x1))", "--at", "7 + 1 e1"),
], ids=("intpow", "series-exp"))
def test_float_overflow_exit3(args):
    proc = run(*args)
    assert proc.returncode == 3
    assert proc.stdout.startswith("ERROR ")
    assert "leaves the float range" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_quotient_rule_lift_is_finite():
    # the order-11 derivative of 1/(1+x1^2) is finite: a quotient rule that
    # squared the denominator overflowed at (1+x1^2)^(2^10)
    proc = run("lift", "--preset", "trunc:12", "--expr", "1/(1+x1^2)",
               "--at", "0.9 + 1 e1")
    assert proc.returncode == 0, proc.stdout
    A = preset("trunc:12")
    lines = proc.stdout.splitlines()
    lifted = parse_element(lines[0].removeprefix("TAYLOR "), A)
    scale = np.abs(lifted).max()
    assert float(lines[3].removeprefix("DIFF=")) <= 1e-10 * scale
    # X = x + c e1 on R[t]/(t^12): the e_k coefficient is [t^k] g(x + c t)
    t = sympy.Symbol("t")
    series = sympy.series(1 / (1 + (sympy.Rational(0.9) + t) ** 2), t, 0, 12).removeO()
    expected = [float(sympy.N(series.coeff(t, k), 30)) for k in range(12)]
    assert_allclose(lifted, expected, rtol=1e-12, atol=1e-12 * scale)


def test_check_names_the_step_when_only_the_stencil_leaves_the_domain():
    # x0 = 5e-6 is inside the domain of log, x0 - h = -5e-6 is not
    near = ("--preset", "dual", "--expr", "log(x1)", "--at", "5e-6 + 1 e1")
    assert run("lift", *near).returncode == 0
    proc = run("check", *near)
    assert proc.returncode == 3
    assert proc.stdout == ("ERROR central-difference points x0 ± 1e-05 leave the domain: "
                           "log of non-positive real part -5e-06\n")
    assert proc.stderr == ""
    # a point outside the domain is named itself
    proc = run("check", "--preset", "dual", "--expr", "log(x1)", "--at", "-1")
    assert proc.returncode == 3
    assert proc.stdout == "ERROR log of non-positive real part -1.0\n"
    # x0 - h has real part exactly 0.0, where 1/x1 has no inverse
    near = ("--preset", "dual", "--expr", "1/x1", "--at", "1e-5 + 1 e1")
    assert run("lift", *near).returncode == 0
    proc = run("check", *near)
    assert proc.returncode == 3
    assert proc.stdout == ("ERROR central-difference points x0 ± 1e-05 leave the domain: "
                           "real part 0.0 is numerically zero\n")
    assert proc.stderr == ""


@pytest.mark.parametrize("command,expr,at,message", [
    ("lift", "x1", "1e400", "coefficient 1e400 is not a finite number"),
    ("check", "x1", "1e400", "coefficient 1e400 is not a finite number"),
    ("lift", "x1*x1", "1e200", "leaves the float range"),
    ("check", "x1*x1", "1e200", "leaves the float range"),
    ("lift", "log(x1)", "1e-320", "leaves the float range"),
])
def test_non_finite_lift_exit3(command, expr, at, message):
    # each printed inf or nan and exited 0; check's max() dropped the NaN
    proc = run(command, "--preset", "dual", "--expr", expr, "--at", at)
    assert proc.returncode == 3
    assert proc.stdout.startswith("ERROR ") and message in proc.stdout
    assert "nan" not in proc.stdout and "inf " not in proc.stdout
    assert proc.stderr == ""


DEEP_EXPRESSIONS = {
    "parens": "(" * 1200 + "x1" + ")" * 1200,  # overflows the parser
    "sum": "+".join(["x1"] * 3000),  # overflows diff, eval_real and lift_eval
    "product": "*".join(["x1"] * 2000),
}


@pytest.mark.parametrize("command", ["lift", "check"])
@pytest.mark.parametrize("kind", sorted(DEEP_EXPRESSIONS))
def test_too_deep_expression_exits_3(command, kind):
    # each ended in a RecursionError traceback with exit 1
    proc = run(command, "--preset", "dual", "--expr", DEEP_EXPRESSIONS[kind],
               "--at", "0.5 + 0.1 e1")
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout == "ERROR expression is nested too deeply\n"


@pytest.mark.parametrize("command", ["lift", "check"])
def test_long_sum_below_the_recursion_limit_passes(command):
    proc = run(command, "--preset", "dual", "--expr", "+".join(["x1"] * 600),
               "--at", "0.5 + 0.1 e1")
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("command,extra,code", [
    ("algebra", (), 2),
    ("lift", ("--expr", "x1", "--at", "1"), 3),
    ("check", ("--expr", "x1", "--at", "1"), 3),
    ("forms", (), 3),
    ("verify", (), 3),
])
@pytest.mark.parametrize("source", ["preset", "spec"])
def test_one_dimensional_algebra_rejected(tmp_path, command, extra, code, source):
    if source == "preset":
        algebra = ("--preset", "trunc:1")
    else:
        spec = tmp_path / "one.alg"
        spec.write_text("algebra n=1\nbasis 1\n")
        algebra = ("--spec", str(spec))
    proc = run(command, *algebra, *extra)
    assert proc.returncode == code
    assert proc.stdout == "ERROR algebra of dimension 1 has a zero radical; need n >= 2\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,extra,code", [
    ("algebra", (), 2),
    ("lift", ("--expr", "x1", "--at", "1"), 3),
])
@pytest.mark.parametrize("source", [
    "trunc:99999", "square:99999", "square:107", "trunc:" + "9" * 5000, "n=108", "n=" + "9" * 5000])
def test_dimension_past_the_validation_budget_is_refused(tmp_path, capsys, command, extra, code,
                                                         source):
    # from n = 108 the n^4 float64 associativity temporary would pass 1 GiB;
    # refused before even the n^3 table is allocated, thousands of digits too
    if source.startswith("n="):
        spec = tmp_path / "big.alg"
        spec.write_text(f"algebra {source}\nbasis 1 " + " ".join(f"e{i}" for i in range(1, 108)))
        algebra = ("--spec", str(spec))
    else:
        algebra = ("--preset", source)
    tracemalloc.start()
    try:
        got = _strict_run(capsys, [command, *algebra, *extra])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (code, "ERROR algebra dimension over 107: validating it would take an n^4 "
                   "float64 array of more than 1 GiB\n", "")
    assert peak < 2**20


@pytest.mark.parametrize("lines", [
    "mul a a = 1*b\nmul a a = 0\n",
    "mul a b = 0\nmul b a = 0\n",
], ids=("same-order", "swapped"))
def test_repeated_mul_line_exit2(tmp_path, lines):
    spec = tmp_path / "dup.alg"
    spec.write_text("algebra n=3\nbasis 1 a b\n" + lines)
    proc = run("algebra", "--spec", str(spec))
    assert proc.returncode == 2
    assert proc.stdout.startswith("ERROR product of ")
    assert "given twice" in proc.stdout


@pytest.mark.parametrize("command,code", [("algebra", 2), ("check", 3)])
def test_non_finite_spec_coefficient_exit(tmp_path, command, code):
    spec = tmp_path / "huge.alg"
    spec.write_text("algebra n=2\nbasis 1 a\nmul a a = 1e400*a\n")
    extra = ("--expr", "x1", "--at", "1") if command == "check" else ()
    proc = run(command, "--spec", str(spec), *extra)
    assert proc.returncode == code
    assert proc.stdout.startswith("ERROR coefficient out of the float range")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,extra,tol,cap", [
    ("algebra", (), False, False),
    ("lift", ("--expr", "x1", "--at", "1"), False, False),
    ("check", ("--expr", "x1", "--at", "1"), True, False),
    ("verify", (), True, True),
    ("forms", (), True, True),
])
def test_tol_and_cap_only_where_read(command, extra, tol, cap):
    parser = build_parser()
    base = [command, "--preset", "dual", *extra]
    for option, value, kept in (("--tol", "1e-3", tol), ("--cap", "7", cap)):
        if kept:
            args = parser.parse_args(base + [option, value])
            assert getattr(args, option[2:]) == float(value)
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(base + [option, value])


@pytest.mark.parametrize("coef", ["1e-6", "1", "1e6", "1e10", "1e14"])
def test_scaled_square_keeps_its_monomials(tmp_path, coef):
    # R[a]/(a^3) with b = a^2/coef: the monomial a^2 is coef times longer
    # than a, and each is judged on its own scale
    spec = tmp_path / "scaled.alg"
    spec.write_text(f"algebra n=3\nbasis 1 a b\nmul a a = {coef}*b\n")
    proc = run("algebra", "--spec", str(spec))
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    for line in ("FILTRATION_DIMS=2,1,0", "NU=3", "SOCLE=e2"):
        assert line in lines


TWO_SQUARES_REPORT = """CHECK valid_local_algebra PASS detail=0
---
N=4
LABELS=1,e1,e2,e3
RADICAL_DIM=3
FILTRATION_DIMS=3,1,0
NU=3
PSEUDOBASIS=e1,e2
MONOMIAL[e1]=(1,0)
MONOMIAL[e2]=(0,1)
MONOMIAL[e3]=(2,0)
SOCLE=e3
RADICAL_BASIS[0]=0 + 1 a
RADICAL_BASIS[1]=0 + 1 c
RADICAL_BASIS[2]=0 + 1 b
"""


def _unequal_squares(tmp_path, coef):
    spec = tmp_path / "squares.alg"
    spec.write_text(f"algebra n=4\nbasis 1 a b c\nmul a a = {coef}*c\nmul b b = 1*c\n")
    return run("algebra", "--spec", str(spec))


@pytest.mark.parametrize("coef", ["1", "1e6", "1e10", "1e14"])
def test_socle_of_unequal_squares(tmp_path, coef):
    # a^2 = coef c and b^2 = c: the socle is span{c} however far apart the
    # two products are in size (at 1e10 b used to count as socle, exit 2)
    proc = _unequal_squares(tmp_path, coef)
    assert (proc.returncode, proc.stdout) == (0, TWO_SQUARES_REPORT)


def test_socle_of_tiny_square_is_refused(tmp_path):
    # standard_basis flags a (a^2 = 1e-10 c) as socle without weighing the
    # term size; socle_basis does not, so the mismatch is refused rather than
    # printed as the wrong socle e2,e3
    proc = _unequal_squares(tmp_path, "1e-10")
    assert proc.returncode == 2
    assert proc.stdout == "ERROR standard basis monomials do not span the socle\n"


@pytest.mark.parametrize("command,code", [("algebra", 2), ("check", 3)])
@pytest.mark.parametrize("lines,message", [
    ("mul a a = 1e300*a\n", "products of the structure constants leave the float range"),
    # associative, with finite products, but tr(L_a) = 2e154 overflows the form
    ("mul a a = 1e154*a\nmul a b = 1e154*b\n",
     "the trace form of the algebra leaves the float range"),
], ids=("products", "trace-form"))
def test_overflowing_table_exits_with_float_range(tmp_path, command, code, lines, message):
    spec = tmp_path / "big.alg"
    spec.write_text("algebra n=3\nbasis 1 a b\n" + lines)
    extra = ("--expr", "x1", "--at", "1") if command != "algebra" else ()
    # warnings as errors: no inf - inf may reach a comparison
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "localalg", command,
                           "--spec", str(spec), *extra], capture_output=True, text=True,
                          env=localalg_env())
    assert proc.returncode == code
    assert proc.stdout == f"ERROR {message}\n"
    assert proc.stderr == ""


def _strict_run(capsys, argv):
    """(exit code, stdout, stderr) of an in-process run, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("command,extra,lines", [
    ("algebra", (), ("FILTRATION_DIMS=4,3,2,1,0", "NU=5", "SOCLE=e4")),
    ("check", ("--expr", "sin(x1)", "--at", "0.5 + 1 e1"), ()),
    ("verify", ("--m", "1", "--degree", "1"), ("NULLSPACE_DIM=7",)),
    ("forms", ("--m", "1", "--degree", "1"), ("FORM_NULLSPACE_DIM=7",)),
])
def test_large_structure_constants_pass_every_command(tmp_path, capsys, command, extra,
                                                      lines):
    # R[a]/(a^5) with every product scaled by 1e100, so a^4 = 1e300 a4: the
    # term sizes squared their entries, overflowed and refused every candidate
    spec = tmp_path / "big.alg"
    spec.write_text(scaled_trunc_spec(5, "1e100"))
    code, out, err = _strict_run(capsys, [command, "--spec", str(spec), *extra])
    assert (code, err) == (0, ""), out
    for line in lines:
        assert line in out.splitlines()


@pytest.mark.parametrize("command,extra,code", [
    ("algebra", (), 2),
    ("check", ("--expr", "x1", "--at", "1"), 3),
    ("verify", (), 3),
    ("forms", (), 3),
])
def test_monomial_outside_the_float_range_is_named(tmp_path, capsys, command, extra, code):
    # R[a]/(a^6) at 1e100 is a valid table, but a^5 = 1e400 a5
    spec = tmp_path / "big.alg"
    spec.write_text(scaled_trunc_spec(6, "1e100"))
    assert _strict_run(capsys, [command, "--spec", str(spec), *extra]) == (
        code, "ERROR pseudobasis monomials leave the float range\n", "")


ALGEBRA_GOLDEN = Path(__file__).parent / "golden" / "algebra_presets.txt"
GOLDEN_PRESETS = (["dual"] + [f"trunc:{k}" for k in range(2, 10)]
                  + [f"square:{r}" for r in range(2, 5)])


def test_algebra_preset_reports_match_golden(capsys):
    # the golden file holds the reports of the per-monomial rank scan that
    # the graded standard basis replaced; the reports must not move
    text = ""
    for name in GOLDEN_PRESETS:
        code = main(["algebra", "--preset", name])
        text += f"# algebra --preset {name}\n{capsys.readouterr().out}# exit {code}\n"
    assert text == ALGEBRA_GOLDEN.read_text(encoding="utf-8")


VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify_presets.txt"


def test_verify_preset_reports_match_golden(capsys):
    # the golden file holds the reports of the design-matrix min-leaf check
    # that the lattice evaluation replaced; the reports must not move
    text = ""
    for name in ("dual", "trunc:3", "square:2"):
        for m, d, grid in itertools.product((1, 2), (0, 1, 2), (32, 7)):
            argv = ["verify", "--preset", name, "--m", str(m), "--degree", str(d),
                    "--grid", str(grid)]
            code = main(argv)
            text += f"# {' '.join(argv)}\n{capsys.readouterr().out}# exit {code}\n"
    assert text == VERIFY_GOLDEN.read_text(encoding="utf-8")


FORMS_GOLDEN = Path(__file__).parent / "golden" / "forms_presets.txt"
ROUND_OFF_PREFIXES = ("INJECTIVITY_RESIDUAL=", "CHECK class_map_injective PASS detail=")


def test_forms_preset_reports_match_golden(capsys):
    # the golden file holds the reports of the solve with A-linearity rows
    # and closedness rows, which the commutant frame and the Hodge projector
    # symbol replaced; only the injectivity residual, which is round-off,
    # may move, and it must stay at round-off
    got = ""
    for name, m, d in FORMS_LADDER:
        argv = ["forms", "--preset", name, "--m", str(m), "--degree", str(d)]
        code = main(argv)
        got += f"# {' '.join(argv)}\n{capsys.readouterr().out}# exit {code}\n"
    want = FORMS_GOLDEN.read_text(encoding="utf-8").splitlines()
    got = got.splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        prefix = next((p for p in ROUND_OFF_PREFIXES if w.startswith(p)), None)
        if prefix is None:
            assert g == w
        else:
            assert g.startswith(prefix), (g, w)
            assert 0.0 <= float(g[len(prefix):]) <= 1e-12, g


LIFT_GOLDEN = Path(__file__).parent / "golden" / "lift_presets.txt"
# lines whose floats may move on expressions with '/' or 'log': their series
# went from invert's geometric series and the v^2 quotient rule to the 1/x
# derivative series and the (u' - (u/v) v') / v rule
SERIES_LINES = ("TAYLOR ", "EVAL ", "DIFF=", "DEFECT=", "CHECK adiff_defect ")


def lift_golden_runs():
    """argv of every run in tests/golden/lift_presets.txt, seeded points."""
    rng = np.random.default_rng(2026)
    for name in ("dual", "trunc:3", "trunc:6", "square:2"):
        A = preset(name)
        for text in CORPUS:
            at = "; ".join(format_element(row, A)
                           for row in unit_safe_point(rng, CORPUS_VARS, A.n))
            for command in ("lift", "check"):
                yield [command, "--preset", name, "--expr", text, "--at", at]


def test_lift_preset_reports_match_golden(capsys):
    # the golden file holds the reports of the single-point lift_eval with
    # invert's series and the v^2 quotient rule; only the series lines of
    # expressions with '/' or 'log' may move, and only by round-off
    got = ""
    for argv in lift_golden_runs():
        code = main(argv)
        got += f"# {' '.join(argv)}\n{capsys.readouterr().out}# exit {code}\n"
    want = LIFT_GOLDEN.read_text(encoding="utf-8").splitlines()
    got = got.splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.startswith("# ") and not w.startswith("# exit"):
            text = w.split(" --expr ")[1].split(" --at ")[0]
            A = preset(w.split(" --preset ")[1].split()[0])
        prefix = next((p for p in SERIES_LINES if w.startswith(p)), None)
        if prefix is None or not ("/" in text or "log" in text):
            assert g == w
        elif prefix in ("TAYLOR ", "EVAL "):
            a, b = (parse_element(x.removeprefix(prefix), A) for x in (g, w))
            assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(), err_msg=text)
        elif prefix == "CHECK adiff_defect ":
            assert g.split()[2] == w.split()[2], (g, w)
        else:
            assert g.startswith(prefix), (g, w)
            bound = 1e-13 if prefix == "DIFF=" else 1e-8
            assert 0.0 <= float(g.removeprefix(prefix)) <= bound, (text, g)


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "dual", "--m", "100000"],
    ["forms", "--preset", "dual", "--m", "100000"],
    ["forms", "--preset", "dual", "--m", "100000000"],
], ids=("verify-columns", "forms-columns", "forms-huge"))
def test_huge_m_exits_5_at_once(capsys, argv):
    # the counts 32^100000 and 4 * 3^(2*10^8) are refused by their
    # logarithms: building them took seconds and printing them raised
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert code == 5
    assert out.startswith("ERROR size cap exceeded: more than 2^")


@pytest.mark.parametrize("command", ["verify", "forms"])
def test_trig_space_past_int64_exits_5(command):
    # 3^66 trig basis functions fit under a 10^40 column cap, but int64
    # cannot index them: refused by count before np.indices, which takes
    # at most 64 axes, is called
    proc = run(command, "--preset", "dual", "--m", "33", "--degree", "1", "--cap", "1" + "0" * 40)
    assert (proc.returncode, proc.stderr) == (5, "")
    assert proc.stdout == (f"ERROR size cap exceeded: {3**66} trig basis functions"
                           " cannot be indexed in int64\n")


@pytest.mark.parametrize("argv", [
    ["algebra", "--preset=--"],
    ["verify", "--preset", "dual", "--degree=--"],
    ["check", "--preset", "dual", "--expr=sin", "--at=--"],
    ["algebra", "--preset", "dual", "--out=--"],
], ids=lambda argv: next(a for a in argv if a.endswith("=--")))
def test_option_value_dashdash_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # argparse reads "--name=--" as an empty list, which reached the commands
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "expected one argument" in err
    assert list(tmp_path.iterdir()) == []


SPLIT_REPORT = """CHECK valid_local_algebra FAIL detail=1
---
N=2
VIOLATION[0]=locality violated at (0,) (deviation 1.000e+00)
"""


@pytest.mark.parametrize("command,extra", [
    ("algebra", ()),
    ("lift", ("--expr", "x1", "--at", "1")),
    ("check", ("--expr", "x1", "--at", "1")),
    ("verify", ()),
    ("forms", ()),
])
def test_invalid_algebra_report_from_every_command(tmp_path, capsys, command, extra):
    spec = tmp_path / "split.alg"
    spec.write_text("algebra n=2\nbasis 1 u\nmul u u = 1*u\n")
    out = tmp_path / "report.txt"
    code = main([command, "--spec", str(spec), *extra, "--out", str(out)])
    assert (code, capsys.readouterr().out) == (2, SPLIT_REPORT)
    assert out.read_text(encoding="utf-8") == SPLIT_REPORT


@pytest.mark.parametrize("argv", [
    ["algebra", "--preset", "trunc:6"],
    ["lift", "--preset", "trunc:6", "--expr", "sin(x1)", "--at", "0.5 + 1 e1"],
    ["check", "--preset", "square:2", "--expr", "x1*x1", "--at", "1 + 1 e1"],
    ["verify", "--preset", "dual"],
    ["forms", "--preset", "dual"],
])
def test_trace_form_radical_count(monkeypatch, capsys, argv):
    # the locality check of validate_algebra takes it and hands it to
    # standard_basis; algebra prints the rows standard_basis keeps
    from localalg import algebra

    count = []
    real_radical_basis = algebra.radical_basis

    def counting_radical_basis(A):
        count.append(A)
        return real_radical_basis(A)

    monkeypatch.setattr(algebra, "radical_basis", counting_radical_basis)
    assert main(argv) == 0
    assert len(count) == 1


def _in_process(capsys, argv):
    """(stdout, exit code) of ``main`` in this process; argparse's rejections
    leave by SystemExit, as they end a shell run."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return capsys.readouterr().out, code


@pytest.mark.parametrize("sequence,codes,defaults", [
    ([["verify", "--preset", "dual", "--m", "2", "--tol", "1e-3"],
      ["verify", "--preset", "dual"]], [0, 0], {"m": 1, "tol": 1e-8}),
    ([["lift", "--preset", "dual", "--m", "2", "--expr", "x1*x2", "--at", "1 + 1 e1; 2"],
      ["lift", "--preset", "dual", "--expr", "x1", "--at", "1 + 1 e1"]], [0, 0], {"m": None}),
    ([["forms", "--preset", "dual", "--degree", "abc"],
      ["forms", "--preset", "dual"]], [2, 0], {"degree": 1}),
])
def test_reused_parser_leaks_nothing_between_calls(capsys, sequence, codes, defaults):
    # one parser serves every call of main in a process; each call still
    # reads as a fresh shell run, and the options a call leaves out take their
    # defaults. build_parser itself returns a new parser each time
    assert _parser() is _parser()
    assert build_parser() is not build_parser()
    for argv, code in zip(sequence, codes):
        proc = run(*argv)
        assert proc.returncode == code, argv
        assert _in_process(capsys, argv) == (proc.stdout, code), argv
    args = vars(_parser().parse_args(sequence[-1]))
    assert {key: args[key] for key in defaults} == defaults
