"""End-to-end CLI behaviour: output contracts, exit codes, determinism."""

import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "localalg"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


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


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.txt"
    proc = run("verify", "--preset", "dual", "--degree", "1", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


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
], ids=lambda args: f"{args[0]}{args[1]}={args[2]}")
def test_torus_argument_out_of_range_exit3(args):
    command, flag, value = args
    proc = run(command, "--preset", "dual", flag, value)
    assert proc.returncode == 3
    assert proc.stdout.startswith(f"ERROR {flag} {value} must be at least")
    assert "Traceback" not in proc.stderr
