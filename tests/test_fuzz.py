"""Bounded fuzzing of the CLI options, spec files, expressions and element
literals: every run ends in a documented exit code and repeats its bytes."""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from localalg.cli import main

from util import scaled_trunc_spec

# positive --tol values near 1 count every symbol direction as null and make
# the solution stack dense (gigabytes on square:2 m=2 d=1), so the finite
# positive draws stay at or below 1e-3
TOLS = st.one_of(st.floats(max_value=1e-3), st.sampled_from([math.nan, math.inf]))


def run_main(argv):
    """(exit code, stdout) of one in-process run; argparse's SystemExit
    code counts as the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def assert_documented_and_repeatable(argv):
    code, text = run_main(argv)
    assert code in {0, 2, 3, 4, 5}, (argv, text)
    if code == 3:
        assert text.startswith("ERROR "), (argv, text)
    assert run_main(argv) == (code, text)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["verify", "forms", "check"]),
    name=st.sampled_from(["dual", "trunc:3", "square:2"]),
    m=st.integers(-2, 2),
    degree=st.integers(-2, 2),
    grid=st.integers(-2, 40),
    cap=st.integers(-5, 20000),
    tol=TOLS,
)
def test_cli_options_end_in_a_documented_exit_code(command, name, m, degree, grid, cap,
                                                   tol):
    # "--flag=value" keeps argparse from reading "-inf" or "-2" as an option
    argv = [command, "--preset", name, f"--m={m}", f"--tol={tol!r}"]
    if command == "check":
        argv += ["--expr", "sin(x1)", "--at", "0.5 + 1 e1"]
    else:
        argv += [f"--degree={degree}", f"--cap={cap}"]
    if command == "verify":
        argv.append(f"--grid={grid}")
    assert_documented_and_repeatable(argv)


# spec coefficients: exact, scaled, overflowing (1e400) and subnormal (1e-320)
COEFS = ("1", "0.5", "1e-10", "1e10", "1e400", "1e-320")


@st.composite
def spec_texts(draw):
    """Spec files with n = 1..4. Most mul lines multiply radical elements;
    some name the unit or an element that does not exist (``z``), and a
    product may be given twice."""
    n = draw(st.integers(1, 4))
    names = ["1"] + [f"a{i}" for i in range(1, n)]
    pool = st.sampled_from(names[1:] * 20 + ["1", "z"])
    lines = [f"algebra n={n}", "basis " + " ".join(names)]
    for _ in range(draw(st.integers(0, 5))):
        terms = draw(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(COEFS), pool),
                              max_size=2))
        rhs = " ".join(f"{sign} {c}*{k}" for sign, c, k in terms).lstrip("+ ") or "0"
        lines.append(f"mul {draw(pool)} {draw(pool)} = {rhs}")
    return "\n".join(lines) + "\n"


SPEC_COMMANDS = (
    ("algebra",),
    ("lift", "--expr", "sin(x1)", "--at", "0.5 + 1 e1"),
    ("check", "--expr", "sin(x1)", "--at", "0.5 + 1 e1"),
    ("verify", "--grid", "4"),
    ("forms",),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=spec_texts())
def test_spec_files_end_in_a_documented_exit_code(tmp_path_factory, text):
    spec = tmp_path_factory.getbasetemp() / "fuzz.alg"
    spec.write_text(text, encoding="utf-8")
    for command, *extra in SPEC_COMMANDS:
        assert_documented_and_repeatable([command, "--spec", str(spec), *extra])


# expression and literal pieces, with the option terminator and non-finite
# numbers; "--" alone is what argparse turns into an empty list
EXPR_PIECES = ("x1", "x2", "sin(x1)", "log(x2)", "(", ")", "+", "-", "*", "/", "^2",
               "0.5", "1e400", "nan", ";", "--", " ")
LITERAL_PIECES = ("0.5", "-1", " + 1 e1", " - 0.5 e2", "e1", "1e400", "1e-320", "nan",
                  "inf", "; ", "--", " ")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["lift", "check"]),
    name=st.sampled_from(["dual", "trunc:3"]),
    expr=st.one_of(st.sampled_from(EXPR_PIECES),
                   st.lists(st.sampled_from(EXPR_PIECES), max_size=6).map("".join)),
    at=st.one_of(st.sampled_from(LITERAL_PIECES),
                 st.lists(st.sampled_from(LITERAL_PIECES), max_size=6).map("".join)),
)
def test_expressions_and_literals_end_in_a_documented_exit_code(command, name, expr, at):
    assert_documented_and_repeatable([command, "--preset", name, f"--expr={expr}",
                                      f"--at={at}"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(2, 10), exponent=st.integers(0, 320))
def test_scaled_truncations_match_trunc_or_leave_the_float_range(tmp_path_factory, k,
                                                                 exponent):
    # R[a]/(a^k) with every product scaled by 10^e: it is trunc:k whenever its
    # monomials, up to a1^(k-1) = 10^(e(k-2)) a(k-1), stay finite. Scales
    # below 1 are left out: the socle flag ignores term sizes and refuses
    # R[a]/(a^4) from 1e-5 on (test_socle_of_tiny_square_is_refused pins it)
    spec = tmp_path_factory.getbasetemp() / "scaled.alg"
    spec.write_text(scaled_trunc_spec(k, f"1e{exponent}"), encoding="utf-8")
    finite = math.isfinite(float(f"1e{exponent * (k - 2)}"))
    for argv in (["algebra"], ["check", "--expr", "sin(x1)", "--at", "0.5 + 1 e1"]):
        with warnings.catch_warnings():  # nothing may reach stderr
            warnings.simplefilter("error")
            code, text = run_main([argv[0], "--spec", str(spec), *argv[1:]])
        if not finite:
            assert code in {2, 3}, text
            continue
        assert code == 0, text
        if argv == ["algebra"]:
            dims = ",".join(str(d) for d in range(k - 1, -1, -1))
            assert {f"FILTRATION_DIMS={dims}", f"NU={k}", f"SOCLE=e{k - 1}"} <= set(
                text.splitlines())
