"""Bounded fuzzing of the CLI options: every run ends in a documented exit code."""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from localalg.cli import main

# positive --tol values near 1 count every symbol direction as null and make
# the solution stack dense (gigabytes on square:2 m=2 d=1), so the finite
# positive draws stay at or below 1e-3
TOLS = st.one_of(st.floats(max_value=1e-3), st.sampled_from([math.nan, math.inf]))


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


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
    code, text = run_main(argv)
    assert code in {0, 2, 3, 4, 5}, (argv, text)
    if code == 3:
        assert text.startswith("ERROR "), (argv, text)
    assert run_main(argv) == (code, text)
