"""Reported dimensions against the exact per-mode oracle of ``exact``."""

import numpy as np
import pytest
import sympy

from localalg.algebra import preset
from localalg.cli import main

import exact
from util import make_torus


def test_exact_rank_matches_sympy():
    rng = np.random.default_rng(0)
    for shape in ((4, 6), (6, 4), (5, 5)):
        M = rng.integers(-2, 3, size=shape)
        M[:, 1] = M[:, 0] * 3  # at least one dependent column
        assert exact.rank(M.tolist()) == sympy.Matrix(M.tolist()).rank()
    assert exact.rank([]) == 0
    assert exact.rank([[0, 0], [0, 0]]) == 0


def machine_keys(text):
    block = text.split("\n---\n", 1)[1]
    return dict(line.split("=", 1) for line in block.splitlines() if "=" in line)


@pytest.mark.parametrize("name, m, d", [("trunc:3", 1, 3), ("square:2", 1, 3), ("dual", 2, 2)])
def test_reported_dimensions_match_the_exact_oracle(name, m, d, capsys):
    cfg = make_torus(preset(name), m)
    want = exact.dimensions(cfg.algebra, m, d, cfg.info.breve_indices())
    got = {}
    for command in ("verify", "forms"):
        assert main([command, "--preset", name, "--m", str(m), "--degree", str(d)]) == 0
        got.update(machine_keys(capsys.readouterr().out))
    assert {key: int(got[key]) for key in want} == want
