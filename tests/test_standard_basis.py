"""The graded standard basis against the scan it replaced: one SVD of the kept
span plus each candidate monomial in turn, every product by ``mul``."""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localalg import algebra
from localalg.algebra import preset
from localalg.errors import SpanFailure

from util import (
    changed_radical_basis,
    einsum_standardize,
    monomial_quotient,
    reference_socle_basis,
    reference_standard_basis,
    reference_standardize_tensor,
    scaled_trunc_spec,
    staircase_quotients,
    standard_basis,
    standardize,
    standardize_corpus,
    tensordot_radical_filtration,
)

ORACLE_PRESETS = [f"trunc:{k}" for k in range(2, 10)] + [f"square:{r}" for r in range(2, 5)]


STAIRCASES = staircase_quotients()


def _same_scan(info, ref):
    assert info.monomial == ref.monomial
    assert info.socle == ref.socle
    assert info.pseudobasis == ref.pseudobasis
    assert info.nu == ref.nu
    assert info.filtration_dims == ref.filtration_dims


@pytest.mark.parametrize("A", [preset(name) for name in ORACLE_PRESETS] + STAIRCASES,
                         ids=ORACLE_PRESETS + [f"staircase{i}" for i in range(len(STAIRCASES))])
def test_graded_pass_matches_reference_scan_bitwise(A):
    info, ref = standard_basis(A), reference_standard_basis(A)
    _same_scan(info, ref)
    assert np.array_equal(info.P, ref.P)


@pytest.mark.parametrize("name", ["trunc:3", "trunc:4"])
@pytest.mark.parametrize("seed", range(5))
def test_graded_pass_matches_reference_scan_changed_basis(name, seed):
    A = changed_radical_basis(preset(name), seed)
    info, ref = standard_basis(A), reference_standard_basis(A)
    _same_scan(info, ref)
    assert_allclose(info.P, ref.P, rtol=1e-12, atol=1e-12)


# R[x, y]/(x^2, xy, y^3) at seed 0: the first generator lies in the socle and
# its round-off square is kept as a monomial, P numerically singular (ROADMAP
# item 2); the reference scan keeps y^2
G0_IN_SOCLE = pytest.mark.xfail(strict=True, reason="round-off monomial kept")


@pytest.mark.parametrize("i,seed", [
    pytest.param(i, seed, marks=[G0_IN_SOCLE] if STAIRCASES[i].n == 4 and seed == 0 else [])
    for i in range(len(STAIRCASES)) for seed in range(2)])
def test_graded_pass_matches_reference_scan_changed_staircases(i, seed):
    A = changed_radical_basis(STAIRCASES[i], seed)
    try:
        ref = reference_standard_basis(A)
    except SpanFailure as e:
        with pytest.raises(SpanFailure, match=f"^{re.escape(str(e))}$"):
            standard_basis(A)
        return
    info = standard_basis(A)
    _same_scan(info, ref)
    assert_allclose(info.P, ref.P, rtol=1e-12, atol=1e-12)


CORPUS = standardize_corpus()


# the corpus, R[a]/(a^k) with every product scaled by c, and
# R[x, y]/(x^2, xy, y^4) in random bases (q5)
FILTRATION_CASES = {**CORPUS, **{
    f"scaled-trunc:{k}-{c:g}": algebra.from_spec(scaled_trunc_spec(k, c))
    for k in range(2, 7) for c in (1e-10, 1e-6, 1e6, 1e10, 1e14)}}
Q5 = monomial_quotient([(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)])
FILTRATION_CASES.update({f"q5-{seed}": changed_radical_basis(Q5, seed) for seed in range(20)})


@pytest.mark.parametrize("name", list(FILTRATION_CASES))
def test_filtration_is_the_tensordot_chains(name, monkeypatch):
    # the powers on all n - 1 radical maps, against standard_basis's powers
    # past rad^2 on the pseudobasis maps; the socle guard passes anything, so
    # that the powers are an output wherever the graded pass gets through
    A = FILTRATION_CASES[name]
    rad = algebra.radical_basis(A)
    chain, nu = tensordot_radical_filtration(A, rad)
    message = ("radical is not nilpotent; input is not a local algebra" if nu is None else
               f"radical dimension {rad.shape[0]} != n-1; input is not local"
               if rad.shape[0] != A.n - 1 else None)
    monkeypatch.setattr(algebra, "socle_dim", lambda A, rad: mock.ANY)
    if message is not None:
        with pytest.raises(SpanFailure, match=f"^{re.escape(message)}$"):
            algebra.standard_basis(A, rad)
        return
    info = algebra.standard_basis(A, rad)
    assert (info.filtration_dims, info.nu) == (tuple(c.shape[0] for c in chain), nu)


@pytest.mark.parametrize("name", ["dual"] + ORACLE_PRESETS)
def test_standardize_matches_naive_contraction_bitwise(name):
    A = preset(name)
    A_std, info = standardize(A)
    assert np.array_equal(A_std.C, reference_standardize_tensor(A, info))


@pytest.mark.parametrize("name", list(CORPUS))
def test_standardize_is_bitwise_the_einsum_path(name):
    # the change of basis as three GEMMs against the einsum whose path ran
    # them; summed over u first instead, 53 of these tensors round otherwise
    A = CORPUS[name]
    rad = algebra.radical_basis(A)
    try:
        want, want_info = einsum_standardize(A, rad)
    except SpanFailure as e:
        with pytest.raises(SpanFailure, match=f"^{re.escape(str(e))}$"):
            algebra.standardize(A, rad)
        return
    got, info = algebra.standardize(A, rad)
    assert (got.n, got.labels, got.C.shape) == (want.n, want.labels, want.C.shape)
    assert got.C.tobytes() == want.C.tobytes()
    for f in dataclasses.fields(info):
        a, b = getattr(info, f.name), getattr(want_info, f.name)
        assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b, f.name


@pytest.mark.parametrize("name", [name for name, A in CORPUS.items()
                                  if not algebra.validate_algebra(A)[0]])
def test_socle_dim_is_the_reference_socle_row_count(name):
    A = CORPUS[name]
    assert algebra.socle_dim(A, algebra.radical_basis(A)) == reference_socle_basis(A).shape[0]


def test_standardize_makes_no_mul_calls(monkeypatch):
    calls = []
    real_mul = algebra.mul

    def counting_mul(*args):
        calls.append(args)
        return real_mul(*args)

    monkeypatch.setattr(algebra, "mul", counting_mul)
    for A in [preset("trunc:6"), preset("square:3")] + STAIRCASES[-2:]:
        standardize(A)
    assert calls == []


def test_standard_basis_takes_one_trace_form_radical(monkeypatch):
    calls = []
    real_radical_basis = algebra.radical_basis

    def counting_radical_basis(*args):
        calls.append(args)
        return real_radical_basis(*args)

    monkeypatch.setattr(algebra, "radical_basis", counting_radical_basis)
    for A in [preset("dual"), preset("trunc:6"), preset("square:3")] + STAIRCASES:
        calls.clear()
        standard_basis(A)
        assert len(calls) == 1


def test_standard_basis_takes_one_svd_per_power_and_none_per_candidate(monkeypatch):
    # rad^2 on the n - 1 radical maps, the pseudobasis, each further power on
    # the r pseudobasis maps and the socle rank; every candidate is judged by
    # its norm; the socle guard takes singular values only
    shapes, uvs = [], []
    real_svd = np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        uvs.append(kwargs.get("compute_uv", True))
        return real_svd(a, *args, **kwargs)

    for A in [preset("trunc:8"), preset("square:3")] + STAIRCASES:
        rad = algebra.radical_basis(A)
        shapes.clear()
        uvs.clear()
        monkeypatch.setattr(np.linalg, "svd", spying_svd)
        info = algebra.standard_basis(A, rad)
        monkeypatch.setattr(np.linalg, "svd", real_svd)
        dims, r = info.filtration_dims, len(info.pseudobasis)
        assert len(shapes) == info.nu + 1
        assert [shapes[0][0], shapes[1][0]] == [dims[0] * (A.n - 1), dims[0]], shapes
        assert [shape[0] for shape in shapes[2:-1]] == [d * r for d in dims[1:-1]], shapes
        assert uvs == [True] * info.nu + [False]


def test_staircases_cover_several_shapes():
    # two generators each (the trunc presets have one), socles of several sizes
    infos = [standard_basis(A) for A in STAIRCASES]
    assert {len(info.pseudobasis) for info in infos} == {2}
    assert len({len(info.socle) for info in infos}) >= 3
    assert max(A.n for A in STAIRCASES) == 20
