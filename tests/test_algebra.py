"""Structure computations: validation, arithmetic, radical, standard basis."""

import itertools
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from localalg.algebra import (
    StructureConstants,
    from_spec,
    graded_multiindices,
    mul,
    preset,
    radical_basis,
    socle_dim,
    validate_algebra,
)
from localalg.errors import AlgebraFormatError, NonUnitError, SpanFailure

from util import (
    PRESETS,
    basis_element,
    changed_radical_basis,
    invert,
    monomial_quotient,
    mult_matrix,
    nilpotency_index,
    poly_mul_trunc,
    r_plus_r,
    radical_part,
    real_part,
    reference_associativity,
    reference_violations,
    socle_basis,
    staircase_quotients,
    standard_basis,
    standardize,
    standardize_corpus,
    two_gemm_validate,
)


# -- validation -------------------------------------------------------------------


def test_dual_numbers_valid():
    assert validate_algebra(preset("dual"))[0] == []


def test_all_presets_valid():
    for name in PRESETS:
        assert validate_algebra(preset(name))[0] == [], name


def test_commutativity_violation_located():
    A = preset("trunc:3")
    C = A.C.copy()
    C[1, 2, 0] += 0.5  # C[2,1,0] left alone
    bad = StructureConstants(3, A.labels, C)
    violations = validate_algebra(bad)[0]
    axioms = {v.axiom for v in violations}
    assert "commutativity" in axioms
    comm = next(v for v in violations if v.axiom == "commutativity")
    assert comm.where in {(1, 2, 0), (2, 1, 0)}


def test_split_algebra_fails_locality():
    violations = validate_algebra(r_plus_r())[0]
    assert [v.axiom for v in violations] == ["locality"]
    # trace-form kernel of a semisimple algebra is trivial
    assert radical_basis(r_plus_r()).shape[0] == 0


def test_unit_axiom_checked():
    C = np.zeros((2, 2, 2))
    C[0, 0, 0] = 1.0  # C[0,1,1] missing
    bad = StructureConstants(2, ("1", "e1"), C)
    assert "unit" in {v.axiom for v in validate_algebra(bad)[0]}


ALL_PRESETS = (["dual"] + [f"trunc:{k}" for k in range(1, 10)]
               + [f"square:{r}" for r in range(1, 5)])


def _perturbed(A, seed, commutative):
    """A plus seeded noise on the products of radical basis vectors, the unit
    row untouched; symmetric noise keeps A commutative but not associative."""
    rng = np.random.default_rng(seed)
    noise = 10.0 ** rng.uniform(-6, 0) * rng.standard_normal((A.n - 1, A.n - 1, A.n))
    C = A.C.copy()
    C[1:, 1:] += noise + noise.transpose(1, 0, 2) if commutative else noise
    return StructureConstants(A.n, A.labels, C)


@pytest.mark.parametrize("A", [preset(name) for name in ALL_PRESETS] + staircase_quotients(),
                         ids=ALL_PRESETS + [f"staircase{i}" for i in range(12)])
def test_associativity_by_gemm_matches_the_einsum_oracle(A):
    cases = [(A, False)] + [(_perturbed(A, seed, commutative), commutative)
                            for seed in range(5) for commutative in (False, True)]
    for B, commutative in cases:
        got, expected = validate_algebra(B)[0], reference_violations(B)
        assert [v.axiom for v in got] == [v.axiom for v in expected]
        # the deviation is a difference of sums of products: its round-off
        # is relative to the largest such sum, not to the deviation
        absC = np.abs(B.C).reshape(B.n * B.n, B.n)
        term = float((absC @ absC.reshape(B.n, -1)).max())
        assoc = np.abs(reference_associativity(B.C))
        for v, w in zip(got, expected):
            if v.axiom != "associativity":
                assert v == w
                continue
            assert abs(v.detail - w.detail) <= 1e-15 * term
            # commutative deviations tie exactly in exact arithmetic, e.g. at
            # [i, j, k, m] and [k, j, i, m]; rounding may pick either witness
            if commutative:
                assert assoc[v.where] >= w.detail - 2e-15 * term
            else:
                assert v.where == w.where
        # in dimension 2, with the unit row intact, every table is associative
        assert B is A or B.n < 3 or "associativity" in {v.axiom for v in got}


VALIDATE_CASES = standardize_corpus()
VALIDATE_CASES.update({f"{name}-perturbed{seed}-{'sym' if commutative else 'asym'}":
                       _perturbed(VALIDATE_CASES[name], seed, commutative)
                       for name in ALL_PRESETS + [f"staircase{i}" for i in range(12)]
                       if VALIDATE_CASES[name].n > 1
                       for seed in range(2) for commutative in (False, True)})


@pytest.mark.parametrize("name", list(VALIDATE_CASES))
def test_validate_is_bitwise_the_two_gemm_version(name):
    # one GEMM for a table symmetric in its first two indices, as every
    # --spec file gives, two otherwise: the same witnesses, deviations, radical
    A = VALIDATE_CASES[name]
    if "/" in name:
        assert np.array_equal(A.C, np.swapaxes(A.C, 0, 1))
    (got, rad), (want, want_rad) = validate_algebra(A), two_gemm_validate(A)
    assert got == want
    assert (rad is None and want_rad is None) or rad.tobytes() == want_rad.tobytes()


# -- multiplication ----------------------------------------------------------------


def test_mul_dual_eps_squared_zero():
    A = preset("dual")
    eps = basis_element(A, 1)
    assert_allclose(mul(A, eps, eps), [0.0, 0.0])


def test_mul_trunc3_defining_relation():
    A = preset("trunc:3")
    eps = basis_element(A, 1)
    assert_allclose(mul(A, eps, eps), [0.0, 0.0, 1.0])


def test_mul_matches_polynomial_convolution():
    # (1 + eps)^2 in R[eps]/(eps^3), oracle: truncated convolution
    A = preset("trunc:3")
    a = A.element([1.0, 1.0, 0.0])
    assert_allclose(mul(A, a, a), poly_mul_trunc([1, 1, 0], [1, 1, 0], 3))
    assert_allclose(mul(A, a, a), [1.0, 2.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(PRESETS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mul_commutative_associative(name, seed):
    A = preset(name)
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-10, 10, size=(3, A.n))
    scale = 1e-12 * (1 + np.abs(a).max()) * (1 + np.abs(b).max()) * (1 + np.abs(c).max())
    assert np.abs(mul(A, a, b) - mul(A, b, a)).max() <= scale
    assert np.abs(mul(A, mul(A, a, b), c) - mul(A, a, mul(A, b, c))).max() <= scale


# -- inversion ----------------------------------------------------------------------


def test_invert_dual_example():
    A = preset("dual")
    assert_allclose(invert(A, A.element([2.0, 4.0])), [0.5, -1.0])


def test_invert_unit_is_unit():
    for name in PRESETS:
        A = preset(name)
        assert_allclose(invert(A, A.unit()), A.unit())


def test_invert_trunc3_geometric_series():
    A = preset("trunc:3")
    a = A.element([1.0, 1.0, 0.0])
    inv = invert(A, a)
    assert_allclose(inv, [1.0, -1.0, 1.0])
    # independent oracle: solve the regular-representation linear system
    oracle = np.linalg.solve(mult_matrix(A, a), A.unit())
    assert_allclose(inv, oracle, atol=1e-12)


def test_invert_rejects_non_units():
    A = preset("trunc:3")
    with pytest.raises(NonUnitError):
        invert(A, A.element([0.0, 3.0, 1.0]))
    with pytest.raises(NonUnitError):
        invert(A, A.element([1e-12, 1.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PRESETS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_invert_roundtrip_random_units(name, seed):
    A = preset(name)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5, 5, A.n)
    a[0] = rng.uniform(0.2, 5.0) * (1 if rng.integers(2) else -1)
    assert np.abs(mul(A, invert(A, a), a) - A.unit()).max() <= 1e-10 * (
        1 + np.abs(a).max() ** A.n
    )


# -- nilpotency ----------------------------------------------------------------------


def test_nilpotency_examples():
    A = preset("dual")
    assert nilpotency_index(A, basis_element(A, 1)) == 2
    assert nilpotency_index(A, A.unit()) is None

    A3 = preset("trunc:3")
    a = A3.element([0.0, 1.0, 1.0])  # eps + eps^2
    # oracle: repeated truncated convolution
    sq = poly_mul_trunc([0, 1, 1], [0, 1, 1], 3)
    cube = poly_mul_trunc(sq, [0, 1, 1], 3)
    assert np.any(sq) and not np.any(cube)
    assert nilpotency_index(A3, a) == 3


# -- radical and filtration -----------------------------------------------------------


def test_radical_dual():
    rad = radical_basis(preset("dual"))
    assert rad.shape == (1, 2)
    assert_allclose(np.abs(rad), [[0.0, 1.0]])


def test_radical_square2_brute_force():
    A = preset("square:2")
    rad = radical_basis(A)
    assert rad.shape[0] == 2
    # brute force: all non-unit combinations are nilpotent, units are not
    rng = np.random.default_rng(0)
    for _ in range(100):
        combo = rng.standard_normal(2) @ rad
        assert nilpotency_index(A, combo) is not None
    for _ in range(100):
        v = rng.uniform(-3, 3, A.n)
        v[0] = rng.uniform(0.1, 3.0) * rng.choice([-1, 1])
        assert nilpotency_index(A, v) is None


def test_radical_trivial_algebra():
    A = StructureConstants(1, ("1",), np.ones((1, 1, 1)))
    assert radical_basis(A).shape[0] == 0


def test_filtration_dims_and_nu():
    expected = {"dual": [1, 0], "trunc:3": [2, 1, 0], "trunc:4": [3, 2, 1, 0],
                "square:2": [2, 0]}
    nus = {"dual": 2, "trunc:3": 3, "trunc:4": 4, "square:2": 2}
    for name in PRESETS:
        A = preset(name)
        info = standard_basis(A)
        assert list(info.filtration_dims) == expected[name], name
        assert info.nu == nus[name], name


def test_radical_random_membership():
    for name in PRESETS:
        A = preset(name)
        rad = radical_basis(A)
        nu = standard_basis(A).nu
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.standard_normal(rad.shape[0]) @ rad
            idx = nilpotency_index(A, r)
            assert idx is not None and idx <= nu


# -- standard basis --------------------------------------------------------------------


def test_standard_basis_trunc3():
    info = standard_basis(preset("trunc:3"))
    assert info.pseudobasis == (1,)
    assert info.monomial == {1: (1,), 2: (2,)}
    assert info.socle == (2,)
    assert info.nu == 3


def test_standard_basis_square2():
    info = standard_basis(preset("square:2"))
    assert info.pseudobasis == (1, 2)
    assert sorted(info.monomial.values()) == [(0, 1), (1, 0)]
    assert info.socle == (1, 2)
    assert info.nu == 2


def test_standard_basis_dual():
    info = standard_basis(preset("dual"))
    assert info.pseudobasis == (1,)
    assert info.socle == (1,)


def test_standard_basis_presets_are_standard():
    for name in PRESETS:
        info = standard_basis(preset(name))
        assert_allclose(info.P, np.eye(info.n), atol=1e-12)


def test_monomial_reconstruction():
    # the exponent word of each standard radical element reproduces it
    for name in PRESETS:
        A = preset(name)
        A_std, info = standardize(A)
        pseudo = [basis_element(A_std, k) for k in info.pseudobasis]
        for k, exps in info.monomial.items():
            vec = A_std.unit()
            for t, power in enumerate(exps):
                for _ in range(power):
                    vec = mul(A_std, vec, pseudo[t])
            assert np.abs(vec - basis_element(A_std, k)).max() <= 1e-10


def test_two_generator_nilpotent_spec_file():
    text = """
algebra n=4
basis 1 x y xy
mul x x = 0
mul x y = 1*xy
mul y y = 0
mul x xy = 0
mul y xy = 0
mul xy xy = 0
"""
    A = from_spec(text)
    assert validate_algebra(A)[0] == []
    info = standard_basis(A)
    assert len(info.pseudobasis) == 2
    assert info.nu == 3
    assert sorted(info.monomial.values()) == [(0, 1), (1, 0), (1, 1)]
    assert len(info.socle) == 1
    A_std, info = standardize(A)
    assert validate_algebra(A_std)[0] == []


def test_standard_basis_rejects_split_algebra():
    with pytest.raises(SpanFailure):
        standard_basis(r_plus_r())


def test_standard_basis_rejects_a_radical_square_that_does_not_shrink():
    # a b = a, b b = -b: every multiplication by a or b is traceless, so the
    # radical is span(a, b) and equals its square; validate_algebra reports
    # the table as not associative first
    A = from_spec("algebra n=3\nbasis 1 a b\nmul a b = 1*a\nmul b b = -1*b\n")
    assert [v.axiom for v in validate_algebra(A)[0]] == ["associativity"]
    with pytest.raises(SpanFailure, match="^radical is not nilpotent; input is not a local"):
        standard_basis(A)


@pytest.mark.parametrize("name,dims,nu,socle", [
    ("trunc:3", (2, 1, 0), 3, 1),
    ("trunc:4", (3, 2, 1, 0), 4, 1),
    ("square:2", (2, 0), 2, 2),
])
@pytest.mark.parametrize("seed", range(5))
def test_changed_radical_basis_keeps_invariants(name, dims, nu, socle, seed):
    # in a changed basis the powers of the radical past nu are round-off,
    # which must not count as rank
    A = changed_radical_basis(preset(name), seed)
    assert radical_basis(A).shape[0] == A.n - 1
    info = standard_basis(A)
    assert (info.filtration_dims, info.nu, len(info.socle)) == (dims, nu, socle)
    assert socle_basis(A, radical_basis(A)).shape[0] == len(info.socle) == socle


def test_changed_monomial_quotient_socle_is_a_span_failure():
    # R[x, y]/(x^4, xy, y^2) has socle span{y, x^3}; monomials in generic
    # generators are not adapted to it
    M = monomial_quotient([(0, 0), (1, 0), (0, 1), (2, 0), (3, 0)])
    assert len(standard_basis(M).socle) == 2
    with pytest.raises(SpanFailure, match="do not span the socle"):
        standard_basis(changed_radical_basis(M, 0))


# -- socle --------------------------------------------------------------------------


def _socle_oracle(A):
    """Exact annihilator kernel over the rationals (independent route)."""
    n = A.n
    rows = []
    for l in range(1, n):
        for k in range(n):
            rows.append([sympy.Rational(A.C[j, l, k]) for j in range(n)])
    rows.append([1] + [0] * (n - 1))  # radical membership: no unit component
    kernel = sympy.Matrix(rows).nullspace()
    return np.array([[float(v) for v in vec] for vec in kernel]).reshape(
        len(kernel), n
    )


def test_socle_matches_exact_annihilator():
    for name in PRESETS:
        A = preset(name)
        soc = socle_basis(A, radical_basis(A))
        oracle = _socle_oracle(A)
        assert soc.shape[0] == oracle.shape[0], name
        # same span: every oracle vector projects onto the computed basis
        for vec in oracle:
            proj = (vec @ soc.T) @ soc
            assert np.abs(proj - vec).max() <= 1e-10, name


def test_socle_examples():
    def socle(name):
        A = preset(name)
        return socle_basis(A, radical_basis(A))

    assert_allclose(np.abs(socle("trunc:4")), [[0, 0, 0, 1.0]])
    soc = socle("square:2")
    assert soc.shape[0] == 2
    assert_allclose(soc[:, 0], [0.0, 0.0])
    assert_allclose(np.abs(socle("dual")), [[0.0, 1.0]])


def test_socle_judges_each_radical_column_on_its_term_size():
    # a^2 = 1e10 c next to b^2 = c: b is not in the socle
    A = from_spec("algebra n=4\nbasis 1 a b c\nmul a a = 1e10*c\nmul b b = 1*c\n")
    assert_allclose(np.abs(socle_basis(A, radical_basis(A))), [[0, 0, 0, 1.0]])


@pytest.mark.parametrize("coef", ["1e-10", "1", "1e10"])
def test_socle_dim_is_the_exact_annihilator_dimension_at_any_scale(coef):
    # a^2 = coef c next to b^2 = c: the socle is span{c}; at 1e-10 the
    # relative rule of reference_socle_basis reads 2, at 1e10 it reads 3
    A = from_spec(f"algebra n=4\nbasis 1 a b c\nmul a a = {coef}*c\nmul b b = 1*c\n")
    assert socle_dim(A, radical_basis(A)) == _socle_oracle(A).shape[0] == 1


def test_socle_annihilates_radical():
    for name in PRESETS:
        A = preset(name)
        rad = radical_basis(A)
        for s in socle_basis(A, radical_basis(A)):
            for e in rad:
                assert np.abs(mul(A, s, e)).max() <= 1e-12


# -- real and radical parts ------------------------------------------------------------


def test_real_radical_split():
    A = preset("trunc:3")
    a = A.element([0.5, -1.0, 4.0])
    assert real_part(a) == 0.5
    assert_allclose(radical_part(a), [0.0, -1.0, 4.0])
    assert_allclose(real_part(a) * A.unit() + radical_part(a), a)
    assert real_part(A.unit()) == 1.0
    assert_allclose(radical_part(A.unit()), A.zero())


# -- spec files -------------------------------------------------------------------------


def test_spec_file_roundtrip_dual():
    A = from_spec("algebra n=2\nbasis 1 eps\nmul eps eps = 0\n")
    assert_allclose(A.C, preset("dual").C)
    assert A.labels == ("1", "eps")


def test_spec_file_coefficients():
    A = from_spec(
        "algebra n=3\nbasis 1 a b\nmul a a = 2*b\nmul a b = 0\nmul b b = 0\n"
    )
    assert validate_algebra(A)[0] == []
    assert_allclose(mul(A, basis_element(A, 1), basis_element(A, 1)),
                    [0.0, 0.0, 2.0])


def test_spec_file_errors():
    with pytest.raises(AlgebraFormatError):
        from_spec("basis 1 e1\n")
    with pytest.raises(AlgebraFormatError):
        from_spec("algebra n=2\nbasis u 1\n")
    with pytest.raises(AlgebraFormatError):
        from_spec("algebra n=2\nbasis 1 u\nmul u w = 0\n")
    with pytest.raises(AlgebraFormatError):
        from_spec("algebra n=2\nbasis 1 u\nmul u u = 1*\n")
    with pytest.raises(AlgebraFormatError):
        from_spec("algebra n=0\nbasis\n")


@pytest.mark.parametrize("rhs", ["1e400*a", "-1e400*a", "1e308*a + 1e308*a"])
def test_spec_non_finite_coefficient_is_an_error(rhs):
    with pytest.raises(AlgebraFormatError, match="float range"):
        from_spec(f"algebra n=2\nbasis 1 a\nmul a a = {rhs}\n")


def test_spec_repeated_product_is_an_error():
    head = "algebra n=3\nbasis 1 a b\n"
    for lines in ("mul a a = 1*b\nmul a a = 0\n",
                  "mul a b = 0\nmul b a = 0\n",
                  "mul a b = 0\nmul b b = 0\nmul a b = 1*b\n"):
        with pytest.raises(AlgebraFormatError, match="given twice"):
            from_spec(head + lines)
    A = from_spec(head + "mul a a = 1*b\nmul a b = 0\nmul b b = 0\n")
    assert validate_algebra(A)[0] == []


def test_graded_multiindices_of_no_parts_is_empty():
    assert list(graded_multiindices(0, 5)) == []
    assert list(graded_multiindices(2, 2)) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # taylor_lift sums in this order, so it fixes every TAYLOR bit: by degree,
    # then descending lexicographic order, against a brute-force oracle
    for parts, max_degree in itertools.product(range(6), range(8)):
        oracle = sorted((p for p in itertools.product(range(max_degree + 1), repeat=parts)
                         if 1 <= sum(p) <= max_degree),
                        key=lambda p: (sum(p), tuple(-e for e in p)))
        assert list(graded_multiindices(parts, max_degree)) == oracle, (parts, max_degree)


@pytest.mark.parametrize("rhs", ["1e300*a", "-1e300*a"])
def test_validate_overflowing_products_is_an_error(rhs):
    A = from_spec(f"algebra n=2\nbasis 1 a\nmul a a = {rhs}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraFormatError, match="float range"):
            validate_algebra(A)


def test_validate_overflow_past_the_first_slab_is_an_error():
    # at n = 20 the deviation is reduced in slabs of four rows i; the infinite
    # products (e5 e6) e7 and (e6 e5) e7, in both places, all lie past the first
    A = preset("trunc:20")
    C = A.C.copy()
    C[5, 6, 10] = C[6, 5, 10] = C[10, 7, 17] = C[7, 10, 17] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraFormatError, match="float range"):
            validate_algebra(StructureConstants(A.n, A.labels, C))


def test_validate_overflowing_trace_form_is_an_error():
    A = from_spec("algebra n=3\nbasis 1 a b\nmul a a = 1e154*a\nmul a b = 1e154*b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraFormatError, match="trace form .* float range"):
            validate_algebra(A)
