"""Braiding scalars, balancing phases, hexagon solutions, intrinsic dimensions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mutant
from triplet import braidfmat
from triplet.braidfmat import (
    GAUGE_EXPONENTS,
    FMatrix,
    FSolution,
    balancing_check,
    hexagon_residual,
    hexagon_solutions,
    intrinsic_dimension,
    r_scalar_formula,
    r_scalar_table,
)
from triplet.exactnum import Phase
from triplet.fusion import fuse_C
from triplet.verify import PROPERTIES, _phase_sign
from triplet.virasoro import Params, conformal_weight, sl2_lowest_weight

PAIRS = [Params(2, 3), Params(3, 4), Params(2, 5), Params(3, 5), Params(4, 5)]


def test_r_scalar_table_at_2_3():
    p23 = Params(2, 3)
    assert r_scalar_table(p23, 1, 0) == Phase(Fraction(1))  # e^{3*pi*i} = -1
    assert r_scalar_table(p23, 1, 2) == Phase(Fraction(0))  # +1


def test_r_scalar_table_ratio_is_minus_one():
    for params in PAIRS:
        r0 = r_scalar_table(params, 1, 0)
        r2 = r_scalar_table(params, 1, 2)
        assert r2 == r0 * Phase(Fraction(1))


def test_r_scalar_table_domain():
    with pytest.raises(ValueError):
        r_scalar_table(Params(2, 3), 2, 0)
    with pytest.raises(ValueError):
        r_scalar_table(Params(2, 3), 1, 1)


def test_r_scalar_formula_values():
    p23 = Params(2, 3)
    # hand evaluation: h_{3,1}=2, h_{5,1}=7, h_{7,1}=15
    assert r_scalar_formula(p23, 1, 0) == Phase(Fraction(0))  # e^{i*pi*(2-14)} = +1
    assert r_scalar_formula(p23, 1, 2) == Phase(Fraction(1))  # e^{i*pi*(15-14)} = -1
    for params in PAIRS:
        expected = Phase(Fraction(-(params.p - 1) * (params.q - 1)))
        assert r_scalar_formula(params, 0, 0) == expected


def test_r_scalar_formula_square_is_convention_free():
    for params in PAIRS:
        sq = r_scalar_formula(params, 1, 2) ** 2
        assert sq == balancing_check(params, 1)[2]


def test_r_scalar_conventions_differ_by_global_sign():
    for params in PAIRS:
        for k in (0, 2):
            table = r_scalar_table(params, 1, k)
            formula = r_scalar_formula(params, 1, k)
            assert formula == Phase(table.exponent + 1)


def test_r_scalar_formula_domain():
    for n, k in [(1, 1), (1, 4), (1, -2), (2, 3), (-1, 0)]:
        with pytest.raises(ValueError, match=rf"^k={k} is not a channel of L_{n} \(x\) L_{n}$"):
            r_scalar_formula(Params(2, 3), n, k)
    for n in range(6):
        for k in fuse_C(n, n):
            r_scalar_formula(Params(2, 3), n, k)


def test_balancing_examples():
    for params in PAIRS:
        eps = Fraction((-1) ** (params.p * params.q))
        phases = balancing_check(params, 1)
        assert _phase_sign(phases[0]) == eps
        assert _phase_sign(phases[2]) == eps
        assert balancing_check(params, 0)[0] == Phase(Fraction(0))


def test_balancing_property_catches_an_asymmetric_psl2_part(monkeypatch):
    # Shifting the weight of L_n by 1/4 for even n >= 4, in both the R-scalar
    # formula and the balancing, keeps R^2 equal to the balancing phase on
    # every channel, and leaves n = 1 alone for the tabulated R-scalars; only
    # the check that the even-n phases are 1 sees it.
    def shift(n):
        return Fraction(1, 4) if n >= 4 and n % 2 == 0 else 0

    def cw(params, lbl):
        n, rem = divmod(lbl.r + 1, params.p)
        h = conformal_weight(params, lbl)
        return h + shift(n - 2) if lbl.s == 1 and rem == 0 else h

    def lowest(params, n):
        return sl2_lowest_weight(params, n) + shift(n)

    monkeypatch.setattr(braidfmat, "conformal_weight", cw)
    monkeypatch.setattr(braidfmat, "sl2_lowest_weight", lowest)
    params = PAIRS[0]
    for n in range(9):
        for k in fuse_C(n, n):
            assert r_scalar_formula(params, n, k) ** 2 == balancing_check(params, n)[k]
    assert balancing_check(params, 2)[4] != Phase(0)
    with pytest.raises(AssertionError):
        PROPERTIES["braidfmat"]["squared_r_scalars_equal_balancing"]()


def test_phase_denominators_divide_4pq():
    for params in PAIRS:
        bound = 4 * params.p * params.q
        for n in range(9):
            for k in fuse_C(n, n):
                phase = r_scalar_formula(params, n, k)
                assert bound % phase.exponent.denominator == 0
            for phase in balancing_check(params, n).values():
                assert bound % phase.exponent.denominator == 0


def test_hexagon_solutions_shape():
    for params in PAIRS:
        eps = (-1) ** (params.p * params.q)
        diag, param = hexagon_solutions(params)
        assert (diag.kind, diag.epsilon) == ("Diagonal", eps)
        assert diag.matrix.entries() == (eps, 0, 0, eps)
        assert (param.kind, param.epsilon) == ("Parametrized", eps)
        assert param.matrix.f00 == Fraction(-eps, 2)
        assert param.matrix.f22 == Fraction(-eps, 2)
        assert param.matrix.f02 == 1
        assert param.matrix.f20 == Fraction(-3, 4)
        assert all(type(x) is Fraction for sol in (diag, param) for x in sol.matrix.entries())


def test_hexagon_substitution_at_t_one():
    # pq even, t = 1: squaring the parametrized matrix reproduces the twist.
    _, param = hexagon_solutions(Params(2, 3))
    m = param.matrix.evaluate(Fraction(1))
    a, b, c, d = m.entries()
    square = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
    assert square == (Fraction(-1, 2), Fraction(-1), Fraction(3, 4), Fraction(-1, 2))
    assert square == (a, -b, -c, d)


def test_evaluate_is_the_gauge_monomial_entrywise():
    # Entry (i, j) of evaluate(t0) is c*t0^e, with c that of the stored t = 1
    # member and e = GAUGE_EXPONENTS[i][j].
    rng = random.Random(20256)
    t0s = [Fraction(10**30, 7), Fraction(-3, 7), Fraction(1)]
    for _ in range(20):
        t0s.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**4)))
    exponents = [e for row in GAUGE_EXPONENTS for e in row]
    for params in PAIRS:
        for sol in hexagon_solutions(params):
            for t0 in t0s:
                expected = tuple(c * t0**e for c, e in zip(sol.matrix.entries(), exponents))
                assert sol.matrix.evaluate(t0).entries() == expected


def test_hexagon_residual_property_catches_an_evaluate_that_scales_f20_up(monkeypatch):
    wrong = mutant(FMatrix.evaluate, "self.f20 / t0", "self.f20 * t0")
    monkeypatch.setattr(FMatrix, "evaluate", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["braidfmat"]["hexagon_solutions_zero_residual"]()


def _residual_on_fractions(params, matrix):
    """`hexagon_residual` as it was: the entries as Fractions, about twenty
    Fraction operations."""
    eps = braidfmat._epsilon(params)
    a, b, c, d = matrix.entries()
    sq = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
    lhs = (a * eps, -b * eps, -c * eps, d * eps)
    return FMatrix(*(l - s for l, s in zip(lhs, sq)))


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(st.sampled_from(PAIRS), rationals, rationals, rationals, rationals)
def test_hexagon_residual_equals_the_fraction_formula(params, a, b, c, d):
    matrix = FMatrix(a, b, c, d)
    fast, slow = hexagon_residual(params, matrix), _residual_on_fractions(params, matrix)
    assert fast == slow
    assert all(type(x) is Fraction for x in fast.entries())


def test_hexagon_rejects_non_solutions():
    p23 = Params(2, 3)
    bogus = FMatrix(Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    residual = hexagon_residual(p23, bogus)
    assert any(residual.entries())


def test_intrinsic_dimension_property_catches_a_dimension_that_is_f00(monkeypatch):
    wrong = mutant(intrinsic_dimension, "return 1 / value", "return value")
    monkeypatch.setattr(braidfmat, "intrinsic_dimension", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["braidfmat"]["intrinsic_dimensions"]()


def test_parity_sign_property_catches_a_balancing_off_by_a_half(monkeypatch):
    # A weight shifted by 1/2 negates every balancing phase e^{2*pi*i*h}.
    wrong = mutant(balancing_check, "hk - 2 * hn, 2", "hk - 2 * hn + Fraction(1, 2), 2")
    monkeypatch.setattr(braidfmat, "balancing_check", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["braidfmat"]["balancing_n1_is_parity_sign"]()


def test_sign_flip_property_catches_equal_tabulated_scalars(monkeypatch):
    # R_1^2 = R_1^0 instead of -R_1^0 makes every hexagon sign eps.
    wrong = mutant(r_scalar_table, "base if k == 0 else base + 1", "base if k == 0 else base")
    monkeypatch.setattr(braidfmat, "r_scalar_table", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["braidfmat"]["hexagon_sign_flip_invariance"]()


def test_intrinsic_dimension_rejects_zero_f00():
    broken = FSolution(
        kind="Diagonal",
        epsilon=1,
        matrix=FMatrix(Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    )
    with pytest.raises(ValueError):
        intrinsic_dimension(broken)


def test_determinants_nonzero():
    for params in PAIRS:
        for sol in hexagon_solutions(params):
            assert sol.matrix.determinant()
