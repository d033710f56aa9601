"""Braiding scalars, balancing phases, hexagon solutions, intrinsic dimensions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutant, run_cli
from triplet import braidfmat, verify
from triplet.braidfmat import (
    GAUGE_EXPONENTS,
    FMatrix,
    FSolution,
    Phase,
    balancing_check,
    hexagon_residual,
    hexagon_solutions,
    intrinsic_dimension,
    r_scalar_formula,
    r_scalar_table,
)
from triplet.fusion import fuse_C
from triplet.verify import PROPERTIES, _phase_sign
from triplet.virasoro import Params, VirLabel, conformal_weight, sl2_weight_numerator

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


def test_r_scalars_are_the_twisted_flip_through_n_12():
    # The braidfmat suite's property past its n <= 8 and flips n <= 6.
    verify.squared_r_scalars_equal_balancing(n_max=12, flip_max=12)


coprime_pairs = st.tuples(st.integers(2, 10**30), st.integers(2, 10**30)).filter(
    lambda pq: gcd(*pq) == 1
)


@settings(max_examples=100, deadline=None)
@given(coprime_pairs, st.integers(0, 60))
def test_closed_forms_equal_the_weight_formula(pq, n):
    # h[j] is the weight of L_{(j+2)p-1,1}, the dictionary's L_j for j >= 1.
    params = Params(*pq)
    h = [conformal_weight(params, VirLabel((j + 2) * params.p - 1, 1)) for j in range(2 * n + 1)]
    assert [Fraction(sl2_weight_numerator(params, j), 4) for j in range(1, 2 * n + 1)] == h[1:]
    assert sl2_weight_numerator(params, 0) == 0
    balancing = balancing_check(params, n)
    for k in fuse_C(n, n):
        assert r_scalar_formula(params, n, k) == Phase(h[k] - 2 * h[n])
        assert balancing[k] == Phase(2 * ((h[k] if k else 0) - 2 * h[n]))


def test_r_scalar_property_catches_a_formula_without_the_2n_term(monkeypatch):
    # e^{i*pi*(pq*n^2 - k)/2} squares to the balancing on every channel and
    # is the tabulated convention at n = 1; only the weight formula and the
    # flip sign tell it apart.
    wrong = mutant(r_scalar_formula, " + 2 * n - k, 2)", " - k, 2)")
    monkeypatch.setattr(braidfmat, "r_scalar_formula", wrong)
    for params in PAIRS:
        for k in (0, 2):
            assert wrong(params, 1, k) == r_scalar_table(params, 1, k)
    with pytest.raises(AssertionError, match="R ="):
        PROPERTIES["braidfmat"]["squared_r_scalars_equal_balancing"]()
    code, out, _ = run_cli(["verify", "--suite", "braidfmat"])
    assert code == 1
    assert "FAIL braidfmat.squared_r_scalars_equal_balancing: AssertionError:" in out


def test_r_scalar_property_catches_a_flipped_eigenvalue(monkeypatch):
    flip = verify._flip_sign
    monkeypatch.setattr(verify, "_flip_sign", lambda channel: flip(channel) * Phase(1))
    with pytest.raises(AssertionError, match="R ="):
        PROPERTIES["braidfmat"]["squared_r_scalars_equal_balancing"]()


def test_balancing_examples():
    for params in PAIRS:
        eps = Fraction((-1) ** (params.p * params.q))
        phases = balancing_check(params, 1)
        assert _phase_sign(phases[0]) == eps
        assert _phase_sign(phases[2]) == eps
        assert balancing_check(params, 0)[0] == Phase(Fraction(0))


def test_balancing_property_catches_an_asymmetric_psl2_part(monkeypatch):
    # Twisting R_n^k by e^{i*pi/4} and the balancing by e^{i*pi/2} for even
    # n >= 4 keeps R^2 equal to the balancing phase on every channel, and
    # leaves n = 1 alone for the tabulated R-scalars; the even-n phases are
    # no longer 1, and neither closed form is the weight formula.
    shift = "Fraction(int(n >= 4 and n % 2 == 0), {})"
    old = "Fraction(params.p * params.q * n * n + 2 * n - k, 2)"
    formula = mutant(r_scalar_formula, old, f"{old} + {shift.format(4)}")
    old = "Phase(params.p * params.q * n)"
    balancing = mutant(balancing_check, old, f"Phase(params.p * params.q * n + {shift.format(2)})")
    monkeypatch.setattr(braidfmat, "r_scalar_formula", formula)
    monkeypatch.setattr(braidfmat, "balancing_check", balancing)
    params = PAIRS[0]
    for n in range(9):
        for k in fuse_C(n, n):
            square = braidfmat.r_scalar_formula(params, n, k) ** 2
            assert square == braidfmat.balancing_check(params, n)[k]
    assert braidfmat.balancing_check(params, 4)[4] != Phase(0)
    with pytest.raises(AssertionError):
        PROPERTIES["braidfmat"]["squared_r_scalars_equal_balancing"]()


def test_phase_denominators_divide_2():
    for params in PAIRS:
        for n in range(9):
            for k in fuse_C(n, n):
                assert r_scalar_formula(params, n, k).exponent.denominator in (1, 2)
            for phase in balancing_check(params, n).values():
                assert phase.exponent.denominator == 1


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
    # A weight shifted by 1/2 negates every balancing phase e^{2*pi*i*h};
    # the comparison with the weight formula sees it first.
    old = "Phase(params.p * params.q * n)"
    wrong = mutant(balancing_check, old, "Phase(params.p * params.q * n + 1)")
    monkeypatch.setattr(braidfmat, "balancing_check", wrong)
    oracle_mismatch = r"^Params\(p=2, q=3\) k = 0 : Phase\(exponent=Fraction\(1, 1\)\) != Phase"
    with pytest.raises(AssertionError, match=oracle_mismatch):
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
