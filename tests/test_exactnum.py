"""Exact scalar arithmetic: phases, rationals, and Laurent polynomials in t."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mutant
from triplet import exactnum, fusion, sl2rep, virasoro
from triplet.exactnum import CACHE_SIZE, ParamScalar, Phase, phase_from_weight, rat_str
from triplet.verify import PROPERTIES, SUITES, _phase_sign, run_suites

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
phase_exponents = st.fractions(min_value=-100, max_value=100, max_denominator=48)
phases = phase_exponents.map(Phase)


def test_phase_mul_examples():
    assert Phase(Fraction(1, 2)) * Phase(Fraction(1, 2)) == Phase(Fraction(1))
    x = Phase(Fraction(7, 5))
    assert x * Phase(Fraction(0)) == x
    assert Phase(Fraction(3, 2)) * Phase(Fraction(3, 4)) == Phase(Fraction(1, 4))


def test_phase_pow_examples():
    assert Phase(Fraction(1, 2)) ** 2 == Phase(Fraction(1))
    assert Phase(Fraction(11, 7)) ** 0 == Phase(Fraction(0))
    assert Phase(Fraction(2, 3)) ** 4 == Phase(Fraction(2, 3))


def test_phase_from_weight_examples():
    assert phase_from_weight(Fraction(15), 2) == Phase(Fraction(0))
    assert phase_from_weight(Fraction(1, 2), 2) == Phase(Fraction(1))
    # weight 7 = h at the (2,3) third family point; any even multiple is trivial
    assert phase_from_weight(Fraction(7), -4) == Phase(Fraction(0))


def test_phase_exponent_reduced_into_range():
    assert Phase(Fraction(9, 4)).exponent == Fraction(1, 4)
    assert Phase(Fraction(-1, 4)).exponent == Fraction(7, 4)
    assert Phase(Fraction(2)).exponent == 0


def _same_fraction(x, y) -> bool:
    same_terms = (x.numerator, x.denominator) == (y.numerator, y.denominator)
    return type(x) is type(y) is Fraction and same_terms


@given(
    phase_exponents
    | st.integers(-100, 100)
    | st.integers(-50, 50).map(lambda n: 2 * n)
    | st.booleans()
)
def test_phase_exponent_is_the_fraction_mod_2(x):
    # `Phase` reduces the integer numerator mod 2*denominator; the result
    # must be what `Fraction(x) % 2` gives, zero included.
    assert _same_fraction(Phase(x).exponent, Fraction(x) % 2)


@given(phases, phases, st.integers(-50, 50))
def test_phase_product_and_power_reduce_like_the_fraction_sum(a, b, k):
    assert _same_fraction((a * b).exponent, (a.exponent + b.exponent) % 2)
    assert _same_fraction((a**k).exponent, (k * a.exponent) % 2)


def test_phase_property_catches_a_reduction_mod_1(monkeypatch):
    # Every group law holds in Q/Z too, so only the order-2 check sees it.
    monkeypatch.setattr(exactnum, "_mod2", mutant(exactnum._mod2, "num % (2 * den)", "num % den"))
    with pytest.raises(AssertionError):
        PROPERTIES["exactnum"]["phase_abelian_group"]()


def test_phase_sign_extraction():
    assert _phase_sign(Phase(Fraction(0))) == 1
    assert _phase_sign(Phase(Fraction(1))) == -1
    with pytest.raises(ValueError):
        _phase_sign(Phase(Fraction(1, 2)))


def test_phase_group_laws():
    PROPERTIES["exactnum"]["phase_abelian_group"]()


@given(phases)
def test_phase_order_divides_twice_denominator(a):
    assert a ** (2 * a.exponent.denominator) == Phase(0)


@given(rationals)
def test_rat_str_round_trip(a):
    assert Fraction(rat_str(a)) == a


def test_rat_str_format():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-22, 5)) == "-22/5"


def _rat_str_converting(x) -> str:
    """`rat_str` as it was, converting every input with Fraction(x) first."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@pytest.mark.parametrize(
    "x",
    [
        *(0, 1, -1, 12, -(10**40), True, False),
        *(Fraction(0), Fraction(-3), Fraction(-22, 5), Fraction(1, 10**30), Fraction(-(10**30), 7)),
    ],
)
def test_rat_str_equals_the_converting_path(x):
    assert rat_str(x) == _rat_str_converting(x)


@given(rationals)
def test_rat_str_equals_the_converting_path_on_rationals(a):
    for x in (a, -a, a.numerator, -a.numerator):
        assert rat_str(x) == _rat_str_converting(x)


def test_param_scalar_normalization():
    t = ParamScalar.t()
    two_t_over_two = (t + t) / ParamScalar.const(Fraction(2))
    assert two_t_over_two == t
    assert two_t_over_two.terms == ((1, Fraction(1)),)
    # 1/(2t) stores as the one term (1/2)*t^-1
    half_inv = ParamScalar.const(Fraction(1)) / (ParamScalar.const(Fraction(2)) * t)
    assert half_inv.terms == ((-1, Fraction(1, 2)),)
    # the common power of t cancels: t^2/t^3 stores as 1/t
    inv = (t * t) / (t * t * t)
    assert inv == ParamScalar.const(Fraction(1)) / t
    assert inv.terms == ((-1, Fraction(1)),)
    # the constructor merges equal exponents, drops zeros and sorts
    merged = ParamScalar([(2, 1), (-1, 3), (0, 0), (2, -1), (-1, Fraction(1, 2)), (1, 6)])
    assert merged.terms == ((-1, Fraction(7, 2)), (1, Fraction(6)))
    assert all(type(c) is Fraction for _, c in merged.terms)
    assert merged == ParamScalar.const(Fraction(7, 2)) / t + t * 6


def test_param_scalar_fast_paths_equal_the_constructor():
    # Negation, and products and quotients by a monomial, skip the
    # normalizing constructor; each must give what it gives on the raw pairs.
    rng = random.Random(20255)
    for _ in range(400):
        raw = [
            (rng.randint(-4, 4), Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
            for _ in range(rng.randint(0, 7))
        ]
        f = ParamScalar(raw)
        j = rng.randint(-4, 4)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
        mono = ParamScalar([(j, c)])
        cases = [
            (-f, [(e, -x) for e, x in raw]),
            (f * mono, [(e + j, x * c) for e, x in raw]),
            (mono * f, [(j + e, c * x) for e, x in raw]),
            (f / mono, [(e - j, x / c) for e, x in raw]),
        ]
        for fast, pairs in cases:
            assert fast.terms == ParamScalar(pairs).terms
            assert all(type(x) is Fraction for _, x in fast.terms)


def test_evaluation_property_catches_a_monomial_product_that_shifts_negative_exponents(
    monkeypatch,
):
    # Negative exponents land one lower; the terms stay sorted and distinct.
    wrong = mutant(ParamScalar.__mul__, "(e + j, a * b)", "(e + j - (e < 0), a * b)")
    monkeypatch.setattr(ParamScalar, "__mul__", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["exactnum"]["param_scalar_evaluation_hom"]()


def test_evaluation_property_catches_a_negation_that_drops_a_sign(monkeypatch):
    wrong = mutant(
        ParamScalar.__neg__,
        "(e, -c) for e, c in self.terms",
        "(e, -c if k else c) for k, (e, c) in enumerate(self.terms)",
    )
    monkeypatch.setattr(ParamScalar, "__neg__", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["exactnum"]["param_scalar_evaluation_hom"]()


def test_param_scalar_divides_only_by_monomials():
    t = ParamScalar.t()
    with pytest.raises(ValueError, match=r"division by t\^2 \+ 1, which is not a monomial"):
        t / (t * t + 1)
    with pytest.raises(ValueError, match=r"division by \(t \+ 1\)/\(t\), which is not a monomial"):
        t / (ParamScalar.const(Fraction(1)) / t + 1)
    assert (t * t + t) / (t * 3) == (t + 1) / 3


def test_param_scalar_constant_extraction_and_errors():
    assert ParamScalar.const(Fraction(-3, 4)).as_rat() == Fraction(-3, 4)
    with pytest.raises(ValueError):
        ParamScalar.t().as_rat()
    with pytest.raises(ZeroDivisionError):
        ParamScalar.t() / ParamScalar.const(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        (ParamScalar.const(Fraction(1)) / ParamScalar.t()).eval(Fraction(0))


def _eval_oracle(x: ParamScalar, t0) -> Fraction:
    """Term by term: sum c*t0^(e - low), then divide by t0^(-low), as
    `ParamScalar.eval` did before it summed integers over one denominator."""
    low = min(0, x.terms[0][0]) if x.terms else 0
    if low and t0 == 0:
        raise ZeroDivisionError(f"denominator vanishes at t={t0}")
    acc = Fraction(0)
    for e, c in x.terms:
        acc += c * t0 ** (e - low)
    return acc / t0**-low


def test_param_scalar_eval_equals_the_term_by_term_sum():
    rng = random.Random(20254)
    t0s = [0, 1, -1, 7, -12, Fraction(0), Fraction(3, 7), Fraction(-5, 2), Fraction(-1, 10**6)]
    raised = 0
    for _ in range(300):
        terms = [
            (rng.randint(-4, 4), Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4)))
            for _ in range(rng.randint(0, 6))
        ]
        x = ParamScalar(terms)
        for t0 in t0s + [Fraction(rng.randint(-50, 50), rng.randint(1, 50)), rng.randint(-9, 9)]:
            try:
                expected = _eval_oracle(x, t0)
            except ZeroDivisionError as exc:
                raised += 1
                with pytest.raises(ZeroDivisionError, match=f"^{exc}$"):
                    x.eval(t0)
                continue
            value = x.eval(t0)
            assert type(value) is Fraction and value == expected
    assert raised >= 100


_T = ParamScalar.t()
_C = ParamScalar.const


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: _C(Fraction(0)), "0"),
        (lambda: _C(Fraction(-22, 5)), "-22/5"),
        (lambda: _T, "t"),
        (lambda: -_T, "-t"),
        (lambda: _C(Fraction(-3, 4)) * _T, "-3/4*t"),
        (lambda: -_T * _T, "-t^2"),
        (lambda: _C(Fraction(5, 2)) * _T * _T * _T, "5/2*t^3"),
        (lambda: _T * _T + 1, "t^2 + 1"),
        (lambda: -_T * _T + _T * 2 - Fraction(1, 3), "-t^2 + 2*t - 1/3"),
        (lambda: _C(Fraction(-3, 4)) / _T, "(-3/4)/(t)"),
        (lambda: _C(Fraction(1)) / (_T * _T), "(1)/(t^2)"),
        (lambda: (_T - 1) / (_T * _T * _T), "(t - 1)/(t^3)"),
        (lambda: _C(Fraction(-1)) / _T, "(-1)/(t)"),
    ],
)
def test_param_scalar_str_forms(build, text):
    assert str(build()) == text


# The distinct keys `verify --suite all` asks each cache for, as recorded
# above `exactnum.CACHE_SIZE` and in the README's cache list.
VERIFY_ALL_CACHE_KEYS = {
    "build_irrep": 11,
    "invariant_form": 11,
    "_cg_system": 49,
    "_sl2_obj": 83,
    "_entry_class": 21,
}


def test_verify_all_cache_sizes_match_the_record():
    caches = [
        sl2rep.build_irrep,
        sl2rep.invariant_form,
        sl2rep._cg_system,
        virasoro._sl2_obj,
        fusion._entry_class,
    ]
    for cache in caches:
        cache.cache_clear()
    results = run_suites(sorted(SUITES))
    assert all(ok for _, (_, ok, _) in results)
    sizes = {cache.__name__: cache.cache_info().currsize for cache in caches}
    assert sizes == VERIFY_ALL_CACHE_KEYS
    assert max(sizes.values()) < CACHE_SIZE
