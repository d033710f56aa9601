"""Phases and rationals, and the `exactnum` suite of `verify` that checks them."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mutant
from triplet import base, braidfmat, fusion, kacmod, sl2rep, verify, virasoro
from triplet.base import CACHE_SIZE
from triplet.braidfmat import Phase
from triplet.verify import PROPERTIES, _phase_sign, run_suites

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
    monkeypatch.setattr(braidfmat, "_mod2", mutant(braidfmat._mod2, "num % (2 * den)", "num % den"))
    with pytest.raises(AssertionError):
        PROPERTIES["exactnum"]["phase_abelian_group"]()


def test_phase_sign_extraction():
    assert _phase_sign(Phase(Fraction(0))) == 1
    assert _phase_sign(Phase(Fraction(1))) == -1
    with pytest.raises(ValueError):
        _phase_sign(Phase(Fraction(1, 2)))


@given(phases)
def test_phase_order_divides_twice_denominator(a):
    assert a ** (2 * a.exponent.denominator) == Phase(0)


def test_evaluation_property_catches_an_evaluate_that_scales_f20_up(monkeypatch):
    # F20 times t0 instead of over it: D_t F D_t^-1 is no longer a conjugation.
    wrong = mutant(braidfmat.FMatrix.evaluate, "self.f20 / t0", "self.f20 * t0")
    monkeypatch.setattr(braidfmat.FMatrix, "evaluate", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["exactnum"]["param_scalar_evaluation_hom"]()


@pytest.mark.parametrize(
    "old, new",
    [("return str(num)", 'return f"{num}/{den}"'), ("num //= g", "num = abs(num // g)")],
    ids=["always-writes-den", "drops-the-sign"],
)
def test_rat_addition_property_catches_a_wrong_ratio_str(old, new, monkeypatch):
    monkeypatch.setattr(verify, "ratio_str", mutant(base.ratio_str, old, new))
    with pytest.raises(AssertionError, match="ratio_str"):
        PROPERTIES["exactnum"]["rat_addition_exact"]()


# The distinct keys `verify --suite all` asks each cache for, as recorded
# above `base.CACHE_SIZE` and in the README's cache list.
VERIFY_ALL_CACHE_KEYS = {
    "build_irrep": 11,
    "invariant_form": 11,
    "_cg_system": 49,
    "_sl2_obj": 83,
    "_entry_class": 21,
    "_sl2_entry": 176,
    "_diagram": 75,
}


def test_verify_all_cache_sizes_match_the_record():
    caches = [
        sl2rep.build_irrep,
        sl2rep.invariant_form,
        sl2rep._cg_system,
        virasoro._sl2_obj,
        fusion._entry_class,
        fusion._sl2_entry,
        kacmod._diagram,
    ]
    for cache in caches:
        cache.cache_clear()
    results = run_suites(sorted(PROPERTIES))
    assert all(ok for _, (_, ok, _) in results)
    sizes = {cache.__name__: cache.cache_info().currsize for cache in caches}
    assert sizes == VERIFY_ALL_CACHE_KEYS
    assert max(sizes.values()) < CACHE_SIZE
