"""Exact scalar arithmetic: phases, rationals, and Laurent polynomials in t."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triplet.exactnum import ParamScalar, Phase, phase_from_weight, rat_str
from triplet.verify import PROPERTIES

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
phases = st.fractions(min_value=-100, max_value=100, max_denominator=48).map(Phase)


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


def test_phase_sign_extraction():
    assert Phase(Fraction(0)).as_rat_sign() == 1
    assert Phase(Fraction(1)).as_rat_sign() == -1
    with pytest.raises(ValueError):
        Phase(Fraction(1, 2)).as_rat_sign()


def test_phase_group_laws():
    PROPERTIES["exactnum"]["phase_abelian_group"]()


@given(phases)
def test_phase_order_divides_twice_denominator(a):
    assert (a ** (2 * a.exponent.denominator)).is_one()


@given(rationals)
def test_rat_str_round_trip(a):
    assert Fraction(rat_str(a)) == a


def test_rat_str_format():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-22, 5)) == "-22/5"


def test_param_scalar_normalization():
    t = ParamScalar.t()
    two_t_over_two = (t + t) / ParamScalar.const(Fraction(2))
    assert two_t_over_two == t
    # denominator is kept monic: (1)/(2t) stores as (1/2)/t
    half_inv = ParamScalar.const(Fraction(1)) / (ParamScalar.const(Fraction(2)) * t)
    assert half_inv.den == t.num
    assert half_inv.num == (Fraction(1, 2),)
    # the common power of t cancels: t^2/t^3 stores as 1/t
    inv = (t * t) / (t * t * t)
    assert inv == ParamScalar.const(Fraction(1)) / t
    assert (inv.num, inv.den) == ((Fraction(1),), (Fraction(0), Fraction(1)))
    assert ParamScalar((0, 0, 6), (0, 0, 0, 2)) == ParamScalar((3,), (0, 1))


def test_param_scalar_divides_only_by_monomials():
    t = ParamScalar.t()
    with pytest.raises(ValueError, match=r"division by t\^2 \+ 1, which is not a monomial"):
        t / (t * t + 1)
    with pytest.raises(ValueError, match=r"denominator t \+ 1 is not a monomial"):
        ParamScalar((1,), (1, 1))


def test_param_scalar_constant_extraction_and_errors():
    assert ParamScalar.const(Fraction(-3, 4)).as_rat() == Fraction(-3, 4)
    with pytest.raises(ValueError):
        ParamScalar.t().as_rat()
    with pytest.raises(ZeroDivisionError):
        ParamScalar.t() / ParamScalar.const(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        (ParamScalar.const(Fraction(1)) / ParamScalar.t()).eval(Fraction(0))
