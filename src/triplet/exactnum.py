"""Exact scalar arithmetic: rationals and roots of unity.

Every scalar this package produces is one of two things: an exact
rational (``Rat``) or a single root of unity stored as a rational multiple
of pi (``Phase``).  Nothing here is ever floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .base import Value, ratio_str, slot_setters

# Arbitrary-precision rational, always stored reduced with positive
# denominator.  fractions.Fraction already guarantees both invariants.
Rat = Fraction

# The package's one zero Fraction: a phase with a zero exponent stores it,
# and no module fills a list with a private Fraction(0).  A zero that is
# another object still compares equal by value.
ZERO = Fraction(0)


def rat_str(x: Rat) -> str:
    """Serialize a rational as "num/den", omitting "/den" when den == 1."""
    # One call per output cell: a Fraction is read as it is, anything else
    # (int, bool, another Rational) is converted first.
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return ratio_str(x.numerator, x.denominator)


class Phase(Value):
    """The root of unity e^{i*pi*exponent} with exponent rational mod 2.

    Exponents of e^{i*pi*(-)} rather than e^{2*pi*i*(-)} because the
    braiding scalars are half-integer multiples of conformal weights.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Rat) -> None:
        if exponent.__class__ is not Fraction and exponent.__class__ is not int:
            exponent = Fraction(exponent)
        _set_exponent(self, _mod2(exponent.numerator, exponent.denominator))

    # Hashed and compared in the inner loops of `verify`, so the field tuple
    # is spelled out rather than built by `Value`.
    def __eq__(self, other):
        if other.__class__ is Phase:
            return self.exponent == other.exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponent,))

    def __mul__(self, other: "Phase") -> "Phase":
        a, b = self.exponent, other.exponent
        num = a.numerator * b.denominator + b.numerator * a.denominator
        return _phase(num, a.denominator * b.denominator)

    def __pow__(self, k: int) -> "Phase":
        return _phase(k * self.exponent.numerator, self.exponent.denominator)


(_set_exponent,) = slot_setters(Phase)


def _mod2(num: int, den: int) -> Rat:
    """num/den mod 2, in [0, 2), as one Fraction: (num mod 2*den)/den.

    The residue differs from num by a multiple of 2*den, so over den it is
    num/den minus an even integer.  A zero residue is the shared ``ZERO``.
    """
    residue = num % (2 * den)
    return Fraction(residue, den) if residue else ZERO


def _phase(num: int, den: int) -> Phase:
    """Phase(num/den) from integers, for the products of two phases."""
    out = object.__new__(Phase)
    _set_exponent(out, _mod2(num, den))
    return out

