"""Exact scalar arithmetic: rationals and roots of unity.

Every scalar this package produces is one of two things: an exact
rational (``Rat``) or a single root of unity stored as a rational multiple
of pi (``Phase``).  Nothing here is ever floating point.
"""

from __future__ import annotations

from fractions import Fraction

# Arbitrary-precision rational, always stored reduced with positive
# denominator.  fractions.Fraction already guarantees both invariants.
Rat = Fraction

# The package's one zero Fraction: a phase with a zero exponent stores it,
# and no module fills a list with a private Fraction(0).  A zero that is
# another object still compares equal by value.
ZERO = Fraction(0)

# One bound for every lru_cache of the package, above the distinct keys
# that `verify --suite all` asks for: 11 each in `sl2rep.build_irrep` and
# `sl2rep.invariant_form`, 49 in `sl2rep._cg_system`, 83 in
# `virasoro._sl2_obj`, 21 in `fusion._entry_class`, 176 in
# `fusion._sl2_entry` and 75 in `kacmod._diagram`.
CACHE_SIZE = 256


def rat_str(x: Rat) -> str:
    """Serialize a rational as "num/den", omitting "/den" when den == 1."""
    # One call per output cell: a Fraction is read as it is, anything else
    # (int, bool, another Rational) is converted first.
    if x.__class__ is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Value:
    """Base of the immutable value classes of every layer.

    A subclass names its fields in ``__slots__`` and sets them once, in its
    own ``__init__``, after its checks.  Instances compare equal only to
    instances of the same class with equal fields, hash as the tuple of
    their fields, print as ``Name(field=value, ...)`` and refuse assignment
    and deletion.  Pickle and copy rebuild through ``__init__``, so a loaded
    value passes the same checks.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._fields())


def slot_setters(cls: type) -> tuple:
    """The setters of cls's own slots, in ``__slots__`` order.

    A class built in an inner loop binds these once, at import, and calls
    them in ``__init__`` instead of one ``object.__setattr__`` per field;
    the slot's member descriptor stores the value without the name lookup.
    """
    return tuple([cls.__dict__[name].__set__ for name in cls.__slots__])


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


def phase_from_weight(h: Rat, multiple: int) -> Phase:
    """The phase e^{i*pi*multiple*h} for a conformal weight h."""
    return Phase(multiple * Fraction(h))
