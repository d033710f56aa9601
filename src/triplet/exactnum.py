"""Exact scalar arithmetic: rationals, roots of unity, Laurent polynomials in t.

Every scalar this package produces is one of three things: an exact
rational (``Rat``), a single root of unity stored as a rational multiple
of pi (``Phase``), or a Laurent polynomial in one formal parameter t
(``ParamScalar``), which is all the hexagon-constrained F-matrix needs:
its entries are constants, t and -3/(4t).  A ``ParamScalar`` is its tuple
of (exponent, coefficient) terms, sorted by exponent, with no zero
coefficients.  Nothing here is ever floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# Arbitrary-precision rational, always stored reduced with positive
# denominator.  fractions.Fraction already guarantees both invariants.
Rat = Fraction

# The one zero of every dense matrix fill.  Loops over such matrices skip a
# zero entry with ``x is ZERO`` before any Fraction method runs; a zero that
# is another object still compares equal by value, so this is only a fast
# path.
ZERO = Fraction(0)

# One bound for every lru_cache of the package, above the distinct keys
# that `verify --suite all` asks for: 11 each in `sl2rep.build_irrep` and
# `sl2rep.invariant_form`, 49 in `sl2rep._cg_system`, 83 in
# `virasoro._sl2_obj`, and 21 in `fusion._entry_class`.
CACHE_SIZE = 128


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


class ParamScalar(Value):
    """An element sum_e c_e*t^e of the Laurent polynomial ring Q[t, 1/t].

    ``terms`` holds the pairs (e, c_e) with increasing exponents and nonzero
    Fraction coefficients; zero has no terms.  The constructor takes any
    iterable of (exponent, coefficient) pairs and merges equal exponents,
    drops zeros and sorts, so a pickled or copied value is normalized again.
    The hexagon F-matrix divides only by t, so division is defined only by
    a one-term divisor c*t^j; dividing by anything else raises
    ``ValueError``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms) -> None:
        merged: dict[int, Rat] = {}
        for e, c in terms:
            if c.__class__ is not Fraction:
                c = Fraction(c)
            merged[e] = merged[e] + c if e in merged else c
        _set_terms(self, tuple([(e, c) for e, c in sorted(merged.items()) if c]))

    @classmethod
    def _unchecked(cls, terms: tuple) -> "ParamScalar":
        """A ParamScalar of terms that are already sorted by exponent, with
        distinct exponents and nonzero Fraction coefficients, built without
        the constructor's merge and sort.  Pickle and copy still rebuild
        through ``__init__``."""
        out = object.__new__(cls)
        _set_terms(out, terms)
        return out

    @staticmethod
    def const(c: Rat) -> "ParamScalar":
        return ParamScalar(((0, c),))

    @staticmethod
    def t() -> "ParamScalar":
        return ParamScalar(((1, 1),))

    @staticmethod
    def coerce(x) -> "ParamScalar":
        if isinstance(x, ParamScalar):
            return x
        return ParamScalar.const(x)

    def __add__(self, other) -> "ParamScalar":
        return ParamScalar(self.terms + ParamScalar.coerce(other).terms)

    def __sub__(self, other) -> "ParamScalar":
        return self + (-ParamScalar.coerce(other))

    # Negation, and multiplication and division by a monomial c*t^j, keep
    # the terms sorted, distinct and nonzero, so they skip the normalizing
    # constructor.

    def __neg__(self) -> "ParamScalar":
        return ParamScalar._unchecked(tuple([(e, -c) for e, c in self.terms]))

    def __mul__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        if len(other.terms) == 1:
            ((j, b),) = other.terms
            return ParamScalar._unchecked(tuple([(e + j, a * b) for e, a in self.terms]))
        if len(self.terms) == 1:
            ((j, b),) = self.terms
            return ParamScalar._unchecked(tuple([(j + e, b * a) for e, a in other.terms]))
        return ParamScalar([(i + j, a * b) for i, a in self.terms for j, b in other.terms])

    def __truediv__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        if not other.terms:
            raise ZeroDivisionError("division by the zero rational function")
        if len(other.terms) > 1:
            raise ValueError(f"division by {other}, which is not a monomial c*t^j")
        ((j, c),) = other.terms
        return ParamScalar._unchecked(tuple([(e - j, x / c) for e, x in self.terms]))

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, t0: Rat) -> Rat:
        """The value at t = u/w, summed as one integer over one denominator.

        With c_e = n_e/d_e, D = lcm(d_e), lo = min(0, lowest e) and
        hi = max(0, highest e), the value is
        sum_e n_e (D/d_e) u^(e-lo) w^(hi-e) / (D u^-lo w^hi): every power is
        >= 0, so only integers are multiplied and one Fraction is built.
        """
        if not self.terms:
            return ZERO
        u, w = t0.numerator, t0.denominator
        lo = min(0, self.terms[0][0])
        hi = max(0, self.terms[-1][0])
        if lo and not u:
            raise ZeroDivisionError(f"denominator vanishes at t={t0}")
        den = lcm(*[c.denominator for _, c in self.terms])
        num = 0
        for e, c in self.terms:
            num += c.numerator * (den // c.denominator) * u ** (e - lo) * w ** (hi - e)
        return Fraction(num, den * u**-lo * w**hi)

    def as_rat(self) -> Rat:
        """Return the value when constant; error otherwise."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) > 1 or self.terms[0][0]:
            raise ValueError(f"{self} is not a constant")
        return self.terms[0][1]

    def __str__(self) -> str:
        """The polynomial when no exponent is negative, else (num)/(t^k) with k = -lowest."""
        low = self.terms[0][0] if self.terms else 0
        if low >= 0:
            return _polynomial_str(self.terms)
        num = _polynomial_str([(e - low, c) for e, c in self.terms])
        return f"({num})/(t)" if low == -1 else f"({num})/(t^{-low})"


(_set_terms,) = slot_setters(ParamScalar)


def _polynomial_str(terms) -> str:
    """Print terms with exponents >= 0, highest first: "-t^2 + 2*t - 1/3"."""
    out = ""
    for e, c in reversed(terms):
        if e == 0:
            term = rat_str(c)
        else:
            base = "t" if e == 1 else f"t^{e}"
            term = base if c == 1 else f"-{base}" if c == -1 else f"{rat_str(c)}*{base}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out or "0"
