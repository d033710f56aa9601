"""Exact scalar arithmetic: rationals, roots of unity, Laurent polynomials in t.

Every scalar this package produces is one of three things: an exact
rational (``Rat``), a single root of unity stored as a rational multiple
of pi (``Phase``), or a Laurent polynomial in one formal parameter t
(``ParamScalar``), which is all the hexagon-constrained F-matrix needs:
its entries are constants, t and -3/(4t).  Nothing here is ever floating
point.
"""

from __future__ import annotations

from fractions import Fraction

# Arbitrary-precision rational, always stored reduced with positive
# denominator.  fractions.Fraction already guarantees both invariants.
Rat = Fraction

# One bound for every lru_cache of the package, far above the distinct keys
# that `verify --suite all` asks for: 11 each in `sl2rep.build_irrep` and
# `sl2rep.invariant_form`, 49 each in `sl2rep._cg_system` and
# `virasoro._sl2_obj`, and 21 in `fusion._entry_class`.
CACHE_SIZE = 128


def rat_str(x: Rat) -> str:
    """Serialize a rational as "num/den", omitting "/den" when den == 1."""
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


class Phase(Value):
    """The root of unity e^{i*pi*exponent} with exponent rational mod 2.

    Exponents of e^{i*pi*(-)} rather than e^{2*pi*i*(-)} because the
    braiding scalars are half-integer multiples of conformal weights.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Rat) -> None:
        object.__setattr__(self, "exponent", Fraction(exponent) % 2)

    # Hashed and compared in the inner loops of `verify`, so the field tuple
    # is spelled out rather than built by `Value`.
    def __eq__(self, other):
        if other.__class__ is Phase:
            return self.exponent == other.exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponent,))

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "Phase":
        return Phase(k * self.exponent)

    def is_one(self) -> bool:
        return self.exponent == 0

    def as_rat_sign(self) -> Rat:
        """Return +1 or -1 when the phase is real; error otherwise."""
        if self.exponent == 0:
            return Fraction(1)
        if self.exponent == 1:
            return Fraction(-1)
        raise ValueError(f"phase e^(i*pi*{self.exponent}) is not +-1")

    def to_json(self) -> dict:
        return {"exp": rat_str(self.exponent)}

    def __str__(self) -> str:
        return f"e^(i*pi*{rat_str(self.exponent)})"


def phase_from_weight(h: Rat, multiple: int) -> Phase:
    """The phase e^{i*pi*multiple*h} for a conformal weight h."""
    return Phase(multiple * Fraction(h))


# ---------------------------------------------------------------------------
# Univariate polynomials over Rat, dense coefficient lists (index = degree).
# Only what ParamScalar needs: ring ops, shifts, evaluation, printing.
# ---------------------------------------------------------------------------

Poly = tuple  # tuple[Rat, ...], normalized so the last entry is nonzero

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (Fraction(1),)
POLY_T: Poly = (Fraction(0), Fraction(1))


def poly_from_coeffs(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_const(c: Rat) -> Poly:
    return poly_from_coeffs([c])


def poly_shift(a: Poly, k: int) -> Poly:
    """a * t^k for k >= 0."""
    return (Fraction(0),) * k + a if a and k else a


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_from_coeffs(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return POLY_ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_from_coeffs(out)


def poly_eval(a: Poly, t0: Rat) -> Rat:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t0 + c
    return acc


def poly_str(a: Poly) -> str:
    if not a:
        return "0"
    terms = []
    for deg in range(len(a) - 1, -1, -1):
        c = a[deg]
        if c == 0:
            continue
        if deg == 0:
            terms.append(rat_str(c))
        elif deg == 1:
            terms.append("t" if c == 1 else "-t" if c == -1 else f"{rat_str(c)}*t")
        else:
            base = f"t^{deg}"
            terms.append(base if c == 1 else f"-{base}" if c == -1 else f"{rat_str(c)}*{base}")
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class ParamScalar(Value):
    """An element num(t)/t^k of the Laurent polynomial ring Q[t, 1/t].

    ``den`` is the monic monomial t^k with k >= 0, and t divides ``num``
    only when k = 0; zero is 0/1.  The hexagon F-matrix divides only by t,
    so division is defined only by a nonzero monomial c*t^j.  Dividing by
    anything else, or constructing with a ``den`` of more than one term,
    raises ``ValueError``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly) -> None:
        num = poly_from_coeffs(num)
        den = poly_from_coeffs(den)
        if not den:
            raise ZeroDivisionError("ParamScalar with zero denominator")
        k = len(den) - 1
        if any(den[:k]):
            raise ValueError(f"ParamScalar denominator {poly_str(den)} is not a monomial c*t^k")
        lead = den[k]
        self._assign(*ParamScalar._reduced(tuple([c / lead for c in num]), k))

    @staticmethod
    def _reduced(num: Poly, k: int) -> tuple[Poly, Poly]:
        """The fields of num/t^k, for a normalized num, with common powers of t cancelled."""
        if not num:
            return POLY_ZERO, POLY_ONE
        low = 0
        while low < k and not num[low]:
            low += 1
        return num[low:], poly_shift(POLY_ONE, k - low)

    @staticmethod
    def _laurent(num: Poly, k: int) -> "ParamScalar":
        out = object.__new__(ParamScalar)
        out._assign(*ParamScalar._reduced(num, k))
        return out

    @staticmethod
    def const(c: Rat) -> "ParamScalar":
        return ParamScalar._laurent(poly_const(c), 0)

    @staticmethod
    def t() -> "ParamScalar":
        return ParamScalar._laurent(POLY_T, 0)

    @staticmethod
    def coerce(x) -> "ParamScalar":
        if isinstance(x, ParamScalar):
            return x
        return ParamScalar.const(x)

    def __add__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        j, k = len(self.den) - 1, len(other.den) - 1
        m = max(j, k)
        return ParamScalar._laurent(
            poly_add(poly_shift(self.num, m - j), poly_shift(other.num, m - k)), m
        )

    def __sub__(self, other) -> "ParamScalar":
        return self + (-ParamScalar.coerce(other))

    def __neg__(self) -> "ParamScalar":
        return ParamScalar._laurent(poly_neg(self.num), len(self.den) - 1)

    def __mul__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        return ParamScalar._laurent(
            poly_mul(self.num, other.num), len(self.den) + len(other.den) - 2
        )

    def __truediv__(self, other) -> "ParamScalar":
        other = ParamScalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        # With self = a/t^j and other = c*t^i/t^k, self / other = (a/c) / t^(j + i - k).
        i = len(other.num) - 1
        if any(other.num[:i]):
            raise ValueError(f"division by {other}, which is not a monomial c*t^j")
        c = other.num[i]
        num = tuple([x / c for x in self.num])
        e = len(self.den) + i - len(other.den)
        if e < 0:
            return ParamScalar._laurent(poly_shift(num, -e), 0)
        return ParamScalar._laurent(num, e)

    def is_zero(self) -> bool:
        return not self.num

    def eval(self, t0: Rat) -> Rat:
        k = len(self.den) - 1
        if k and t0 == 0:
            raise ZeroDivisionError(f"denominator vanishes at t={t0}")
        return poly_eval(self.num, t0) / t0**k

    def as_rat(self) -> Rat:
        """Return the value when constant; error otherwise."""
        if len(self.num) > 1 or len(self.den) > 1:
            raise ValueError(f"{self} is not a constant")
        return self.num[0] if self.num else Fraction(0)

    def __str__(self) -> str:
        if self.den == POLY_ONE:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"
