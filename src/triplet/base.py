"""What every layer shares, loaded without `fractions`.

The value-class base, the cache bound, the one exception for requests the
source results do not cover, and the formatter of a rational given as two
integers.  `sl2rep`, `cli` and the label and structure layers (`virasoro`,
`fusion`, `kacmod`, `wpq`), which work on integer numerators, need nothing
else below them, so neither they nor `import triplet.cli` load the Fraction
stack (`fractions` with its `decimal` and `numbers`); `braidfmat` brings
it in, and so does the first call of `virasoro`'s ``central_charge`` or
``conformal_weight``.
"""

from __future__ import annotations

from math import gcd

# One bound for every lru_cache of the package, above the distinct keys
# that `verify --suite all` asks for: 11 each in `sl2rep.build_irrep` and
# `sl2rep.invariant_form`, 49 in `sl2rep._cg_system`, 83 in
# `virasoro._sl2_obj`, 21 in `fusion._entry_class`, 176 in
# `fusion._sl2_entry` and 75 in `kacmod._diagram`.
CACHE_SIZE = 256


class UnsupportedObjectError(ValueError):
    """Raised for structure requests the source results do not cover."""


def ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms as "num/den", or "num" when that denominator
    is 1; the sign goes on the numerator, as ``str(Fraction(num, den))``
    writes it."""
    if not den:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    num //= g
    den //= g
    if den == 1:
        return str(num)
    return f"{num}/{den}"


class Value:
    """Base of the immutable value classes of every layer.

    A subclass names its fields in ``__slots__`` and sets them once, in its
    own ``__init__``, after its checks.  Instances compare equal only to
    instances of the same class with equal fields, hash as the tuple of
    their fields (`virasoro.ObjLabel` spells its label's fields out in that
    tuple), print as ``Name(field=value, ...)`` and refuse assignment
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
