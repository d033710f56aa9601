"""Central charge, conformal weights, and canonical Kac labels.

Labels live on the Kac table: a pair (r,s) of positive integers names both
the simple module L_{r,s} and the Kac module K_{r,s} of weight h_{r,s}.
Distinct labels can name isomorphic simple modules; ``canonical_label``
picks the unique representative with r >= 1, 1 <= s <= q and q*r >= p*s.

Every rational here is an integer numerator over a fixed denominator:
pq c over pq (``central_charge_numerator``), 4pq h_{r,s} over 4pq
(``weight_numerator``) and 4h over 4 for the dictionary's L_n
(``sl2_weight_numerator``).  The layers above and `cli` read these
integers, so that neither this module nor they load `fractions` (with its
`decimal` and `numbers`).  Only ``central_charge`` and
``conformal_weight`` return a ``Fraction``; `fractions` is imported on the
first call of either.  Their return annotations name ``Fraction``, which
this module never binds at its top level, so `typing.get_type_hints`
cannot resolve them: they are documentation only.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .base import CACHE_SIZE, Value, slot_setters


class Params(Value):
    """The coprime pair (p,q), both >= 2, fixing the central charge."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if p < 2 or q < 2:
            raise ValueError(f"p and q must be >= 2, got ({p},{q})")
        if math.gcd(p, q) != 1:
            raise ValueError(f"p and q must be coprime, got ({p},{q})")
        self._assign(p, q)


class VirLabel(Value):
    """A Kac label (r,s) with r,s >= 1."""

    __slots__ = ("r", "s")

    def __init__(self, r: int, s: int) -> None:
        if r < 1 or s < 1:
            raise ValueError(f"Kac labels need r,s >= 1, got ({r},{s})")
        _set_r(self, r)
        _set_s(self, s)

    # VirLabel and ObjLabel are built, hashed and compared in the inner loops
    # of `verify`, so both set their slots through setters bound at import
    # and spell out the field tuple rather than use `Value`'s.  The tuple
    # comparison skips a field that is the same object on both sides.
    def __eq__(self, other):
        if other.__class__ is VirLabel:
            return (self.r, self.s) == (other.r, other.s)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.r, self.s))


_set_r, _set_s = slot_setters(VirLabel)


SIMPLE_L = "SimpleL"
KAC_K = "KacK"
KAC_DUAL_K11 = "KacDualK11"


class ObjLabel(Value):
    """A named module: a simple L_{r,s}, a Kac module K_{r,s}, or K'_{1,1}.

    The contragredient K'_{1,1} carries no label; it always means the dual
    of the Kac module at (1,1).
    """

    __slots__ = ("kind", "label")

    def __init__(self, kind: str, label: VirLabel | None = None) -> None:
        if kind not in (SIMPLE_L, KAC_K, KAC_DUAL_K11):
            raise ValueError(f"unknown ObjLabel kind {kind!r}")
        if kind == KAC_DUAL_K11:
            if label is not None:
                raise ValueError("KacDualK11 carries no label")
        elif label is None:
            raise ValueError(f"{kind} requires a label")
        _set_kind(self, kind)
        _set_label(self, label)

    def __eq__(self, other):
        if other.__class__ is ObjLabel:
            return (self.kind, self.label) == (other.kind, other.label)
        return NotImplemented

    # Hashed flat, in one frame: the key of `fusion._entry_class` is hashed
    # on every lookup, and a nested tuple would call `VirLabel.__hash__`.
    # Equal labels still hash equal, and the kind's str already makes the
    # hash differ from process to process.
    def __hash__(self) -> int:
        label = self.label
        if label is None:
            return hash((self.kind,))
        return hash((self.kind, label.r, label.s))

    def __str__(self) -> str:
        if self.kind == KAC_DUAL_K11:
            return "K'_{1,1}"
        tag = "L" if self.kind == SIMPLE_L else "K"
        return f"{tag}_{{{self.label.r},{self.label.s}}}"


_set_kind, _set_label = slot_setters(ObjLabel)


def simple_l(r: int, s: int) -> ObjLabel:
    return ObjLabel(SIMPLE_L, VirLabel(r, s))


def kac_k(r: int, s: int) -> ObjLabel:
    return ObjLabel(KAC_K, VirLabel(r, s))


def kac_dual_k11() -> ObjLabel:
    return ObjLabel(KAC_DUAL_K11)


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den).  The first call imports `fractions` and rebinds
    this global to the class itself, so later calls cost what a module-level
    import would, and a caller of the integer API never loads it."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(num, den)


def central_charge_numerator(params: Params) -> int:
    """pq c = pq - 6(p - q)^2, an integer."""
    p, q = params.p, params.q
    return p * q - 6 * (p - q) ** 2


def central_charge(params: Params) -> Fraction:
    """c = 1 - 6(p-q)^2/(pq) = central_charge_numerator / pq, exactly."""
    return _fraction(central_charge_numerator(params), params.p * params.q)


def weight_numerator(params: Params, lbl: VirLabel) -> int:
    """4pq h_{r,s} = (qr - ps)^2 - (p - q)^2, an integer.

    Every weight at c_{p,q} has a denominator dividing 4pq, so two weights
    at the same (p,q) are equal, or differ by an integer, exactly when
    their numerators are equal, or congruent mod 4pq.
    """
    p, q = params.p, params.q
    return (q * lbl.r - p * lbl.s) ** 2 - (p - q) ** 2


def conformal_weight(params: Params, lbl: VirLabel) -> Fraction:
    """h_{r,s} = weight_numerator / 4pq, exactly, as one Fraction."""
    return _fraction(weight_numerator(params, lbl), 4 * params.p * params.q)


def canonical_label(params: Params, lbl: VirLabel) -> VirLabel:
    """The unique symmetry image (r*,s*) with r* >= 1, 1 <= s* <= q, qr* >= ps*.

    The orbit of (r,s) under (r,s) -> (r+p,s+q) and (r,s) -> (-r,-s) is
    read directly: for each sign there is exactly one translate with
    s* in [1,q], and exactly one of the two candidates satisfies the
    remaining constraints.  A label that already satisfies them is its own
    representative and is returned as it is.
    """
    p, q = params.p, params.q
    r, s = lbl.r, lbl.s
    if r >= 1 and 1 <= s <= q and q * r >= p * s:
        return lbl
    # The translate of (r,s) by -k(p,q), and that of (-r,-s) by -j(p,q),
    # with s* - 1 the remainder of s - 1, or of -s - 1, mod q.
    k, s_plus = divmod(s - 1, q)
    j, s_minus = divmod(-s - 1, q)
    r_plus, s_plus = r - k * p, s_plus + 1
    r_minus, s_minus = -r - j * p, s_minus + 1
    plus = r_plus >= 1 and q * r_plus >= p * s_plus
    minus = r_minus >= 1 and q * r_minus >= p * s_minus
    if plus and minus and (r_plus != r_minus or s_plus != s_minus):
        # Both signs land on the same label when (r,s) is its own reflection.
        raise AssertionError(
            f"canonicalization of {lbl} not unique: {(r_plus, s_plus)} and {(r_minus, s_minus)}"
        )
    if not (plus or minus):
        raise AssertionError(f"canonicalization of {lbl} found no representative")
    # Both coordinates are >= 1, so the constructor's check is skipped.
    out = object.__new__(VirLabel)
    _set_r(out, r_plus if plus else r_minus)
    _set_s(out, s_plus if plus else s_minus)
    return out


def canonical_obj(params: Params, obj: ObjLabel) -> ObjLabel:
    """Canonicalize the label of a simple module; other kinds pass through.

    Kac modules with equal weights need not be isomorphic, so only
    SimpleL labels are rewritten.
    """
    if obj.kind == SIMPLE_L:
        return ObjLabel(SIMPLE_L, canonical_label(params, obj.label))
    return obj


def sl2_index_to_obj(params: Params, n: int) -> ObjLabel:
    """The dictionary n -> L_n: K'_{1,1} for n = 0, L_{(n+2)p-1,1} for n >= 1."""
    if n < 0:
        raise ValueError(f"sl2 index must be >= 0, got {n}")
    return _sl2_label(params.p, n)


def _sl2_label(p: int, n: int) -> ObjLabel:
    """L_n at p under the dictionary's one cache policy: an index below
    CACHE_SIZE goes through the cache, and a larger one is built without
    inserting it, so that a long family (a decomposition, a fusion product,
    a balancing check) keeps the keys that earlier calls put there."""
    return (_sl2_obj if n < CACHE_SIZE else _sl2_obj.__wrapped__)(p, n)


# The dictionary depends only on p.  The key is the int p, not Params,
# whose hash goes through the generic `Value.__hash__`.
@lru_cache(maxsize=CACHE_SIZE)
def _sl2_obj(p: int, n: int) -> ObjLabel:
    if n == 0:
        return kac_dual_k11()
    return simple_l((n + 2) * p - 1, 1)


def obj_to_sl2_index(params: Params, obj: ObjLabel) -> int | None:
    """Invert :func:`sl2_index_to_obj`; None when obj is not an L_n."""
    if obj.kind == KAC_DUAL_K11:
        return 0
    if obj.kind != SIMPLE_L:
        return None
    lbl = canonical_label(params, obj.label)
    if lbl.s != 1:
        return None
    n, rem = divmod(lbl.r + 1, params.p)
    if rem != 0 or n < 3:
        return None
    return n - 2


def sl2_weight_numerator(params: Params, n: int) -> int:
    """4 times the lowest conformal weight of L_n: 0 for the unit K'_{1,1},
    else 4h_{(n+2)p-1,1} = ((n+2)p-2)((n+2)q-2), with no label built.  For
    even n both factors are even, so the weight itself is an integer."""
    if n < 0:
        raise ValueError(f"sl2 index must be >= 0, got {n}")
    if n == 0:
        return 0
    return ((n + 2) * params.p - 2) * ((n + 2) * params.q - 2)
