"""Fusion products: the L_{np-1,1} family and sl2-type fusion, in closed form.

``fuse_C`` implements the closed-form channel rule.  Its oracles live in
``verify``: ``verify.cg_oracle`` reaches the same multiset independently by
multiplying Weyl characters and peeling irreducible characters from the top
degree down, and ``verify.fusion_ring_product_oracle`` recomputes the ring
product on labels.  ``fuse_L_family`` reads ``fuse_C`` through the
dictionary ``virasoro.sl2_index_to_obj`` (L_0 = K'_{1,1},
L_n = L_{(n+2)p-1,1}); ``fusion_ring_product`` writes the same channel
range inline on sl2 indices and is compared with its oracle on every basis
pair.  `verify`'s ring laws call it 1,694 times, once for each ab and ba
and once for each distinct (ab)c and a(bc) of L_0..L_10.
"""

from __future__ import annotations

from functools import lru_cache

from .base import CACHE_SIZE, UnsupportedObjectError, Value, slot_setters
from .virasoro import (
    SIMPLE_L,
    ObjLabel,
    Params,
    _sl2_label,
    canonical_label,
    canonical_obj,
    obj_to_sl2_index,
    sl2_index_to_obj,
)


class DecompEntry(Value):
    __slots__ = ("mult", "obj")

    # One per product entry in `verify`, so the slots are set through
    # setters bound at import.
    def __init__(self, mult: int, obj: ObjLabel) -> None:
        _set_mult(self, mult)
        _set_obj(self, obj)

    # Entries and lists are compared in the inner loops of `verify`, so both
    # spell out the field tuple rather than use `Value`'s; an entry whose
    # label is the same cached object compares without `ObjLabel.__eq__`.
    def __eq__(self, other):
        if other.__class__ is DecompEntry:
            return (self.mult, self.obj) == (other.mult, other.obj)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mult, self.obj))


_set_mult, _set_obj = slot_setters(DecompEntry)


class DecompList(Value):
    """A formal non-negative-integer combination of module labels."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[DecompEntry, ...]) -> None:
        if any(e.mult < 1 for e in entries):
            raise ValueError("multiplicities must be >= 1")
        if len({e.obj for e in entries}) != len(entries):
            raise ValueError("entries must be pairwise distinct")
        _set_entries(self, entries)

    @classmethod
    def _unchecked(cls, entries: tuple[DecompEntry, ...]) -> "DecompList":
        """A DecompList built without the constructor's two checks, for
        callers whose entries are distinct with multiplicities >= 1 by
        construction.  Pickle and copy still rebuild through ``__init__``."""
        out = object.__new__(cls)
        _set_entries(out, entries)
        return out

    def __eq__(self, other):
        if other.__class__ is DecompList:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))


# One per product in `verify`, like `DecompEntry`'s setters.
(_set_entries,) = slot_setters(DecompList)


def decomp_from_pairs(pairs) -> DecompList:
    """Collect (mult, obj) pairs into a DecompList, merging duplicates, in
    the order of each label's first pair."""
    acc: dict[ObjLabel, int] = {}
    for mult, obj in pairs:
        acc[obj] = acc.get(obj, 0) + mult
    return DecompList(tuple([DecompEntry(mult, obj) for obj, mult in acc.items() if mult]))


def fuse_C(m: int, n: int) -> list[int]:
    """Channels of L_m (x) L_n: {k : |m-n| <= k <= m+n, k = m+n mod 2}."""
    if m < 0 or n < 0:
        raise ValueError(f"indices must be >= 0, got ({m},{n})")
    return list(range(abs(m - n), m + n + 1, 2))


def fuse_L_family(params: Params, m: int, n: int) -> DecompList:
    """L_{mp-1,1} (x) L_{np-1,1} for m,n >= 2.

    L_{mp-1,1} is the sl2-type object L_{m-2}, so the product is
    ``fuse_C(m-2, n-2)`` read back through :func:`sl2_index_to_obj`.
    """
    if m < 2 or n < 2:
        raise ValueError(f"family fusion needs m,n >= 2, got ({m},{n})")
    return decomp_from_pairs((1, sl2_index_to_obj(params, k)) for k in fuse_C(m - 2, n - 2))


# Classes of a fusion-ring entry besides its sl2 index n >= 0 (None when
# the entry is unsupported).
_L11 = -1
_SOCLE = -2


@lru_cache(maxsize=CACHE_SIZE)
def _entry_class(p: int, q: int, obj: ObjLabel) -> int | None:
    """The sl2 index of obj, _L11, _SOCLE (L_{2p-1,1}) or None.

    A bounded cache keyed by (p, q, obj).  On a miss the class is read from
    :func:`virasoro.obj_to_sl2_index`, the one inverse of the dictionary,
    which canonicalizes an sl2-type entry once; only the other simple labels
    are canonicalized again, for L_{1,1} and the socle.
    """
    params = Params(p, q)
    index = obj_to_sl2_index(params, obj)
    if index is not None or obj.kind != SIMPLE_L:
        return index
    lbl = canonical_label(params, obj.label)
    if lbl.s != 1:
        return None
    if lbl.r == 1:
        return _L11
    return _SOCLE if lbl.r == 2 * p - 1 else None


def fusion_ring_product(params: Params, a: DecompList, b: DecompList) -> DecompList:
    """Bilinear extension of the sl2-type fusion rules, computed on sl2 indices.

    Entries may be K'_{1,1}, any L_{(n+2)p-1,1} with n >= 1, the socle
    label L_{2p-1,1}, or L_{1,1}; products against L_{1,1} vanish.  Each
    entry's class (its sl2 index, or one of the two other kinds) is read
    once from :func:`_entry_class`; two sl2 indices combine by the
    ``fuse_C`` channel range, and the result is listed unit first, then by
    index, each entry read from the bounded cache :func:`_sl2_entry`.
    ``verify.fusion_ring_product_oracle`` is the per-pair oracle.
    """
    p, q = params.p, params.q
    b_classes = [(eb, _entry_class(p, q, eb.obj)) for eb in b.entries]
    acc: dict[int, int] = {}
    for ea in a.entries:
        ia = _entry_class(p, q, ea.obj)
        for eb, ib in b_classes:
            mult = ea.mult * eb.mult
            if ia is not None and ib is not None and ia >= 0 and ib >= 0:
                # fuse_C(ia, ib), inline.
                for k in range(abs(ia - ib), ia + ib + 1, 2):
                    acc[k] = acc.get(k, 0) + mult
                continue
            if ia == _L11 or ib == _L11:
                if ia == ib:
                    raise UnsupportedObjectError(
                        "L_{1,1} (x) L_{1,1} is outside the computed fusion families"
                    )
                continue
            if ia == _SOCLE or ib == _SOCLE:
                # L_{2p-1,1} is not an sl2-type object, but its products with
                # the supported labels are known: it squares to K'_{1,1} and
                # fixes every sl2-type object.
                other = ib if ia == _SOCLE else ia
                if other is None:
                    raise UnsupportedObjectError(
                        f"unsupported fusion entry {canonical_obj(params, ea.obj)}"
                        f" (x) {canonical_obj(params, eb.obj)}"
                    )
                k = 0 if other == _SOCLE else other
                acc[k] = acc.get(k, 0) + mult
                continue
            bad = ea.obj if ia is None else eb.obj
            raise UnsupportedObjectError(f"unsupported fusion entry {canonical_obj(params, bad)}")
    # Distinct sl2 indices give distinct labels, and every multiplicity is
    # a sum of positive products, so the constructor's checks cannot fail.
    return DecompList._unchecked(tuple([_sl2_entry(p, k, acc[k]) for k in sorted(acc)]))


@lru_cache(maxsize=CACHE_SIZE)
def _sl2_entry(p: int, k: int, mult: int) -> DecompEntry:
    """The product entry mult * L_k, one object per (p, k, mult) while the
    cache holds it, so equal products compare their entries by identity;
    the label is read under the dictionary's cache policy
    (:func:`virasoro._sl2_label`)."""
    return DecompEntry(mult, _sl2_label(p, k))
