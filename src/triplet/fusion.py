"""Fusion products: the L_{np-1,1} family and sl2-type fusion, in closed form.

``fuse_C`` implements the closed-form channel rule.  Its oracles live in
``verify``: ``verify.cg_oracle`` reaches the same multiset independently by
multiplying Weyl characters and peeling irreducible characters from the top
degree down, and ``verify.fusion_ring_product_oracle`` recomputes the ring
product on labels.  ``fuse_L_family`` and ``fusion_ring_product`` do not
restate the rule: both read ``fuse_C`` through the dictionary
``virasoro.sl2_index_to_obj`` (L_0 = K'_{1,1}, L_n = L_{(n+2)p-1,1}).
"""

from __future__ import annotations

from functools import lru_cache

from .exactnum import CACHE_SIZE, Value
from .virasoro import (
    SIMPLE_L,
    ObjLabel,
    Params,
    UnsupportedObjectError,
    canonical_label,
    canonical_obj,
    obj_to_sl2_index,
    sl2_index_to_obj,
)


class DecompEntry(Value):
    __slots__ = ("mult", "obj")

    # One per product entry in `verify`, so the fields are set directly.
    def __init__(self, mult: int, obj: ObjLabel) -> None:
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "obj", obj)

    # Entries and lists are compared in the inner loops of `verify`, so both
    # spell out the field tuple rather than use `Value`'s.
    def __eq__(self, other):
        if other.__class__ is DecompEntry:
            return self.mult == other.mult and self.obj == other.obj
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mult, self.obj))


class DecompList(Value):
    """A formal non-negative-integer combination of module labels."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[DecompEntry, ...]) -> None:
        if any(e.mult < 1 for e in entries):
            raise ValueError("multiplicities must be >= 1")
        if len({e.obj for e in entries}) != len(entries):
            raise ValueError("entries must be pairwise distinct")
        self._assign(entries)

    @classmethod
    def _unchecked(cls, entries: tuple[DecompEntry, ...]) -> "DecompList":
        """A DecompList built without the constructor's two checks, for
        callers whose entries are distinct with multiplicities >= 1 by
        construction.  Pickle and copy still rebuild through ``__init__``."""
        out = object.__new__(cls)
        out._assign(entries)
        return out

    def __eq__(self, other):
        if other.__class__ is DecompList:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))


def decomp_from_pairs(pairs) -> DecompList:
    """Collect (mult, obj) pairs into a DecompList, merging duplicates."""
    acc: dict[ObjLabel, int] = {}
    order: list[ObjLabel] = []
    for mult, obj in pairs:
        if obj not in acc:
            acc[obj] = 0
            order.append(obj)
        acc[obj] += mult
    return DecompList(tuple(DecompEntry(acc[o], o) for o in order if acc[o]))


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


def _classify(params: Params, obj: ObjLabel) -> int | None:
    """The sl2 index of obj, _L11, _SOCLE (L_{2p-1,1}) or None.

    The class is read from the bounded cache :func:`_entry_class`, keyed by
    (p, q, obj), and is computed only on a miss: from
    :func:`virasoro.obj_to_sl2_index`, the one inverse of the dictionary,
    plus the canonical label for L_{1,1} and the socle.  The labels L_n of
    a product come back from the cached dictionary
    :func:`virasoro.sl2_index_to_obj`.
    """
    return _entry_class(params.p, params.q, obj)


@lru_cache(maxsize=CACHE_SIZE)
def _entry_class(p: int, q: int, obj: ObjLabel) -> int | None:
    # An sl2-type entry is canonicalized once, by `obj_to_sl2_index`; only
    # the other simple labels are canonicalized again.
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
    once, through :func:`_classify`, the indices are combined with
    ``fuse_C``, and the result is listed unit first, then by index.
    ``verify.fusion_ring_product_oracle`` is the per-pair oracle.
    """
    b_classes = [(eb, _classify(params, eb.obj)) for eb in b.entries]
    acc: dict[int, int] = {}
    for ea in a.entries:
        ia = _classify(params, ea.obj)
        for eb, ib in b_classes:
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
                channels = [0] if other == _SOCLE else [other]
            elif ia is None or ib is None:
                bad = ea.obj if ia is None else eb.obj
                raise UnsupportedObjectError(
                    f"unsupported fusion entry {canonical_obj(params, bad)}"
                )
            else:
                channels = fuse_C(ia, ib)
            mult = ea.mult * eb.mult
            for k in channels:
                acc[k] = acc.get(k, 0) + mult
    # Distinct sl2 indices give distinct labels, and every multiplicity is
    # a sum of positive products, so the constructor's checks cannot fail.
    return DecompList._unchecked(
        tuple([DecompEntry(acc[k], sl2_index_to_obj(params, k)) for k in sorted(acc)])
    )

