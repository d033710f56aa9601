"""Structural data of Kac modules: exact sequences, Loewy diagrams, factors.

``kac_length2_seq(params, obj)`` reads the non-split length-2 sequence of
K_{mp+r,1} (p not dividing r, K_{1,1} included), K_{1,nq+s} (q not
dividing s) or K'_{1,1} straight from the module's label.

The three-layer diagram of K_{mp-1,nq-1} is generated positionally: nodes
are indexed by the integer appearing in their label family, and adjacency
follows the displayed pattern (top node i covers the middle nodes indexed
i-2 and i; middle node i covers the socle nodes indexed i-1 and i+1),
with boundary nodes covering fewer.  Golden tests pin the small cases.
Everything here returns values; ``cli`` writes a diagram as JSON or DOT.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Literal

from .base import CACHE_SIZE, UnsupportedObjectError, Value
from .virasoro import (
    KAC_DUAL_K11,
    KAC_K,
    SIMPLE_L,
    ObjLabel,
    Params,
    VirLabel,
    canonical_label,
    simple_l,
)


class ExactSeq(Value):
    """A non-split short exact sequence 0 -> sub -> mid -> quot -> 0."""

    __slots__ = ("sub", "mid", "quot")

    def __init__(self, sub: ObjLabel, mid: ObjLabel, quot: ObjLabel) -> None:
        self._assign(sub, mid, quot)


Layer = Literal["top", "middle", "socle"]


class LoewyNode(Value):
    __slots__ = ("id", "label", "layer")

    def __init__(self, id: str, label: VirLabel, layer: Layer) -> None:
        self._assign(id, label, layer)


class LoewyDiagram(Value):
    """Layered composition-factor graph; edges run top->middle->socle."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple[LoewyNode, ...], edges: tuple[tuple[str, str], ...]) -> None:
        self._assign(nodes, edges)


def kac_length2_seq(params: Params, obj: ObjLabel) -> ExactSeq:
    """The length-2 exact sequence of a Kac module, read from its label.

    K_{mp+r,1}, p !| r:  0 -> L_{(m+2)p-r,1} -> K_{mp+r,1} -> L_{mp+r,1} -> 0
    K_{1,nq+s}, q !| s:  0 -> L_{1,(n+2)q-s} -> K_{1,nq+s} -> L_{1,nq+s} -> 0
    K'_{1,1}:            0 -> L_{1,1}        -> K'_{1,1}   -> L_{2p-1,1} -> 0

    K_{1,1} is the row case m = 0, r = 1.  All of these are non-split; any
    other module raises :class:`UnsupportedObjectError`.
    """
    p, q = params.p, params.q
    if obj.kind == KAC_DUAL_K11:
        return ExactSeq(sub=simple_l(1, 1), mid=obj, quot=simple_l(2 * p - 1, 1))
    if obj.kind == KAC_K:
        lbl = obj.label
        if lbl.s == 1 and lbl.r % p:
            m, r = divmod(lbl.r, p)
            return ExactSeq(sub=simple_l((m + 2) * p - r, 1), mid=obj, quot=simple_l(lbl.r, 1))
        if lbl.r == 1 and lbl.s % q:
            n, s = divmod(lbl.s, q)
            return ExactSeq(sub=simple_l(1, (n + 2) * q - s), mid=obj, quot=simple_l(1, lbl.s))
    raise UnsupportedObjectError(f"composition factors of {obj} are outside the supported families")


def kac_mm_nn_diagram(params: Params, m: int, n: int) -> LoewyDiagram:
    """The three-layer Loewy diagram of K_{mp-1,nq-1} for m >= n >= 2.

    Layers: top {L_{ip-1,1}}, middle {L_{1,iq+1}} u {L_{jp+1,1}},
    socle {L_{p-1,iq+1}}, with the index ranges and adjacency of the
    displayed composition series (4n-2 nodes in total).
    """
    if n < 2:
        raise ValueError(f"diagram needs n >= 2, got n={n}")
    if m < n:
        raise ValueError(f"diagram needs m >= n (swap the arguments), got m={m} < n={n}")
    # As in `virasoro._sl2_label`, sizes below CACHE_SIZE go through the
    # cache, so what it keeps stays bounded; a larger diagram is built
    # without inserting it.
    build = _diagram if m < CACHE_SIZE else _diagram.__wrapped__
    return build(params.p, params.q, m, n)


# `verify`'s kacmod suite and `composition_factors` ask for the same few
# diagrams hundreds of times; a diagram is a value, so one object serves
# every call.
@lru_cache(maxsize=CACHE_SIZE)
def _diagram(p: int, q: int, m: int, n: int) -> LoewyDiagram:
    def make(label: VirLabel, layer: Layer) -> LoewyNode:
        return LoewyNode(id=f"L_{label.r}_{label.s}", label=label, layer=layer)

    # Top node i is L_{ip-1,1} and middle-row node i is L_{ip+1,1}: one index
    # range.  `list` takes its length first, so an n past the platform's size
    # limit raises OverflowError before any node is built.
    top_idx = list(range(m - n + 2, m + n - 1, 2))
    top = {i: make(VirLabel(i * p - 1, 1), "top") for i in top_idx}
    mid_col = {i: make(VirLabel(1, i * q + 1), "middle") for i in range(m - n, m + n - 1, 2)}
    mid_row = {j: make(VirLabel(j * p + 1, 1), "middle") for j in top_idx}
    socle = {i: make(VirLabel(p - 1, i * q + 1), "socle") for i in range(m - n + 1, m + n, 2)}
    nodes = [*top.values(), *mid_col.values(), *mid_row.values(), *socle.values()]

    edges: list[tuple[str, str]] = []
    for i, node in top.items():
        for k in (i - 2, i):
            if k in mid_col:
                edges.append((node.id, mid_col[k].id))
            if k in mid_row:
                edges.append((node.id, mid_row[k].id))
    for middle in (mid_col, mid_row):
        for i, node in middle.items():
            for k in (i - 1, i + 1):
                if k in socle:
                    edges.append((node.id, socle[k].id))

    return LoewyDiagram(nodes=tuple(nodes), edges=tuple(edges))


def mm_nn_indices(params: Params, lbl: VirLabel) -> tuple[int, int] | None:
    """(m, n) when lbl = (mp-1, nq-1) with m >= n >= 2, else None."""
    if (lbl.r + 1) % params.p or (lbl.s + 1) % params.q:
        return None
    m, n = (lbl.r + 1) // params.p, (lbl.s + 1) // params.q
    return (m, n) if m >= n >= 2 else None


def composition_factors(params: Params, obj: ObjLabel) -> Counter:
    """Multiset of canonicalized simple factors of a supported module.

    Supports K'_{1,1}, the length-2 Kac families K_{mp+r,1} / K_{1,nq+s}
    (including K_{1,1}), and K_{mp-1,nq-1} with m >= n >= 2.  Anything
    else raises :class:`UnsupportedObjectError`.
    """
    if obj.kind == SIMPLE_L:
        return Counter([canonical_label(params, obj.label)])
    if obj.kind == KAC_K:
        mn = mm_nn_indices(params, obj.label)
        if mn is not None:
            diagram = kac_mm_nn_diagram(params, *mn)
            return Counter(canonical_label(params, node.label) for node in diagram.nodes)
    seq = kac_length2_seq(params, obj)
    return Counter(canonical_label(params, o.label) for o in (seq.sub, seq.quot))

