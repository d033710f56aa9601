"""Truncated decompositions of the triplet algebra, its ideal, and its dual.

Every decomposition is a finite prefix of the sum over n >= 1 of
(2n-1) L_{2np-1,1}: entry n carries the simple module of lowest weight
(np-1)(nq-1) with multiplicity 2n-1, which is the dimension of the
grading module V_{2n-2}.  The ideal is that sum; the algebra and its
contragredient put K_{1,1} or K'_{1,1} in place of the n = 1 term.  The
graded form of the algebra and the contragredient carry the labels 2n-2.
Each decomposition is returned as a tuple of ``GradedEntry`` values, entry
n at index n-1; ``cli`` writes it as JSON.  Every lowest weight is an
``int``, read from the integer numerators of `virasoro`, so this module
loads no `fractions`.
"""

from __future__ import annotations

from .base import Value
from .virasoro import ObjLabel, Params, VirLabel, kac_dual_k11, kac_k
from .virasoro import simple_l, sl2_index_to_obj, sl2_weight_numerator, weight_numerator


class GradedEntry(Value):
    """Entry n of a decomposition: `mult` copies of `obj`, of the integer
    lowest weight `lowest_weight`, graded by V_psl2 (psl2 None if not)."""

    # psl2 is the even highest weight 2n of the multiplicity module, if graded.
    __slots__ = ("psl2", "mult", "obj", "lowest_weight")

    def __init__(self, psl2: int | None, mult: int, obj: ObjLabel, lowest_weight: int) -> None:
        if psl2 is not None:
            if psl2 % 2 or psl2 < 0:
                raise ValueError(f"grading labels are even and >= 0, got {psl2}")
            if mult != psl2 + 1:
                raise ValueError(f"multiplicity {mult} must equal dim V_{psl2} = {psl2 + 1}")
        self._assign(psl2, mult, obj, lowest_weight)


def _decompose(
    params: Params, head: ObjLabel, graded: bool, n_max: int, n_min: int = 2
) -> tuple[GradedEntry, ...]:
    # Entry 1 is the head, of the weight of its label (0 for K'_{1,1}, 0 for
    # K_{1,1} and (p-1)(q-1) for L_{2p-1,1}); entry n >= 2 is (2n-1) copies
    # of the dictionary's L_{2n-2} = L_{2np-1,1}, graded by V_{2n-2}, whose
    # weight numerator over 4 is an integer since 2n-2 is even.
    if n_max < n_min:
        raise ValueError(f"n_max must be >= {n_min}, got {n_max}")
    h = 0
    if head.label is not None:
        h = weight_numerator(params, head.label) // (4 * params.p * params.q)
    entries = [GradedEntry(psl2=0 if graded else None, mult=1, obj=head, lowest_weight=h)]
    for k in range(2, 2 * n_max - 1, 2):
        h = sl2_weight_numerator(params, k) // 4
        entries.append(GradedEntry(k if graded else None, k + 1, sl2_index_to_obj(params, k), h))
    return tuple(entries)


def decompose_wpq(params: Params, n_max: int) -> tuple[GradedEntry, ...]:
    """The triplet algebra as a plain Virasoro module: K_{1,1}, then (2n-1)
    copies of L_{2np-1,1} for 2 <= n <= n_max."""
    return _decompose(params, kac_k(1, 1), False, n_max)


def decompose_wpq_equivariant(params: Params, n_max: int) -> tuple[GradedEntry, ...]:
    """The triplet algebra with its symmetry grading: V_0 on K_{1,1} and
    V_{2n-2} on L_{2np-1,1}."""
    return _decompose(params, kac_k(1, 1), True, n_max)


def decompose_ideal(params: Params, n_max: int) -> tuple[GradedEntry, ...]:
    """The simple ideal: (2n-1) copies of L_{2np-1,1} for 1 <= n <= n_max."""
    return _decompose(params, simple_l(2 * params.p - 1, 1), False, n_max, n_min=1)


def decompose_wprime(params: Params, n_max: int) -> tuple[GradedEntry, ...]:
    """The contragredient algebra, graded: K'_{1,1} in place of K_{1,1}."""
    return _decompose(params, kac_dual_k11(), True, n_max)


def o0_weight_identity(params: Params, n_max: int) -> list[tuple[int, int, bool]]:
    """The congruence h_{1,2nq-2} - h_{1,2} = (np-1)(nq-2) for 2 <= n <= n_max.

    Returns (n, difference, integrality flag): the difference is the
    quotient of the two weight numerators' difference by 4pq, and the flag
    records that the division left no remainder.  The numerators differ by
    4pq(np-1)(nq-2), so the flag always holds and the difference equals the
    closed form.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    four_pq = 4 * params.p * params.q
    label12 = VirLabel(1, 2)
    h12 = weight_numerator(params, label12)
    out = []
    for n in range(2, n_max + 1):
        lbl = VirLabel(1, 2 * n * params.q - 2)
        diff, rem = divmod(weight_numerator(params, lbl) - h12, four_pq)
        out.append((n, diff, not rem))
    return out
