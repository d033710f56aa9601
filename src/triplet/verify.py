"""The exact properties behind `triplet verify`, registered once.

Each property re-checks one structural identity of one module with exact
arithmetic and no tolerance: it holds on its whole stated range or it
fails; there is nothing to calibrate.  ``PROPERTIES`` is the ordered
registry, suite by suite, of zero-argument checks that raise on failure,
and the only list of suites: ``triplet verify`` and the test suite both
read it, so no check and no suite name is written twice.  A property that
samples seeds its own generator and checks the same values alone as inside
its suite.  A failed check raises ``AssertionError`` naming the values it
compared; no check is an ``assert`` statement, so ``python -O`` runs them
all the same.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from math import lcm

from . import braidfmat, fusion, kacmod, linalg, sl2rep, wpq
from .base import ratio_str
from .braidfmat import Phase
from .virasoro import (
    KAC_DUAL_K11,
    ObjLabel,
    Params,
    VirLabel,
    canonical_label,
    canonical_obj,
    conformal_weight,
    kac_dual_k11,
    kac_k,
    obj_to_sl2_index,
    simple_l,
    sl2_index_to_obj,
    sl2_weight_numerator,
    weight_numerator,
)

TEST_PARAMS = [Params(2, 3), Params(3, 4), Params(2, 5), Params(3, 5), Params(4, 5)]

Result = tuple[str, bool, str]

PROPERTIES: dict[str, dict[str, Callable[[], None]]] = {}


def _property(suite: str):
    """Register the decorated check as ``suite.<function name>``, in order."""

    def register(fn: Callable[[], None]) -> Callable[[], None]:
        PROPERTIES.setdefault(suite, {})[fn.__name__] = fn
        return fn

    return register


def _expect(ok: bool, *what) -> None:
    """Raise AssertionError unless ``ok``, with ``what`` joined as its
    message; the values are formatted only when the check fails."""
    if not ok:
        raise AssertionError(" ".join(map(str, what)))


# --- exactnum ---------------------------------------------------------------
# Rationals and phases.  The suite keeps the name of the scalar module it
# was written for, so that the output of `verify --suite all` keeps its
# bytes.


def _rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


@_property("exactnum")
def rat_addition_exact():
    rng = random.Random(20241)
    for _ in range(200):
        a, b = _rand_rat(rng), _rand_rat(rng)
        _expect((a + b) - b == a, "(a+b)-b != a for a, b =", a, b)
        # `ratio_str` writes from two integers what str(Fraction) does: on
        # the sample, on a negated numerator, over a negative denominator
        # and on an integer.
        for num, den in (
            (a.numerator, a.denominator),
            (-b.numerator, b.denominator),
            (a.numerator, -b.denominator),
            (a.numerator, 1),
        ):
            text = ratio_str(num, den)
            _expect(text == str(Fraction(num, den)), "ratio_str", num, den, "=", text)


@_property("exactnum")
def phase_abelian_group():
    rng = random.Random(20242)
    # Exponents from [-2, 2) so that the reduction mod 2 is exercised too.
    exps = [Fraction(n, d) for d in (1, 2, 3, 4, 5, 12, 48) for n in range(-2 * d, 2 * d)]
    sample = [Phase(e) for e in exps]
    one = Phase(Fraction(0))
    # The group is Q/2Z: a reduction mod 1 would pass every law below.
    minus_one = Phase(1)
    _expect(
        minus_one != one and minus_one * minus_one == one and Phase(-1) == minus_one,
        "-1 is not of order 2:",
        minus_one,
    )
    for a in sample:
        _expect(a * one == a, "a*1 != a for a =", a)
        order = 2 * a.exponent.denominator
        _expect(a**order == one, "a**", order, "!= 1 for a =", a)
    for _ in range(200):
        a, b, c = (rng.choice(sample) for _ in range(3))
        _expect(a * b == b * a, "ab != ba for a, b =", a, b)
        _expect((a * b) * c == a * (b * c), "(ab)c != a(bc) for a, b, c =", a, b, c)


def _nonzero_rand_rat(rng: random.Random) -> Fraction:
    x = _rand_rat(rng)
    while not x:
        x = _rand_rat(rng)
    return x


def _fmatrix_product(x: braidfmat.FMatrix, y: braidfmat.FMatrix) -> braidfmat.FMatrix:
    a, b, c, d = x.entries()
    e, f, g, h = y.entries()
    return braidfmat.FMatrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# The name predates the gauge-fixed F-matrix; it is kept so that the output
# of `verify --suite all` keeps its bytes.
@_property("exactnum")
def param_scalar_evaluation_hom():
    # Evaluating the gauge parameter, F -> D_t F D_t^-1, is a ring
    # homomorphism on F-matrices and commutes with the hexagon residual.
    rng = random.Random(20243)
    for i in range(40):
        params = TEST_PARAMS[i % len(TEST_PARAMS)]
        x = braidfmat.FMatrix(*(_rand_rat(rng) for _ in range(4)))
        y = braidfmat.FMatrix(*(_rand_rat(rng) for _ in range(4)))
        t0 = _nonzero_rand_rat(rng)
        product = _fmatrix_product(x, y).evaluate(t0)
        expected = _fmatrix_product(x.evaluate(t0), y.evaluate(t0))
        _expect(product == expected, "(xy)(t) != x(t)y(t) at t =", t0, ":", product, expected)
        for m in (x, y):
            residual = braidfmat.hexagon_residual(params, m).evaluate(t0)
            expected = braidfmat.hexagon_residual(params, m.evaluate(t0))
            _expect(residual == expected, params, m, "t =", t0, ":", residual, "!=", expected)


# --- virasoro ---------------------------------------------------------------


def weight_numerator_oracle(params: Params, lbl: VirLabel) -> int:
    """4pq h_{r,s}, from h_{r,s} = (r^2-1)q/4p - (rs-1)/2 + (s^2-1)p/4q term by
    term: the three terms summed as integers over the common denominator 4pq.
    """
    p, q = params.p, params.q
    r, s = lbl.r, lbl.s
    return (r * r - 1) * q * q - 2 * p * q * (r * s - 1) + (s * s - 1) * p * p


@_property("virasoro")
def weight_translation_symmetry():
    # Weights are compared as their integer numerators 4pq h_{r,s}.  Each one
    # of the (50+p) x (50+q) grid is computed once; h[r][s] is that of (r,s),
    # and row and column 0 are unused.  Row r and its translate by (p,q) are
    # compared as one list.  `conformal_weight` itself, denominator
    # included, is compared with the oracle's numerator over 4pq for
    # r,s <= 20, by cross-multiplication on integers.
    # The labels, labels[r][s] = (r,s), are built once for every pair.
    labels = [None] + [
        [None] + [VirLabel(r, s) for s in range(1, 51 + max(params.q for params in TEST_PARAMS))]
        for r in range(1, 51 + max(params.p for params in TEST_PARAMS))
    ]
    for params in TEST_PARAMS:
        p, q = params.p, params.q
        h = [None] + [
            [None] + [weight_numerator(params, lbl) for lbl in labels[r][1 : 51 + q]]
            for r in range(1, 51 + p)
        ]
        for r in range(1, 51):
            row, shifted = h[r][1:51], h[r + p][1 + q : 51 + q]
            _expect(row == shifted, params, "row r =", r, ":", row, "!=", shifted)
        four_pq = 4 * p * q
        for r in range(1, 21):
            for lbl in labels[r][1:21]:
                weight, oracle = conformal_weight(params, lbl), weight_numerator_oracle(params, lbl)
                same = weight.numerator * four_pq == oracle * weight.denominator
                _expect(same, params, lbl, ":", weight, "!=", oracle, "/", four_pq)


@_property("virasoro")
def canonical_label_idempotent_and_weight_preserving():
    # The range and idempotence checks, and the weight numerator, are
    # computed once per distinct canonical label.  Every label's weight
    # numerator over 4pq is compared to that of its canonical label, as one
    # list per pair; the first mismatch is looked for only on failure.  The
    # 40 x 40 labels are built once for every pair.
    labels = [VirLabel(r, s) for r in range(1, 41) for s in range(1, 41)]
    for params in TEST_PARAMS:
        p, q = params.p, params.q
        weight_of: dict[tuple[int, int], int] = {}
        canon = [canonical_label(params, lbl) for lbl in labels]
        expected = []
        for lbl, can in zip(labels, canon):
            key = (can.r, can.s)
            h = weight_of.get(key)
            if h is None:
                _expect(can.r >= 1 and 1 <= can.s <= q, params, lbl, "->", can, "out of range")
                _expect(q * can.r >= p * can.s, params, lbl, "->", can, "has q*r < p*s")
                again = canonical_label(params, can)
                _expect(again == can, params, "canonical_label not idempotent:", can, again)
                h = weight_of[key] = weight_numerator(params, can)
            expected.append(h)
        numerators = [weight_numerator(params, lbl) for lbl in labels]
        if numerators != expected:
            i = next(i for i, (n, h) in enumerate(zip(numerators, expected)) if n != h)
            lbl, n, h, can = labels[i], numerators[i], expected[i], canon[i]
            _expect(False, params, lbl, "weight numerator", n, "!=", h, "of", can)


@_property("virasoro")
def family_weight_identities():
    for params in TEST_PARAMS:
        p, q = params.p, params.q
        for n in range(1, 21):
            h = conformal_weight(params, VirLabel(2 * n * p - 1, 1))
            expected = (n * p - 1) * (n * q - 1)
            _expect(h == expected, params, "h_{2np-1,1} =", h, "!=", expected, "at n =", n)
            h = conformal_weight(params, VirLabel(n * p - 1, 1))
            expected = Fraction((n * p - 2) * (n * q - 2), 4)
            _expect(h == expected, params, "h_{np-1,1} =", h, "!=", expected, "at n =", n)
        # The dictionary's closed form against the weight of L_n's label, on
        # the indices n <= 8 of the braidfmat suite, as numerators over 4pq.
        for n in range(1, 9):
            h = weight_numerator(params, sl2_index_to_obj(params, n).label)
            lowest = sl2_weight_numerator(params, n) * p * q
            _expect(lowest == h, params, "4pq * lowest weight of L_n", lowest, "!=", h, "at n =", n)


# --- kacmod -----------------------------------------------------------------


def expanded_factor_multiset(params: Params, decomp: fusion.DecompList) -> Counter:
    """Composition factors of a decomposition, expanding K'_{1,1}."""
    out: Counter = Counter()
    for entry in decomp.entries:
        factors = kacmod.composition_factors(params, entry.obj)
        for lbl, mult in factors.items():
            out[lbl] += mult * entry.mult
    return out


def _layer_labels(diagram: kacmod.LoewyDiagram, layer: kacmod.Layer) -> list[VirLabel]:
    return [node.label for node in diagram.nodes if node.layer == layer]


def _diagram_weights_congruent(
    params: Params, diagram: kacmod.LoewyDiagram, reference: VirLabel
) -> bool:
    """All node weights congruent mod 1 to the weight of ``reference``: their
    numerators over 4pq are congruent mod 4pq."""
    four_pq = 4 * params.p * params.q
    ref = weight_numerator(params, reference)
    return all(
        (weight_numerator(params, node.label) - ref) % four_pq == 0 for node in diagram.nodes
    )


@_property("kacmod")
def diagram_node_counts_layers_distinct_weights():
    for params in TEST_PARAMS:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                where = (params, "(m,n) =", (m, n), ":")
                _expect(len(d.nodes) == 4 * n - 2, *where, len(d.nodes), "nodes")
                sizes = tuple(len(_layer_labels(d, layer)) for layer in ("top", "middle", "socle"))
                _expect(sizes == (n - 1, 2 * n - 1, n), *where, "layer sizes", sizes)
                canon = [canonical_label(params, node.label) for node in d.nodes]
                _expect(len(set(canon)) == len(canon), *where, "repeated labels", canon)
                ref = VirLabel(m * params.p - 1, n * params.q - 1)
                _expect(_diagram_weights_congruent(params, d, ref), *where, "weights not congruent")
                has_l11 = VirLabel(1, 1) in _layer_labels(d, "middle")
                _expect(has_l11 == (m == n), *where, "L_{1,1} in the middle layer:", has_l11)


@_property("kacmod")
def diagram_edges_respect_layers():
    for params in TEST_PARAMS[:2]:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                order = {"top": 0, "middle": 1, "socle": 2}
                layer = {node.id: order[node.layer] for node in d.nodes}
                for src, dst in d.edges:
                    _expect(layer[dst] == layer[src] + 1, params, (m, n), "edge", (src, dst))


@_property("kacmod")
def diagram_vs_fusion_factor_multisets():
    for params in TEST_PARAMS:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                top = Counter(canonical_label(params, lbl) for lbl in _layer_labels(d, "top"))
                if m == n:
                    top[canonical_label(params, VirLabel(1, 1))] += 1
                fused = expanded_factor_multiset(params, fusion.fuse_L_family(params, m, n))
                _expect(top == fused, params, "(m,n) =", (m, n), ":", top, "!=", fused)


# The name predates this check; it is kept so that `triplet verify` prints
# the same bytes.
@_property("kacmod")
def simple_quotient_list_shapes():
    # Each top node L_{ip-1,1} is the simple quotient of K_{ip-1,1}, whose
    # submodule L_{ip+1,1} (read from `kac_length2_seq`, not the diagram)
    # must be a middle node that the top node covers.
    for params in TEST_PARAMS:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                middle = {node.label: node.id for node in d.nodes if node.layer == "middle"}
                for node in d.nodes:
                    if node.layer == "top":
                        seq = kacmod.kac_length2_seq(params, kac_k(node.label.r, node.label.s))
                        quot = seq.quot.label
                        _expect(quot == node.label, params, node.label, "has quotient", quot)
                        cover = (node.id, middle.get(seq.sub.label))
                        _expect(cover in d.edges, params, (m, n), ":", cover, "is not an edge")


# --- fusion -----------------------------------------------------------------


def _basis_product_oracle(params: Params, a: ObjLabel, b: ObjLabel) -> fusion.DecompList:
    a = canonical_obj(params, a)
    b = canonical_obj(params, b)
    l11 = simple_l(1, 1)
    if a == l11 or b == l11:
        if a == b:
            raise kacmod.UnsupportedObjectError(
                "L_{1,1} (x) L_{1,1} is outside the computed fusion families"
            )
        return fusion.DecompList(())
    ia = obj_to_sl2_index(params, a)
    ib = obj_to_sl2_index(params, b)
    socle = simple_l(2 * params.p - 1, 1)
    if a == socle or b == socle:
        if a == b:
            return fusion.decomp_from_pairs([(1, kac_dual_k11())])
        other = ib if a == socle else ia
        if other is None:
            raise kacmod.UnsupportedObjectError(f"unsupported fusion entry {a} (x) {b}")
        return fusion.decomp_from_pairs([(1, sl2_index_to_obj(params, other))])
    if ia is None or ib is None:
        bad = a if ia is None else b
        raise kacmod.UnsupportedObjectError(f"unsupported fusion entry {bad}")
    return fusion.decomp_from_pairs(
        (1, sl2_index_to_obj(params, k)) for k in fusion.fuse_C(ia, ib)
    )


def fusion_ring_product_oracle(
    params: Params, a: fusion.DecompList, b: fusion.DecompList
) -> fusion.DecompList:
    """`fusion.fusion_ring_product` one basis pair at a time, on labels.

    Canonicalizes both labels of every pair, multiplies them as objects and
    merges the products with `decomp_from_pairs`, then sorts unit first and
    simple labels by (r,s).
    """
    pairs = []
    for ea in a.entries:
        for eb in b.entries:
            prod = _basis_product_oracle(params, ea.obj, eb.obj)
            pairs.extend((ea.mult * eb.mult * e.mult, e.obj) for e in prod.entries)
    merged = fusion.decomp_from_pairs(pairs)

    def key(entry: fusion.DecompEntry):
        if entry.obj.kind == KAC_DUAL_K11:
            return (0, 0, 0)
        return (1, entry.obj.label.r, entry.obj.label.s)

    return fusion.DecompList(tuple(sorted(merged.entries, key=key)))


def _weyl_character(n: int) -> range:
    """Character of V_n, x^n + x^{n-2} + ... + x^{-n}, as its degrees, each of
    multiplicity one."""
    return range(-n, n + 1, 2)


def cg_oracle(m: int, n: int) -> list[int]:
    """Clebsch-Gordan channels by character multiplication and greedy peeling.

    Valid because characters of distinct irreducibles have distinct top
    degrees and all multiplicities are non-negative.  Independent of
    `fusion`: it never reads the closed-form rule it checks.  The product
    is a list, entry (d + m + n)/2 the multiplicity of degree d; a peeled
    character with a degree that is not one of the product's fails at the
    largest such degree.
    """
    if m < 0 or n < 0:
        raise ValueError(f"indices must be >= 0, got ({m},{n})")
    total = m + n
    product = [0] * (total + 1)
    offsets = [(db + n) // 2 for db in _weyl_character(n)]
    for da in _weyl_character(m):
        base = (da + m) // 2
        for j in offsets:
            product[base + j] += 1

    def failure(degree: int) -> AssertionError:
        remaining = {2 * i - total: x for i, x in enumerate(product) if x}
        return AssertionError(f"character peeling failed at degree {degree}: {remaining}")

    peeled: list[int] = []
    for i in range(total, -1, -1):
        mult = product[i]
        if not mult:
            continue
        k = 2 * i - total
        if k < 0 or mult < 0:
            raise failure(k)
        peeled += [k] * mult
        # From the top down, so that a failure names the largest degree.
        for d in reversed(_weyl_character(k)):
            j = d + total
            if j & 1 or not 0 <= j <= 2 * total:
                raise failure(d)
            product[j >> 1] -= mult
        if product[i]:
            raise failure(k)
    return sorted(peeled)


@_property("fusion")
def fuse_C_equals_cg_oracle():
    for m in range(13):
        for n in range(13):
            channels, oracle = fusion.fuse_C(m, n), cg_oracle(m, n)
            _expect(channels == oracle, "fuse_C", (m, n), "=", channels, "!=", oracle)


@_property("fusion")
def fusion_ring_commutative_associative():
    params = Params(2, 3)
    basis = [
        fusion.decomp_from_pairs([(1, fusion.sl2_index_to_obj(params, k))]) for k in range(11)
    ]
    prod = lambda x, y: fusion.fusion_ring_product(params, x, y)
    # Each basis product is computed once and reused on both sides of
    # (ab)c == a(bc).
    pairs = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab = pairs[i, j] = prod(a, b)
            ba, oracle = prod(b, a), fusion_ring_product_oracle(params, a, b)
            _expect(ab == ba == oracle, "L_i L_j at (i,j) =", (i, j), ":", ab, ba, oracle)
    # The loop above has checked ab == ba on every basis pair, and the
    # product is a function of its operands' values.  So (ab)c depends only
    # on {i, j} and k, and a(bc) only on i and {j, k}: each side is computed
    # at i <= j (j <= k), kept, and taken back out at the swapped triple,
    # which comes later in the loop.  That is 726 products per side for
    # 1,331 triples.
    left, right = {}, {}
    for i, a in enumerate(basis):
        for j in range(len(basis)):
            for k, c in enumerate(basis):
                if i <= j:
                    ab_c = left[i, j, k] = prod(pairs[i, j], c)
                else:
                    ab_c = left.pop((j, i, k))
                if j <= k:
                    a_bc = right[i, j, k] = prod(a, pairs[j, k])
                else:
                    a_bc = right.pop((i, k, j))
                _expect(ab_c == a_bc, "(ab)c != a(bc) at", (i, j, k), ":", ab_c, a_bc)


@_property("fusion")
def dimension_grading():
    for m in range(13):
        for n in range(13):
            dim = sum(k + 1 for k in fusion.fuse_C(m, n))
            _expect(dim == (m + 1) * (n + 1), "fuse_C", (m, n), "has dimension", dim)


@_property("fusion")
def even_subring_closed():
    for m in range(0, 13, 2):
        for n in range(0, 13, 2):
            channels = fusion.fuse_C(m, n)
            _expect(all(k % 2 == 0 for k in channels), "fuse_C", (m, n), "=", channels)
    # The same closure on labels: a product of two even basis labels of the
    # ring laws' range has only even dictionary labels as entries.
    params = Params(2, 3)
    even = [fusion.decomp_from_pairs([(1, sl2_index_to_obj(params, k))]) for k in range(0, 11, 2)]
    for a in even:
        for b in even:
            product = fusion.fusion_ring_product(params, a, b)
            indices = [obj_to_sl2_index(params, e.obj) for e in product.entries]
            _expect(all(i is not None and i % 2 == 0 for i in indices), a, "*", b, "=", product)


# --- braidfmat --------------------------------------------------------------


def _phase_sign(phase: Phase) -> int:
    """+1 or -1 for a real phase; any other phase raises."""
    if phase.exponent == 0:
        return 1
    if phase.exponent == 1:
        return -1
    raise ValueError(f"phase e^(i*pi*{phase.exponent}) is not +-1")


def _hexagon_sign_matrix(r0: Phase, r2: Phase) -> tuple[tuple[int, int], ...]:
    """Left-hand-side signs of the scalar hexagon R_1^k F_{kl} R_1^l = (F^2)_{kl}.

    With the normalization R_{m1}^1 = 1 the constraint reads
    s_{kl} * F_{kl} = (F^2)_{kl} with s_{kl} = R_1^k * R_1^l, and the signs
    are unchanged when both scalars are negated simultaneously.
    """
    signs = {}
    for k, rk in ((0, r0), (2, r2)):
        for l, rl in ((0, r0), (2, r2)):
            signs[(k, l)] = _phase_sign(rk * rl)
    return ((signs[(0, 0)], signs[(0, 2)]), (signs[(2, 0)], signs[(2, 2)]))


def _flip_sign(channel: sl2rep.CGChannel) -> Phase:
    """The eigenvalue of the flip v (x) w -> w (x) v on the highest-weight
    vector of channel k of V_n (x) V_n: the top column holds c_a at
    v_a (x) v_{s-a}, and the flip sends it to c_{s-a}."""
    top = dict(channel.columns[0])
    flipped = {channel.s - a: x for a, x in top.items()}
    if flipped == top:
        return Phase(0)
    _expect(flipped == {a: -x for a, x in top.items()}, channel, "is not a flip eigenvector")
    return Phase(1)


@_property("braidfmat")
def squared_r_scalars_equal_balancing():
    # The closed forms against the weight formula, their oracle: h[j] is
    # the weight of L_{(j+2)p-1,1}, once per pair.  R_n^k is
    # e^{i*pi*(h_k - 2h_n)} and the balancing e^{2*pi*i*(h_k - 2h_n)}, with
    # the unit's weight 0.  For n <= 6, R_n^k is also the twist
    # e^{i*pi*pq*n^2/2} times the flip's eigenvalue on channel k of
    # V_n (x) V_n, read once from the systems the sl2rep suite builds.
    flips = {}
    for n in range(7):
        for k, cg in sl2rep._cg_system(n, n).items():
            flips[n, k] = _flip_sign(cg)
    for params in TEST_PARAMS:
        p, q = params.p, params.q
        h = [conformal_weight(params, VirLabel((j + 2) * p - 1, 1)) for j in range(17)]
        for n in range(9):
            balancing = braidfmat.balancing_check(params, n)
            twist = Phase(Fraction(p * q * n * n, 2))
            two_hn = 2 * h[n]
            for k in fusion.fuse_C(n, n):
                formula = braidfmat.r_scalar_formula(params, n, k)
                oracle = Phase(h[k] - two_hn)
                _expect(formula == oracle, params, (n, k), ": R =", formula, "!=", oracle)
                oracle = Phase(2 * ((h[k] if k else 0) - two_hn))
                _expect(balancing[k] == oracle, params, (n, k), ":", balancing[k], "!=", oracle)
                _expect(formula**2 == balancing[k], params, (n, k), ":", formula, balancing[k])
                if n <= 6:
                    flip = twist * flips[n, k]
                    _expect(formula == flip, params, (n, k), ": R =", formula, "!=", flip)
            # The PSL_2 part is symmetric: for even n every channel k is even,
            # so the lowest weights ((k+2)p-2)((k+2)q-2)/4 of L_k and of L_n
            # are integers and every balancing phase is 1.
            if n % 2 == 0:
                one = all(phase == Phase(0) for phase in balancing.values())
                _expect(one, params, "n =", n, "balancing", balancing)
        for k in (0, 2):
            table = braidfmat.r_scalar_table(params, 1, k)
            phase = braidfmat.balancing_check(params, 1)[k]
            _expect(table**2 == phase, params, "k =", k, ":", table, "squared !=", phase)
            # The table is the twisted flip negated.
            flip = Phase(Fraction(p * q, 2) + 1) * flips[1, k]
            _expect(table == flip, params, "k =", k, ": table", table, "!=", flip)


@_property("braidfmat")
def balancing_n1_is_parity_sign():
    # The balancing on L_1 (x) L_1 against its oracle, the weight formula
    # e^{2*pi*i*(h_k - 2h_{3p-1,1})} with h_0 = 0 for the unit and h_2 that
    # of L_{4p-1,1}, and against the sign (-1)^{pq} it takes on both channels.
    for params in TEST_PARAMS:
        p = params.p
        eps = (-1) ** (p * params.q)
        two_h1 = 2 * conformal_weight(params, VirLabel(3 * p - 1, 1))
        weights = {0: 0, 2: conformal_weight(params, VirLabel(4 * p - 1, 1))}
        balancing = braidfmat.balancing_check(params, 1)
        for k in (0, 2):
            oracle = Phase(2 * (weights[k] - two_h1))
            _expect(balancing[k] == oracle, params, "k =", k, ":", balancing[k], "!=", oracle)
            sign = _phase_sign(balancing[k])
            _expect(sign == eps, params, "k =", k, ":", sign, "!=", eps)


@_property("braidfmat")
def hexagon_solutions_zero_residual():
    # Each entry of F(t) = evaluate(t) is c*t^e with |e| <= 1, so each
    # residual entry is c_-2/t^2 + ... + c_2*t^2, and t^2 times it is a
    # polynomial of degree <= 4: its zeros at five distinct t make it zero.
    ts = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 7), Fraction(10**30, 7)]
    for params in TEST_PARAMS:
        for sol in braidfmat.hexagon_solutions(params):
            for t0 in ts:
                residual = braidfmat.hexagon_residual(params, sol.matrix.evaluate(t0))
                _expect(not any(residual.entries()), params, sol.kind, "t =", t0, ":", residual)


@_property("braidfmat")
def hexagon_sign_flip_invariance():
    for params in TEST_PARAMS:
        r0 = braidfmat.r_scalar_table(params, 1, 0)
        r2 = braidfmat.r_scalar_table(params, 1, 2)
        flipped0 = Phase(r0.exponent + 1)
        flipped2 = Phase(r2.exponent + 1)
        signs = _hexagon_sign_matrix(r0, r2)
        flipped = _hexagon_sign_matrix(flipped0, flipped2)
        _expect(signs == flipped, params, "flip changes the signs:", signs, "->", flipped)
        eps = (-1) ** (params.p * params.q)
        _expect(signs == ((eps, -eps), (-eps, eps)), params, "signs", signs)
        # The weight-formula convention is one of the two flips, so it
        # derives the same matrix equation.
        f0 = braidfmat.r_scalar_formula(params, 1, 0)
        f2 = braidfmat.r_scalar_formula(params, 1, 2)
        formula = _hexagon_sign_matrix(f0, f2)
        _expect(formula == signs, params, "formula signs", formula, "!=", signs)


@_property("braidfmat")
def intrinsic_dimensions():
    for params in TEST_PARAMS:
        eps = (-1) ** (params.p * params.q)
        dims = [braidfmat.intrinsic_dimension(sol) for sol in braidfmat.hexagon_solutions(params)]
        _expect(dims == [eps, -2 * eps], params, "dimensions", dims)


# --- sl2rep -----------------------------------------------------------------


def _nonzero(row: dict[int, int]) -> dict[int, int]:
    """`row` without its zero entries: `row` itself when it has none."""
    return {j: x for j, x in row.items() if x} if 0 in row.values() else row


def _irrep_rows(rep: sl2rep.Irrep) -> tuple[list[dict[int, int]], ...]:
    """E, F and H of `rep` as sparse integer rows, read from its bands."""
    e = [{k + 1: x} if x else {} for k, x in enumerate(rep.e)] + [{}]
    f = [{}] + [{k: 1} for k in range(rep.n)]
    h = [{k: x} if x else {} for k, x in enumerate(rep.h)]
    return e, f, h


def _same_over(a: list[dict[int, int]], d: int, b: list[dict[int, int]], e: int) -> bool:
    """Whether the sparse integer rows a over d equal the rows b over e, by
    cross-multiplication: the same support, and a*e == b*d entry by entry."""
    return len(a) == len(b) and all(
        x.keys() == y.keys() and all(x[j] * e == y[j] * d for j in x) for x, y in zip(a, b)
    )


def invariant_form_oracle(n: int) -> tuple[list[dict[int, int]], int]:
    """The invariant form on V_n by brute force: sparse integer rows and the
    integer top they are over.

    Solves X^T B + B X = 0 for X in {E,F,H} as one linear system of sparse
    integer rows, read from `sl2rep.build_irrep`'s bands.  Raises unless
    the solution space is one-dimensional and its form nondegenerate and
    pairing the highest- and lowest-weight vectors; top is that pairing, so
    the rows over top are the form normalized to pair them to 1.
    """
    dim = n + 1
    rows: list[dict[int, int]] = []
    for mat in _irrep_rows(sl2rep.build_irrep(n)):
        # cols[i]: k -> X[k][i].  With B[i][j] at column i*dim + j,
        # (X^T B + B X)[i][j] = sum_k X[k][i] B[k][j] + B[i][k] X[k][j].
        cols: list[dict[int, int]] = [{} for _ in range(dim)]
        for k, row in enumerate(mat):
            for i, x in row.items():
                cols[i][k] = x
        for i in range(dim):
            for j in range(dim):
                row = {k * dim + j: x for k, x in cols[i].items()}
                for k, x in cols[j].items():
                    row[i * dim + k] = row.get(i * dim + k, 0) + x
                row = _nonzero(row)
                if row:
                    rows.append(row)
    basis = linalg._kernel_int(rows, dim * dim)
    if len(basis) != 1:
        raise AssertionError(
            f"invariant-form space of V_{n} has dimension {len(basis)}, expected 1"
        )
    flat = basis[0]
    top = flat.get(dim - 1)  # B[0][n]
    if top is None:
        raise AssertionError("invariant form does not pair highest against lowest")
    b = [{j: flat[i * dim + j] for j in range(dim) if i * dim + j in flat} for i in range(dim)]
    if len(linalg._rref_int([dict(row) for row in b], dim)) != dim:
        raise AssertionError(f"invariant form on V_{n} is degenerate")
    return b, top


def _form_rows(form: sl2rep.BilinForm) -> list[dict[int, int]]:
    """The form's matrix as sparse integer rows: row i holds B[i][n-i]."""
    return [{form.n - i: sign} if sign else {} for i, sign in enumerate(form.signs)]


def _kron_sum(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    """a (x) I + I (x) b on sparse integer rows, on the basis
    e_i (x) e_j -> i*dim_b + j."""
    db = len(b)
    out = []
    for i, a_row in enumerate(a):
        a_part = [(k * db, x) for k, x in a_row.items()]
        start = i * db
        for j, b_row in enumerate(b):
            row = {k + j: x for k, x in a_part}
            for k, x in b_row.items():
                row[start + k] = row.get(start + k, 0) + x
            out.append(_nonzero(row))
    return out


def _transpose(rows: list[dict[int, int]], size: int) -> list[dict[int, int]]:
    """The `size` columns of sparse integer rows, as sparse integer rows."""
    out: list[dict[int, int]] = [{} for _ in range(size)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def cg_system_oracle(m: int, n: int) -> dict[int, tuple[tuple[list, int], tuple[list, int]]]:
    """The Clebsch-Gordan system of V_m (x) V_n by elimination on integers.

    Channels come from `cg_oracle`, each highest-weight vector from the
    kernel of the full E on its weight space, F applied K times by sparse
    scatter, and projections from the inverse of the whole change of basis
    C, with every system a list of sparse integer rows read from
    `sl2rep.build_irrep`'s bands.  Each channel's columns are integral once
    multiplied by its lead, the first nonzero entry of its highest-weight
    vector; the augmented [C D | Id], D that diagonal of leads, is reduced
    once, and the projections are D (C D)^-1.  Channel k maps to
    ((rows, row_den), (columns, lead)): the projection rows are the sparse
    integer rows over row_den, the inclusion columns the sparse integer
    columns over lead, both keyed by the flat index a(n+1) + b.
    """
    rep_m = sl2rep.build_irrep(m)
    rep_n = sl2rep.build_irrep(n)
    dim = (m + 1) * (n + 1)
    (e_m, f_m, _), (e_n, f_n, _) = _irrep_rows(rep_m), _irrep_rows(rep_n)
    e_t = _kron_sum(e_m, e_n)
    # Column j of F on V_m (x) V_n is row j of F^T, which is a Kronecker sum too.
    f_cols = _kron_sum(_transpose(f_m, m + 1), _transpose(f_n, n + 1))
    channels = cg_oracle(m, n)
    # The flat indices of each weight, in order, and each index's weight and
    # place among them.
    indices: dict[int, list[int]] = {}
    weight, place = [0] * dim, [0] * dim
    for a in range(m + 1):
        for b in range(n + 1):
            j, w = a * (n + 1) + b, (m - 2 * a) + (n - 2 * b)
            same = indices.setdefault(w, [])
            weight[j], place[j] = w, len(same)
            same.append(j)
    # E's rows restricted to the columns of each weight, read in one pass:
    # the system whose kernel holds the highest-weight vectors of that weight.
    restricted: dict[int, list[dict[int, int]]] = {}
    for row in e_t:
        parts: dict[int, dict[int, int]] = {}
        for j, x in row.items():
            parts.setdefault(weight[j], {})[place[j]] = x
        for w, part in parts.items():
            restricted.setdefault(w, []).append(part)

    columns: list[dict[int, int]] = []  # column c of C D, sparse
    blocks: dict[int, tuple[int, int, int]] = {}
    for k in channels:
        idx = indices.get(k, [])
        basis = linalg._kernel_int(restricted.get(k, []), len(idx))
        if len(basis) != 1:
            raise AssertionError(
                f"channel {k} of V_{m} (x) V_{n} has multiplicity {len(basis)}, expected 1"
            )
        vec = {idx[t]: x for t, x in basis[0].items()}
        start = len(columns)
        columns.append(vec)
        for _ in range(k):
            down: dict[int, int] = {}
            for j, x in vec.items():
                for i, y in f_cols[j].items():
                    down[i] = down.get(i, 0) + x * y
            vec = _nonzero(down)
            columns.append(vec)
        blocks[k] = (start, start + k + 1, columns[start][min(columns[start])])

    augmented: list[dict[int, int]] = [{dim + i: 1} for i in range(dim)]
    for c, column in enumerate(columns):
        for i, x in column.items():
            augmented[i][c] = x
    if linalg._rref_int(augmented, 2 * dim) != list(range(dim)):
        raise AssertionError(f"the change of basis of V_{m} (x) V_{n} is singular")
    # Row c of (C D)^-1 is reduced row c past column dim, over its pivot; a
    # channel's projection rows are lead times those, over the lcm of the
    # pivots.
    out = {}
    for k in channels:
        start, stop, lead = blocks[k]
        pivots = [augmented[c][c] for c in range(start, stop)]
        row_den = lcm(*pivots)
        rows = [
            {j - dim: lead * (row_den // p) * x for j, x in augmented[c].items() if j >= dim}
            for c, p in zip(range(start, stop), pivots)
        ]
        out[k] = ((rows, row_den), (columns[start:stop], lead))
    return out


ChannelMaps = dict[int, tuple[sl2rep.CGChannel, list[dict[int, int]], list[dict[int, int]]]]


def _channel_maps(system: dict[int, sl2rep.CGChannel]) -> ChannelMaps:
    """Each channel of a system with its projection rows and inclusion
    columns, the rows reflected from the columns, which are built once."""
    maps = {}
    for k, cg in system.items():
        columns = cg.inclusion_columns()
        maps[k] = (cg, cg.projection_rows(columns), columns)
    return maps


def _system_equals_oracle(maps: ChannelMaps, oracle: dict) -> bool:
    """Whether each channel's projection and inclusion equal the oracle's,
    as integer rows and columns over their denominators."""
    if sorted(maps) != sorted(oracle):
        return False
    for k, (cg, proj, incl) in maps.items():
        (rows, row_den), (columns, lead) = oracle[k]
        # A projection row is x*big/scale: x over scale equals rows over
        # row_den*big.
        if not (
            _same_over(proj, cg.scale, rows, row_den * cg.big)
            and _same_over(incl, cg.big, columns, lead)
        ):
            return False
    return True


def _int_product(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(_nonzero(acc))
    return out


def bracket(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    """ab - ba on sparse integer rows."""
    out = []
    for ab, ba in zip(_int_product(a, b), _int_product(b, a)):
        row = dict(ab)
        for j, x in ba.items():
            row[j] = row.get(j, 0) - x
        out.append(_nonzero(row))
    return out


def check_brackets(rep: sl2rep.Irrep) -> bool:
    """[H,E] = 2E, [H,F] = -2F, [E,F] = H, exactly, on integer rows."""
    e, f, h = _irrep_rows(rep)

    def times(c: int, rows: list[dict[int, int]]) -> list[dict[int, int]]:
        return [{j: c * x for j, x in row.items()} for row in rows]

    return bracket(h, e) == times(2, e) and bracket(h, f) == times(-2, f) and bracket(e, f) == h


@_property("sl2rep")
def bracket_relations():
    for n in range(11):
        _expect(check_brackets(sl2rep.build_irrep(n)), "bracket relations fail on V_", n)


@_property("sl2rep")
def invariant_form_unique_nondegenerate_symmetry():
    for n in range(11):
        form = sl2rep.invariant_form(n)
        rows = _form_rows(form)
        if n <= 8:
            # The oracle raises unless the solution space is 1-dim.
            oracle, top = invariant_form_oracle(n)
            same = _same_over(rows, 1, oracle, top)
            _expect(same, "form on V_", n, ":", rows, "!=", oracle, "/", top)
        rank = len(linalg._rref_int([dict(row) for row in rows], n + 1))
        _expect(rank == n + 1, "form on V_", n, "has rank", rank)
        sign = 1 if n % 2 == 0 else -1
        if n <= 6:
            # B[i][n-i] == sign * B[n-i][i]; every other entry is 0 on both sides.
            signs = form.signs
            symmetric = all(x == sign * signs[n - i] for i, x in enumerate(signs))
            _expect(symmetric, "form on V_", n, "is not", sign, "symmetric:", signs)


@_property("sl2rep")
def cg_biorthogonality_and_completeness():
    # Stack every channel's projection rows, unscaled, into X and its
    # inclusion columns into Y.  Projection row i of channel k is X's row
    # times big_k/scale_k and inclusion column j is Y's column over big_k, so
    # biorthogonality of all channel pairs, P*I == Id, is X*Y ==
    # diag(scale_k), on integers; completeness is I*P == Id.  Over Q a
    # square matrix with a one-sided inverse is invertible, so once X and Y
    # are dim x dim, P*I == Id implies I*P == Id and only X*Y is computed.
    # The channel set is checked against `cg_oracle` at every size, the
    # whole system against the integer oracle for m,n <= 5; there the
    # oracle's channels are the keys of its system, which reads them from
    # `cg_oracle`.  Each channel's rows and columns are read once.
    for m in range(7):
        for n in range(7):
            maps = _channel_maps(sl2rep._cg_system(m, n))
            small = m <= 5 and n <= 5
            system_oracle = cg_system_oracle(m, n) if small else None
            channels = sorted(maps)
            oracle = sorted(system_oracle) if small else cg_oracle(m, n)
            _expect(channels == oracle, "(m,n) =", (m, n), ":", channels, "!=", oracle)
            if small:
                same = _system_equals_oracle(maps, system_oracle)
                _expect(same, "(m,n) =", (m, n), ": system != oracle")
            dim = (m + 1) * (n + 1)
            x_rows: list[dict[int, int]] = []
            y_columns: list[dict[int, int]] = []
            diagonal: list[dict[int, int]] = []
            for cg, proj, incl in maps.values():
                x_rows += proj
                y_columns += incl
                diagonal += [{c: cg.scale} for c in range(len(diagonal), len(y_columns))]
            flat = set(range(dim))
            square = len(x_rows) == len(y_columns) == dim and all(
                vec.keys() <= flat for vec in x_rows + y_columns
            )
            _expect(square, (m, n), ": P and I are not", dim, "x", dim)
            product = _int_product(x_rows, _transpose(y_columns, dim))
            _expect(product == diagonal, (m, n), ": P*I != Id")


@_property("sl2rep")
def unit_channel_projection_is_bilinear_form():
    # The invariant pairing spans the one-dimensional space of unit-channel
    # functionals, so the channel-0 projection must be proportional to it.
    # Flattened over V_{2n} (x) V_{2n}, the form holds B[i][2n-i] at
    # i*(2n+1) + 2n - i.
    for n in range(1, 4):
        (row,) = sl2rep.cg_maps(2 * n, 2 * n, 0).projection_rows()
        form = sl2rep.invariant_form(2 * n)
        flat = {i * (2 * n + 1) + 2 * n - i: x for i, x in enumerate(form.signs) if x}
        same_support = bool(flat) and row.keys() == flat.keys()
        _expect(same_support, "n =", n, ": projection and pairing differ in support")
        j = min(flat)
        proportional = all(x * flat[j] == flat[i] * row[j] for i, x in row.items())
        _expect(proportional, "n =", n, ":", row, "is not a multiple of", flat)


def _pair(form: sl2rep.BilinForm, v: list, w: list) -> Fraction:
    # The form is antidiagonal: row i holds only B[i][n-i].
    n = form.n
    return sum(
        (v[i] * x * w[n - i] for i, x in enumerate(form.signs) if v[i] and w[n - i]),
        Fraction(0),
    )


def _simplicity_witness(n: int, v: list) -> list:
    """Some v' in V_{2n} with (v',v) != 0, off the invariant form.

    Exists for every nonzero v because the form is nondegenerate; the
    returned vector is a standard basis vector.
    """
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("the zero vector has no pairing witness")
    if len(v) != 2 * n + 1:
        raise ValueError(f"expected a vector in V_{2*n} of length {2*n+1}, got {len(v)}")
    form = sl2rep.invariant_form(2 * n)
    # Entry i of B v is B[i][2n-i] * v[2n-i]: the form is antidiagonal.
    for i, x in enumerate(form.signs):
        if x * v[2 * n - i]:
            witness = [0] * (2 * n + 1)
            witness[i] = 1
            return witness
    raise AssertionError("nondegenerate form produced a zero pairing image")


@_property("sl2rep")
def simplicity_witnesses_exist():
    rng = random.Random(20240 + 4)
    for _ in range(100):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        if all(x == 0 for x in v):
            v[rng.randrange(5)] = Fraction(1)
        w = _simplicity_witness(2, v)
        _expect(_pair(sl2rep.invariant_form(4), w, v) != 0, "witness", w, "pairs v =", v, "to 0")


# --- wpq --------------------------------------------------------------------


@_property("wpq")
def truncations_are_prefixes():
    for params in TEST_PARAMS:
        big = wpq.decompose_wpq(params, 12)
        for n_max in range(2, 12):
            small = wpq.decompose_wpq(params, n_max)
            _expect(small == big[: len(small)], params, "n_max =", n_max, ":", small)


@_property("wpq")
def equivariant_dimension_agreement():
    for params in TEST_PARAMS:
        plain = wpq.decompose_wpq(params, 20)
        graded = wpq.decompose_wpq_equivariant(params, 20)
        _expect(len(plain) == len(graded), params, "lengths", len(plain), len(graded))
        for pe, ge in zip(plain, graded):
            _expect(pe.mult == ge.mult == (ge.psl2 + 1), params, pe, ge)
            _expect(pe.obj == ge.obj and pe.lowest_weight == ge.lowest_weight, params, pe, ge)
        # Entry n is graded by V_{2n-2}: its multiplicity is the dimension of
        # `sl2rep`'s irreducible, on V_0..V_10, the weights the sl2rep suite
        # builds.
        for n, entry in enumerate(plain[:6], start=1):
            dim = len(sl2rep.build_irrep(2 * n - 2).h)
            _expect(entry.mult == dim, params, "entry", n, entry, "is not graded by dim", dim)
        # The contragredient is the even part of the sl2 dictionary: entry n
        # is L_{2n-2}, with K'_{1,1} = L_0 at n = 1.
        for n, entry in enumerate(wpq.decompose_wprime(params, 20), start=1):
            _expect(entry.obj == sl2_index_to_obj(params, 2 * n - 2), params, n, entry)
            _expect(entry.psl2 == 2 * n - 2 and entry.mult == 2 * n - 1, params, n, entry)
            four_h = sl2_weight_numerator(params, 2 * n - 2)
            _expect(4 * entry.lowest_weight == four_h, params, n, entry, "4h !=", four_h)
            h = conformal_weight(params, entry.obj.label) if n > 1 else 0
            _expect(entry.lowest_weight == h, params, n, entry, "has not the weight", h)


@_property("wpq")
def ideal_and_quotient_bookkeeping():
    for params in TEST_PARAMS:
        full = wpq.decompose_wpq(params, 10)
        ideal = wpq.decompose_ideal(params, 10)
        _expect(full[0].obj == kac_k(1, 1), params, "first entry", full[0])
        _expect(full[1:] == ideal[1:], params, "full and ideal differ past entry 0")
        k11 = kacmod.kac_length2_seq(params, kac_k(1, 1))
        socle = k11.sub
        _expect(ideal[0].obj == socle, params, "ideal starts at", ideal[0], "not", socle)
        _expect(ideal[0].lowest_weight == conformal_weight(params, socle.label), params, ideal[0])
        _expect(ideal[0].lowest_weight == (params.p - 1) * (params.q - 1), params, ideal[0])
        # Ideal plus the simple quotient L_{1,1} accounts for all factors
        # of the full algebra: K_{1,1} = socle + L_{1,1}.
        quot = k11.quot
        _expect(quot == simple_l(1, 1), params, "quotient of K_{1,1} is", quot)
        full_factors = expanded_factor_multiset(
            params, fusion.decomp_from_pairs((e.mult, e.obj) for e in full)
        )
        ideal_factors = Counter(
            {canonical_label(params, e.obj.label): e.mult for e in ideal}
        )
        ideal_factors[canonical_label(params, quot.label)] += 1
        _expect(full_factors == ideal_factors, params, full_factors, "!=", ideal_factors)


@_property("wpq")
def multiplicity_totals_square():
    for params in TEST_PARAMS:
        for n_max in (2, 3, 5, 10, 20):
            total = sum(e.mult for e in wpq.decompose_wpq(params, n_max))
            _expect(total == n_max * n_max, params, "n_max =", n_max, ": total", total)
            graded = sum(e.psl2 + 1 for e in wpq.decompose_wpq_equivariant(params, n_max))
            _expect(graded == n_max * n_max, params, "n_max =", n_max, ": graded total", graded)


@_property("wpq")
def o0_weight_identity_integral():
    # h_{1,2nq-2} - h_{1,2} from the three-term oracle's numerators, as the
    # quotient and remainder of their difference by 4pq: the remainder is 0,
    # the quotient is (np-1)(nq-2), and `wpq`'s quotient and integrality
    # flag are the same.
    for params in TEST_PARAMS:
        p, q = params.p, params.q
        h12 = weight_numerator_oracle(params, VirLabel(1, 2))
        rows = wpq.o0_weight_identity(params, 20)
        _expect([n for n, _, _ in rows] == list(range(2, 21)), params, "rows", rows)
        for n, diff, flag in rows:
            oracle = weight_numerator_oracle(params, VirLabel(1, 2 * n * q - 2))
            quotient, rem = divmod(oracle - h12, 4 * p * q)
            expected = (n * p - 1) * (n * q - 2)
            _expect(rem == 0 and quotient == expected, params, "n =", n, ":", quotient, rem)
            _expect((diff, flag) == (quotient, True), params, "n =", n, ":", diff, flag)


# --- runners ----------------------------------------------------------------


def _check(name: str, fn) -> Result:
    try:
        fn()
        return (name, True, "")
    except Exception as exc:  # noqa: BLE001 - a failed property is the payload here
        return (name, False, f"{type(exc).__name__}: {exc}")


def _run(suite: str) -> list[Result]:
    return [_check(name, fn) for name, fn in PROPERTIES[suite].items()]


def run_suites(names: list[str]) -> list[tuple[str, Result]]:
    out = []
    for name in names:
        for result in _run(name):
            out.append((name, result))
    return out
