"""The exact properties behind `triplet verify`, registered once.

Each property re-checks one structural identity of one module with exact
arithmetic and no tolerance: it holds on its whole stated range or it
fails; there is nothing to calibrate.  ``PROPERTIES`` is the ordered
registry, suite by suite, of zero-argument checks that raise on failure.
The ``suite_<name>`` runners, ``triplet verify`` and the test suite all read
it, so no check is written twice.  A property that samples seeds its own
generator and checks the same values alone as inside its suite.

The checks are ``assert`` statements, which ``python -O`` strips; the CLI
refuses to run them there.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from fractions import Fraction

from . import braidfmat, fusion, kacmod, linalg, sl2rep, wpq
from .exactnum import ParamScalar, Phase
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


# --- exactnum ---------------------------------------------------------------


def _rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


@_property("exactnum")
def rat_addition_exact():
    rng = random.Random(20241)
    for _ in range(200):
        a, b = _rand_rat(rng), _rand_rat(rng)
        assert (a + b) - b == a


@_property("exactnum")
def phase_abelian_group():
    rng = random.Random(20242)
    # Exponents from [-2, 2) so that the reduction mod 2 is exercised too.
    exps = [Fraction(n, d) for d in (1, 2, 3, 4, 5, 12, 48) for n in range(-2 * d, 2 * d)]
    sample = [Phase(e) for e in exps]
    one = Phase(Fraction(0))
    for a in sample:
        assert a * one == a
        order = 2 * a.exponent.denominator
        assert (a**order).is_one()
    for _ in range(200):
        a, b, c = (rng.choice(sample) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def _nonzero_rand_rat(rng: random.Random) -> Fraction:
    x = _rand_rat(rng)
    while not x:
        x = _rand_rat(rng)
    return x


@_property("exactnum")
def param_scalar_evaluation_hom():
    rng = random.Random(20243)
    t = ParamScalar.t()
    for _ in range(100):
        a, b, c, d = (_rand_rat(rng) for _ in range(4))
        f = ParamScalar.const(a) + t * b + ParamScalar.const(c) / t
        g = ParamScalar.const(d) / (t * t) + t
        t0, e = _nonzero_rand_rat(rng), _nonzero_rand_rat(rng)
        assert (f * g).eval(t0) == f.eval(t0) * g.eval(t0)
        assert (f + g).eval(t0) == f.eval(t0) + g.eval(t0)
        assert (f - g).eval(t0) == f.eval(t0) - g.eval(t0)
        assert (f / (t * e)).eval(t0) == f.eval(t0) / (e * t0)


# --- virasoro ---------------------------------------------------------------


def conformal_weight_oracle(params: Params, lbl: VirLabel) -> Fraction:
    """h_{r,s} = (r^2-1)q/4p - (rs-1)/2 + (s^2-1)p/4q, term by term."""
    p, q = params.p, params.q
    r, s = lbl.r, lbl.s
    return (
        Fraction((r * r - 1) * q, 4 * p)
        - Fraction(r * s - 1, 2)
        + Fraction((s * s - 1) * p, 4 * q)
    )


@_property("virasoro")
def weight_translation_symmetry():
    for params in TEST_PARAMS:
        for r in range(1, 51):
            for s in range(1, 51):
                lbl = VirLabel(r, s)
                shifted = VirLabel(r + params.p, s + params.q)
                assert conformal_weight(params, lbl) == conformal_weight(params, shifted)
                if r <= 20 and s <= 20:
                    assert conformal_weight(params, lbl) == conformal_weight_oracle(params, lbl)


@_property("virasoro")
def canonical_label_idempotent_and_weight_preserving():
    for params in TEST_PARAMS:
        for r in range(1, 41):
            for s in range(1, 41):
                lbl = VirLabel(r, s)
                can = canonical_label(params, lbl)
                assert can.r >= 1 and 1 <= can.s <= params.q
                assert params.q * can.r >= params.p * can.s
                assert canonical_label(params, can) == can
                assert conformal_weight(params, can) == conformal_weight(params, lbl)


@_property("virasoro")
def family_weight_identities():
    for params in TEST_PARAMS:
        p, q = params.p, params.q
        for n in range(1, 21):
            assert conformal_weight(params, VirLabel(2 * n * p - 1, 1)) == (n * p - 1) * (
                n * q - 1
            )
            assert conformal_weight(params, VirLabel(n * p - 1, 1)) == Fraction(
                (n * p - 2) * (n * q - 2), 4
            )


# --- kacmod -----------------------------------------------------------------


def expanded_factor_multiset(params: Params, decomp: fusion.DecompList) -> Counter:
    """Composition factors of a decomposition, expanding K'_{1,1}."""
    out: Counter = Counter()
    for entry in decomp.entries:
        factors = kacmod.composition_factors(params, entry.obj)
        for lbl, mult in factors.items():
            out[lbl] += mult * entry.mult
    return out


@_property("kacmod")
def diagram_node_counts_layers_distinct_weights():
    for params in TEST_PARAMS:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                assert len(d.nodes) == 4 * n - 2
                sizes = tuple(len(d.layer_labels(layer)) for layer in ("top", "middle", "socle"))
                assert sizes == (n - 1, 2 * n - 1, n)
                canon = [canonical_label(params, node.label) for node in d.nodes]
                assert len(set(canon)) == len(canon)
                ref = VirLabel(m * params.p - 1, n * params.q - 1)
                assert kacmod.diagram_weights_congruent(params, d, ref)
                has_l11 = VirLabel(1, 1) in d.layer_labels("middle")
                assert has_l11 == (m == n)


@_property("kacmod")
def diagram_edges_respect_layers():
    for params in TEST_PARAMS[:2]:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                order = {"top": 0, "middle": 1, "socle": 2}
                for src, dst in d.edges:
                    assert order[d.node_by_id(dst).layer] == order[d.node_by_id(src).layer] + 1


@_property("kacmod")
def diagram_vs_fusion_factor_multisets():
    for params in TEST_PARAMS:
        for m in range(2, 7):
            for n in range(2, m + 1):
                d = kacmod.kac_mm_nn_diagram(params, m, n)
                top = Counter(canonical_label(params, lbl) for lbl in d.layer_labels("top"))
                if m == n:
                    top[canonical_label(params, VirLabel(1, 1))] += 1
                fused = expanded_factor_multiset(params, fusion.fuse_L_family(params, m, n))
                assert top == fused, f"(m,n)=({m},{n}): {top} != {fused}"


@_property("kacmod")
def simple_quotient_list_shapes():
    for params in TEST_PARAMS:
        for m in range(2, 7):
            for n in range(2, m + 1):
                top = kacmod.simple_quotients(params, "top_mm_nn", m, n)
                assert top == kacmod.kac_mm_nn_diagram(params, m, n).layer_labels("top")
                assert len(kacmod.simple_quotients(params, "mp_plus1", m, n)) == n - 1
                col = kacmod.simple_quotients(params, "mp_minus1_nq_plus1", m, n)
                assert len(col) == (n if m > n else n - 1)


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


@_property("fusion")
def fuse_C_equals_cg_oracle():
    for m in range(13):
        for n in range(13):
            assert fusion.fuse_C(m, n) == fusion.cg_oracle(m, n)


@_property("fusion")
def fusion_ring_commutative_associative():
    params = Params(2, 3)
    basis = [
        fusion.decomp_from_pairs([(1, fusion.sl2_index_to_obj(params, k))]) for k in range(11)
    ]
    prod = lambda x, y: fusion.fusion_ring_product(params, x, y)
    for a in basis:
        for b in basis:
            assert prod(a, b) == prod(b, a) == fusion_ring_product_oracle(params, a, b)
    for a in basis:
        for b in basis:
            for c in basis:
                assert prod(prod(a, b), c) == prod(a, prod(b, c))


@_property("fusion")
def dimension_grading():
    for m in range(13):
        for n in range(13):
            assert sum(k + 1 for k in fusion.fuse_C(m, n)) == (m + 1) * (n + 1)


@_property("fusion")
def even_subring_closed():
    for m in range(0, 13, 2):
        for n in range(0, 13, 2):
            assert all(k % 2 == 0 for k in fusion.fuse_C(m, n))


# --- braidfmat --------------------------------------------------------------


@_property("braidfmat")
def squared_r_scalars_equal_balancing():
    for params in TEST_PARAMS:
        for n in range(9):
            balancing = braidfmat.balancing_check(params, n)
            for k in fusion.fuse_C(n, n):
                if k > 8:
                    continue
                formula = braidfmat.r_scalar_formula(params, n, k)
                assert formula**2 == balancing[k]
        for k in (0, 2):
            table = braidfmat.r_scalar_table(params, 1, k)
            assert table**2 == braidfmat.balancing_check(params, 1)[k]


@_property("braidfmat")
def balancing_n1_is_parity_sign():
    for params in TEST_PARAMS:
        eps = Fraction((-1) ** (params.p * params.q))
        for k in (0, 2):
            assert braidfmat.balancing_check(params, 1)[k].as_rat_sign() == eps


@_property("braidfmat")
def hexagon_solutions_zero_residual():
    for params in TEST_PARAMS:
        for sol in braidfmat.hexagon_solutions(params):
            residual = braidfmat.hexagon_residual(params, sol.matrix)
            assert all(ParamScalar.coerce(x).is_zero() for x in residual.entries())


@_property("braidfmat")
def hexagon_sign_flip_invariance():
    for params in TEST_PARAMS:
        r0 = braidfmat.r_scalar_table(params, 1, 0)
        r2 = braidfmat.r_scalar_table(params, 1, 2)
        flipped0 = Phase(r0.exponent + 1)
        flipped2 = Phase(r2.exponent + 1)
        signs = braidfmat.hexagon_sign_matrix(r0, r2)
        assert signs == braidfmat.hexagon_sign_matrix(flipped0, flipped2)
        eps = Fraction((-1) ** (params.p * params.q))
        assert signs == ((eps, -eps), (-eps, eps))
        # The weight-formula convention is one of the two flips, so it
        # derives the same matrix equation.
        f0 = braidfmat.r_scalar_formula(params, 1, 0)
        f2 = braidfmat.r_scalar_formula(params, 1, 2)
        assert braidfmat.hexagon_sign_matrix(f0, f2) == signs


@_property("braidfmat")
def intrinsic_dimensions():
    for params in TEST_PARAMS:
        eps = (-1) ** (params.p * params.q)
        dims = [
            braidfmat.intrinsic_dimension(sol, params)
            for sol in braidfmat.hexagon_solutions(params)
        ]
        assert dims == [Fraction(eps), Fraction(-2 * eps)]
        assert all(d in (1, -1, 2, -2) for d in dims)


# --- sl2rep -----------------------------------------------------------------


def invariant_form_oracle(n: int) -> tuple:
    """The invariant form on V_n by brute force, as a matrix of tuples.

    Solves X^T B + B X = 0 for X in {E,F,H} as one linear system and raises
    unless the solution space is one-dimensional.  Normalized so the pairing
    of the highest- and lowest-weight vectors is 1.
    """
    rep = sl2rep.build_irrep(n)
    dim = n + 1
    rows: list[list[Fraction]] = []
    for mat in (rep.e, rep.f, rep.h):
        x = [list(r) for r in mat]
        # (X^T B + B X)[i][j] = sum_k X[k][i] B[k][j] + B[i][k] X[k][j]
        for i in range(dim):
            for j in range(dim):
                row = [Fraction(0)] * (dim * dim)
                for k in range(dim):
                    if x[k][i]:
                        row[k * dim + j] += x[k][i]
                    if x[k][j]:
                        row[i * dim + k] += x[k][j]
                if any(row):
                    rows.append(row)
    # n = 0 imposes no constraints; keep the column count visible.
    basis = linalg.nullspace(rows or [[Fraction(0)] * (dim * dim)])
    if len(basis) != 1:
        raise AssertionError(
            f"invariant-form space of V_{n} has dimension {len(basis)}, expected 1"
        )
    flat = basis[0]
    b = [[flat[i * dim + j] for j in range(dim)] for i in range(dim)]
    top = b[0][dim - 1]
    if top == 0:
        raise AssertionError("invariant form does not pair highest against lowest")
    b = [[x / top for x in row] for row in b]
    _, pivots = linalg.rref(b)
    if len(pivots) != dim:
        raise AssertionError(f"invariant form on V_{n} is degenerate")
    return tuple(tuple(row) for row in b)


def _kron_sum(a: list, b: list) -> list:
    """a (x) I + I (x) b on the basis e_i (x) e_j -> i*dim_b + j."""
    da, db = len(a), len(b)
    out = linalg.zeros(da * db, da * db)
    for i in range(da):
        for j in range(db):
            row = out[i * db + j]
            for k in range(da):
                if a[i][k]:
                    row[k * db + j] += a[i][k]
            for k in range(db):
                if b[j][k]:
                    row[i * db + k] += b[j][k]
    return out


def cg_system_oracle(m: int, n: int) -> dict[int, tuple[tuple, tuple]]:
    """The Clebsch-Gordan system of V_m (x) V_n by dense elimination.

    Same layout as `sl2rep._cg_system`: channels from `cg_oracle`, each
    highest-weight vector from the nullspace of the full E on its weight
    space, F applied as a dense matrix, and projections from the dense
    inverse of the whole change-of-basis matrix.
    """
    rep_m = sl2rep.build_irrep(m)
    rep_n = sl2rep.build_irrep(n)
    dim = (m + 1) * (n + 1)
    e_t = _kron_sum([list(r) for r in rep_m.e], [list(r) for r in rep_n.e])
    f_t = _kron_sum([list(r) for r in rep_m.f], [list(r) for r in rep_n.f])
    channels = fusion.cg_oracle(m, n)

    def weight_indices(w: int) -> list[int]:
        out = []
        for a in range(m + 1):
            for b in range(n + 1):
                if (m - 2 * a) + (n - 2 * b) == w:
                    out.append(a * (n + 1) + b)
        return out

    columns: list[list[Fraction]] = []
    blocks: dict[int, tuple[int, int]] = {}
    for k in channels:
        idx = weight_indices(k)
        restricted = [[e_t[i][j] for j in idx] for i in range(dim)]
        basis = linalg.nullspace(
            [row for row in restricted if any(row)] or [[Fraction(0)] * len(idx)]
        )
        if len(basis) != 1:
            raise AssertionError(
                f"channel {k} of V_{m} (x) V_{n} has multiplicity {len(basis)}, expected 1"
            )
        vec = [Fraction(0)] * dim
        for pos, coeff in zip(idx, basis[0]):
            vec[pos] = coeff
        lead = next(x for x in vec if x)
        vec = [x / lead for x in vec]
        start = len(columns)
        columns.append(vec)
        for _ in range(k):
            vec = linalg.mat_vec(f_t, vec)
            columns.append(vec)
        blocks[k] = (start, start + k + 1)

    change = [list(row) for row in zip(*columns)]  # dim x dim, blocks as columns
    inverse = linalg.invert(change)
    out: dict[int, tuple[tuple, tuple]] = {}
    for k in channels:
        start, stop = blocks[k]
        incl = [[change[i][c] for c in range(start, stop)] for i in range(dim)]
        proj = [inverse[c] for c in range(start, stop)]
        out[k] = (tuple(tuple(r) for r in proj), tuple(tuple(r) for r in incl))
    return out


def bracket(a: list, b: list) -> list:
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def check_brackets(rep: sl2rep.Irrep) -> bool:
    """[H,E] = 2E, [H,F] = -2F, [E,F] = H, exactly."""
    e = [list(r) for r in rep.e]
    f = [list(r) for r in rep.f]
    h = [list(r) for r in rep.h]
    two_e = [[2 * x for x in row] for row in e]
    minus_two_f = [[-2 * x for x in row] for row in f]
    return (
        linalg.is_zero_matrix(linalg.mat_sub(bracket(h, e), two_e))
        and linalg.is_zero_matrix(linalg.mat_sub(bracket(h, f), minus_two_f))
        and linalg.is_zero_matrix(linalg.mat_sub(bracket(e, f), h))
    )


@_property("sl2rep")
def bracket_relations():
    for n in range(11):
        assert check_brackets(sl2rep.build_irrep(n))


@_property("sl2rep")
def invariant_form_unique_nondegenerate_symmetry():
    for n in range(11):
        form = sl2rep.invariant_form(n)
        if n <= 8:
            # The oracle raises unless the solution space is 1-dim.
            assert form.matrix == invariant_form_oracle(n), f"n={n}"
        b = [list(r) for r in form.matrix]
        _, pivots = linalg.rref(b)
        assert len(pivots) == n + 1
        sign = 1 if n % 2 == 0 else -1
        if n <= 6:
            assert all(b[i][j] == sign * b[j][i] for i in range(n + 1) for j in range(n + 1))


@_property("sl2rep")
def cg_biorthogonality_and_completeness():
    # With every channel's projection rows stacked into P and inclusion
    # columns into I, biorthogonality of all channel pairs is P*I == Id and
    # completeness is I*P == Id.
    for m in range(7):
        for n in range(7):
            if m <= 5 and n <= 5:
                assert sl2rep._cg_system(m, n) == cg_system_oracle(m, n), f"(m,n)=({m},{n})"
            dim = (m + 1) * (n + 1)
            stacked_proj: list = []
            stacked_incl: list = [[] for _ in range(dim)]
            for k in fusion.cg_oracle(m, n):
                proj_k, incl_k = sl2rep.cg_maps(m, n, k)
                stacked_proj += proj_k
                for row, part in zip(stacked_incl, incl_k):
                    row += part
            assert linalg.mat_mul(stacked_proj, stacked_incl) == linalg.identity(dim)
            assert linalg.mat_mul(stacked_incl, stacked_proj) == linalg.identity(dim)


@_property("sl2rep")
def unit_channel_projection_is_bilinear_form():
    # The invariant pairing spans the one-dimensional space of unit-channel
    # functionals, so the channel-0 projection must be proportional to it.
    for n in range(1, 4):
        proj, _ = sl2rep.cg_maps(2 * n, 2 * n, 0)
        b = [list(r) for r in sl2rep.invariant_form(2 * n).matrix]
        dim = 2 * n + 1
        flat = [b[i][j] for i in range(dim) for j in range(dim)]
        row = proj[0]
        ratio = None
        for x, y in zip(row, flat):
            if (x == 0) != (y == 0):
                raise AssertionError("projection and pairing have different supports")
            if x:
                if ratio is None:
                    ratio = x / y
                assert x == ratio * y
        assert ratio is not None and ratio != 0


@_property("sl2rep")
def simplicity_witnesses_exist():
    rng = random.Random(20240 + 4)
    for _ in range(100):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        if all(x == 0 for x in v):
            v[rng.randrange(5)] = Fraction(1)
        w = sl2rep.simplicity_witness(2, v)
        assert sl2rep.invariant_form(4).pair(w, v) != 0


# --- wpq --------------------------------------------------------------------


@_property("wpq")
def truncations_are_prefixes():
    for params in TEST_PARAMS:
        big = wpq.decompose_wpq(params, 12)
        for n_max in range(2, 12):
            small = wpq.decompose_wpq(params, n_max)
            assert small.entries == big.entries[: len(small.entries)]


@_property("wpq")
def equivariant_dimension_agreement():
    for params in TEST_PARAMS:
        plain = wpq.decompose_wpq(params, 20)
        graded = wpq.decompose_wpq_equivariant(params, 20)
        assert len(plain.entries) == len(graded.entries)
        for pe, ge in zip(plain.entries, graded.entries):
            assert pe.mult == ge.mult == (ge.psl2 + 1)
            assert pe.obj == ge.obj and pe.lowest_weight == ge.lowest_weight


@_property("wpq")
def ideal_and_quotient_bookkeeping():
    for params in TEST_PARAMS:
        full = wpq.decompose_wpq(params, 10)
        ideal = wpq.decompose_ideal(params, 10)
        assert full.entries[0].obj == kac_k(1, 1)
        assert full.entries[1:] == ideal.entries[1:]
        socle = kacmod.kac_length2_seq(params, "k11").sub
        assert ideal.entries[0].obj == socle
        assert ideal.entries[0].lowest_weight == conformal_weight(params, socle.label)
        assert ideal.entries[0].lowest_weight == (params.p - 1) * (params.q - 1)
        # Ideal plus the simple quotient L_{1,1} accounts for all factors
        # of the full algebra: K_{1,1} = socle + L_{1,1}.
        quot = kacmod.kac_length2_seq(params, "k11").quot
        assert quot == simple_l(1, 1)
        full_factors = expanded_factor_multiset(
            params, fusion.decomp_from_pairs((e.mult, e.obj) for e in full.entries)
        )
        ideal_factors = Counter(
            {canonical_label(params, e.obj.label): e.mult for e in ideal.entries}
        )
        ideal_factors[canonical_label(params, quot.label)] += 1
        assert full_factors == ideal_factors


@_property("wpq")
def multiplicity_totals_square():
    for params in TEST_PARAMS:
        for n_max in (2, 3, 5, 10, 20):
            total = sum(e.mult for e in wpq.decompose_wpq(params, n_max).entries)
            assert total == n_max * n_max
            graded = wpq.decompose_wpq_equivariant(params, n_max)
            assert sum(e.psl2 + 1 for e in graded.entries) == n_max * n_max


@_property("wpq")
def o0_weight_identity_integral():
    for params in TEST_PARAMS:
        for n, diff, flag in wpq.o0_weight_identity(params, 20):
            assert flag and diff.denominator == 1 and diff >= 0
            assert diff == (n * params.p - 1) * (n * params.q - 2)


# --- runners ----------------------------------------------------------------


def _check(name: str, fn) -> Result:
    try:
        fn()
        return (name, True, "")
    except Exception as exc:  # noqa: BLE001 - a failed property is the payload here
        return (name, False, f"{type(exc).__name__}: {exc}")


def _run(suite: str) -> list[Result]:
    return [_check(name, fn) for name, fn in PROPERTIES[suite].items()]


def suite_exactnum() -> list[Result]:
    return _run("exactnum")


def suite_virasoro() -> list[Result]:
    return _run("virasoro")


def suite_kacmod() -> list[Result]:
    return _run("kacmod")


def suite_fusion() -> list[Result]:
    return _run("fusion")


def suite_braidfmat() -> list[Result]:
    return _run("braidfmat")


def suite_sl2rep() -> list[Result]:
    return _run("sl2rep")


def suite_wpq() -> list[Result]:
    return _run("wpq")


SUITES = {
    "exactnum": suite_exactnum,
    "virasoro": suite_virasoro,
    "kacmod": suite_kacmod,
    "fusion": suite_fusion,
    "braidfmat": suite_braidfmat,
    "sl2rep": suite_sl2rep,
    "wpq": suite_wpq,
}


def run_suites(names: list[str]) -> list[tuple[str, Result]]:
    out = []
    for name in names:
        for result in SUITES[name]():
            out.append((name, result))
    return out
