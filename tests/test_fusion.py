"""Fusion products against the character oracle, and the ring laws."""

import random
from collections import Counter

import pytest

from conftest import mutant
from triplet import fusion, verify
from triplet.base import CACHE_SIZE
from triplet.fusion import (
    DecompEntry,
    DecompList,
    decomp_from_pairs,
    fuse_C,
    fuse_L_family,
    fusion_ring_product,
)
from triplet.kacmod import UnsupportedObjectError
from triplet.verify import PROPERTIES, cg_oracle, fusion_ring_product_oracle
from triplet.virasoro import (
    ObjLabel,
    Params,
    VirLabel,
    kac_dual_k11,
    kac_k,
    simple_l,
    sl2_index_to_obj,
)

PAIRS = [Params(2, 3), Params(3, 4), Params(2, 5), Params(3, 5), Params(4, 5)]
ZERO = DecompList(())


def one(obj) -> DecompList:
    return decomp_from_pairs([(1, obj)])


def test_fuse_C_examples():
    assert fuse_C(1, 1) == [0, 2]
    assert fuse_C(0, 5) == [5]
    assert fuse_C(3, 4) == [1, 3, 5, 7]


def test_cg_oracle_examples():
    assert cg_oracle(1, 1) == [0, 2]
    assert cg_oracle(2, 2) == [0, 2, 4]
    for m in range(8):
        assert cg_oracle(m, 0) == [m]
    with pytest.raises(ValueError, match=r"indices must be >= 0, got \(-1,2\)"):
        cg_oracle(-1, 2)


def test_cg_oracle_fails_loudly_when_peeling_fails(monkeypatch):
    # A wrong irreducible character of V_2 (two degrees too wide) peels more
    # than the product V_1 (x) V_1 holds.
    right = verify._weyl_character
    monkeypatch.setattr(
        verify,
        "_weyl_character",
        lambda n: {d: 1 for d in range(-n - 2, n + 3, 2)} if n == 2 else right(n),
    )
    with pytest.raises(AssertionError, match="character peeling failed at degree 4"):
        cg_oracle(1, 1)


@pytest.mark.parametrize(
    "name", ["fuse_C_equals_cg_oracle", "dimension_grading", "even_subring_closed"]
)
def test_fuse_C_properties_catch_a_wrong_channel(name, monkeypatch):
    # Wrong only at (4,6), inside every property's range: the lowest channel
    # is raised by 1, which breaks the oracle, the dimension count and parity.
    right = fusion.fuse_C

    def wrong(m, n):
        out = right(m, n)
        return [out[0] + 1] + out[1:] if (m, n) == (4, 6) else out

    monkeypatch.setattr(fusion, "fuse_C", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["fusion"][name]()


def test_even_subring_property_catches_odd_channels_of_even_labels(monkeypatch):
    # The ring product's channels start one above |i-j|: `fuse_C` is
    # untouched, so only the closure check on labels sees the odd entries.
    wrong = mutant(fusion.fusion_ring_product, "range(abs(ia - ib),", "range(abs(ia - ib) + 1,")
    monkeypatch.setattr(fusion, "fusion_ring_product", wrong)
    with pytest.raises(AssertionError, match=r"\*"):
        PROPERTIES["fusion"]["even_subring_closed"]()


def test_fuse_L_family_examples():
    for params in PAIRS:
        p = params.p
        assert fuse_L_family(params, 2, 2) == one(kac_dual_k11())
        assert fuse_L_family(params, 3, 2) == one(simple_l(3 * p - 1, 1))
        assert fuse_L_family(params, 3, 3) == decomp_from_pairs(
            [(1, kac_dual_k11()), (1, simple_l(4 * p - 1, 1))]
        )
        assert fuse_L_family(params, 2, 3) == fuse_L_family(params, 3, 2)
    # The stated rule: L_{ip-1,1} for i = |m-n|+2, ..., m+n-2 in steps of 2,
    # with K'_{1,1} in place of i = 2 (which occurs exactly when m = n).
    for params in PAIRS:
        for m in range(2, 13):
            for n in range(2, 13):
                stated = [
                    kac_dual_k11() if i == 2 else simple_l(i * params.p - 1, 1)
                    for i in range(abs(m - n) + 2, m + n - 1, 2)
                ]
                assert fuse_L_family(params, m, n) == decomp_from_pairs((1, o) for o in stated)
    with pytest.raises(ValueError):
        fuse_L_family(Params(2, 3), 1, 2)


def test_fusion_ring_annihilation_and_unit():
    for params in PAIRS:
        p = params.p
        l11 = one(simple_l(1, 1))
        socle = one(simple_l(2 * p - 1, 1))
        unit = one(kac_dual_k11())
        l1 = one(simple_l(3 * p - 1, 1))
        assert fusion_ring_product(params, l11, socle) == ZERO
        assert fusion_ring_product(params, l11, l1) == ZERO
        assert fusion_ring_product(params, l11, unit) == ZERO
        assert fusion_ring_product(params, unit, l1) == l1
        assert fusion_ring_product(params, socle, l1) == l1
        assert fusion_ring_product(params, socle, socle) == unit


def test_fusion_ring_associativity_example():
    params = Params(2, 3)
    l1 = one(sl2_index_to_obj(params, 1))
    l2 = one(sl2_index_to_obj(params, 2))
    lhs = fusion_ring_product(params, fusion_ring_product(params, l1, l1), l2)
    rhs = fusion_ring_product(params, l1, fusion_ring_product(params, l1, l2))
    assert lhs == rhs
    expected = decomp_from_pairs(
        [(1, sl2_index_to_obj(params, 0)), (2, sl2_index_to_obj(params, 2)), (1, sl2_index_to_obj(params, 4))]
    )
    assert lhs == expected


def test_fusion_ring_laws_catch_a_wrong_reused_product(monkeypatch):
    # Only the associativity step multiplies a left operand with several
    # entries, and there one side reuses a basis product computed earlier.
    right = fusion.fusion_ring_product
    wrong_calls = []

    def wrong(params, a, b):
        out = right(params, a, b)
        if len(a.entries) < 2:
            return out
        wrong_calls.append((a, b))
        first = out.entries[0]
        return DecompList((DecompEntry(first.mult + 1, first.obj),) + out.entries[1:])

    monkeypatch.setattr(fusion, "fusion_ring_product", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["fusion"]["fusion_ring_commutative_associative"]()
    assert len(wrong_calls) == 1


def _wrong_at_one_operand_pair(monkeypatch, left, right):
    """Make fusion_ring_product wrong, by one extra unit, exactly when its
    operands equal (left, right) as values."""
    correct = fusion.fusion_ring_product
    wrong_calls = []

    def wrong(params, a, b):
        out = correct(params, a, b)
        if (a, b) != (left, right):
            return out
        wrong_calls.append((a, b))
        first = out.entries[0]
        return DecompList((DecompEntry(first.mult + 1, first.obj),) + out.entries[1:])

    monkeypatch.setattr(fusion, "fusion_ring_product", wrong)
    return wrong_calls


def test_fusion_ring_laws_catch_one_wrong_distinct_left_product(monkeypatch):
    # (ab)c is computed once per {a, b} and c: with a = L_1, b = L_3 at (1,3,2)
    # and read back at (3,1,2).  One wrong (ab)c with a != b must still fail.
    params = Params(2, 3)
    basis = [one(sl2_index_to_obj(params, k)) for k in range(11)]
    ab = fusion_ring_product(params, basis[1], basis[3])
    assert len(ab.entries) == 2
    wrong_calls = _wrong_at_one_operand_pair(monkeypatch, ab, basis[2])
    with pytest.raises(AssertionError, match=r"^\(ab\)c != a\(bc\) at \(1, 3, 2\) :"):
        PROPERTIES["fusion"]["fusion_ring_commutative_associative"]()
    assert len(wrong_calls) == 1


def test_fusion_ring_laws_catch_one_wrong_distinct_right_product(monkeypatch):
    # a(bc) is computed once per a and {b, c}: with a = L_2 and bc = L_1 L_3
    # at (2,1,3), read back at (2,3,1).
    params = Params(2, 3)
    basis = [one(sl2_index_to_obj(params, k)) for k in range(11)]
    bc = fusion_ring_product(params, basis[1], basis[3])
    wrong_calls = _wrong_at_one_operand_pair(monkeypatch, basis[2], bc)
    with pytest.raises(AssertionError, match=r"^\(ab\)c != a\(bc\) at \(2, 1, 3\) :"):
        PROPERTIES["fusion"]["fusion_ring_commutative_associative"]()
    assert len(wrong_calls) == 1


def test_fusion_ring_laws_compute_each_distinct_product_once(monkeypatch):
    # 2 x 121 basis products (ab and ba), then 66 x 11 distinct (ab)c and
    # 11 x 66 distinct a(bc): 242 + 1,452 calls, against 242 + 2 x 1,331.
    correct = fusion.fusion_ring_product
    calls = []

    def counted(params, a, b):
        calls.append((a, b))
        return correct(params, a, b)

    monkeypatch.setattr(fusion, "fusion_ring_product", counted)
    PROPERTIES["fusion"]["fusion_ring_commutative_associative"]()
    assert len(calls) == 242 + 1452


def test_fusion_ring_laws_catch_a_channel_range_from_the_wrong_start(monkeypatch):
    # The sl2 x sl2 channel range is written inline; starting it at |a-b|+2
    # drops the lowest channel of every basis product.
    wrong = mutant(fusion.fusion_ring_product, "range(abs(ia - ib),", "range(abs(ia - ib) + 2,")
    monkeypatch.setattr(fusion, "fusion_ring_product", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["fusion"]["fusion_ring_commutative_associative"]()


def _class_pool(params):
    """Entries with their expected class: each kind fusion_ring_product sees."""
    p, q = params.p, params.q
    pool = [
        (kac_dual_k11(), 0),
        (simple_l(1, 1), fusion._L11),
        (simple_l(2 * p - 1, 1), fusion._SOCLE),
        (kac_k(1, 2), None),
        # Unsupported simple labels: s = 1 off the family, and s = 2.
        (simple_l(p, 1), None),
        (simple_l(q, 2), None),
    ]
    for n in range(1, 6):
        r = (n + 2) * p - 1
        # L_n as spelled by the dictionary, translated, and reflected.
        k = n + 3
        pool += [
            (simple_l(r, 1), n),
            (simple_l(r + p, 1 + q), n),
            (simple_l(k * p - r, k * q - 1), n),
        ]
    return pool


def test_entry_class_cache_is_bounded_and_equals_the_uncached_path():
    cache = fusion._entry_class
    assert cache.cache_info().maxsize == CACHE_SIZE
    cache.cache_clear()
    for params in verify.TEST_PARAMS:
        pool = _class_pool(params) + [(sl2_index_to_obj(params, n), n) for n in range(301)]
        for obj, expected in pool:
            uncached = cache.__wrapped__(params.p, params.q, obj)
            assert cache(params.p, params.q, obj) == uncached == expected, (params, obj)
    info = cache.cache_info()
    assert info.currsize == CACHE_SIZE
    cache(params.p, params.q, sl2_index_to_obj(params, 300))
    assert cache.cache_info().hits == info.hits + 1
    cache.cache_clear()


def test_interned_product_entries_equal_freshly_built_ones():
    # Each product entry is the cached object of its (p, k, mult); a fresh
    # DecompEntry with a fresh label equals it and hashes alike, so the
    # comparisons against the oracle see the same values as before.
    for params in PAIRS:
        sums = [one(sl2_index_to_obj(params, k)) for k in range(6)]
        pairs = [(2, sl2_index_to_obj(params, 1)), (3, sl2_index_to_obj(params, 2))]
        sums.append(decomp_from_pairs(pairs))
        for a in sums:
            for b in sums:
                out = fusion_ring_product(params, a, b)
                again = fusion_ring_product(params, a, b)
                assert all(x is y for x, y in zip(out.entries, again.entries))
                for entry in out.entries:
                    obj = entry.obj
                    label = None if obj.label is None else VirLabel(obj.label.r, obj.label.s)
                    fresh = DecompEntry(entry.mult, ObjLabel(obj.kind, label))
                    assert type(entry) is DecompEntry and fresh.obj is not obj
                    assert entry == fresh and fresh == entry and hash(entry) == hash(fresh)
                assert out == fusion_ring_product_oracle(params, a, b)
    assert fusion._sl2_entry.cache_info().maxsize == CACHE_SIZE


def test_even_subring_closed():
    params = Params(3, 4)
    for a in range(0, 11, 2):
        for b in range(0, 11, 2):
            prod = fusion_ring_product(
                params, one(sl2_index_to_obj(params, a)), one(sl2_index_to_obj(params, b))
            )
            for entry in prod.entries:
                if entry.obj.kind == "SimpleL":
                    assert (entry.obj.label.r + 1) % (2 * params.p) == 0


def test_fusion_ring_rejections():
    params = Params(2, 3)
    l11 = one(simple_l(1, 1))
    with pytest.raises(UnsupportedObjectError):
        fusion_ring_product(params, l11, l11)
    # at (2,3) the label (1,4) is canonically (3,2), outside the sl2-type set
    with pytest.raises(UnsupportedObjectError):
        fusion_ring_product(params, one(simple_l(1, 4)), one(kac_dual_k11()))
    with pytest.raises(UnsupportedObjectError):
        fusion_ring_product(params, one(kac_k(1, 2)), one(kac_dual_k11()))
    # L_{1,1} annihilates before the other entry is looked at.
    assert fusion_ring_product(params, l11, one(kac_k(1, 2))) == ZERO
    assert fusion_ring_product(params, one(kac_k(1, 2)), l11) == ZERO
    # The socle message names both canonical labels; L_{1,5} is L_{3,1} here.
    for socle in (simple_l(3, 1), simple_l(1, 5)):
        with pytest.raises(UnsupportedObjectError) as exc:
            fusion_ring_product(params, one(socle), one(kac_k(1, 2)))
        assert str(exc.value) == "unsupported fusion entry L_{3,1} (x) K_{1,2}"
    # Pairs run in order, so the first bad pair names the second operand's
    # K_{1,2}, not the later L_{1,4} = L_{3,2} of the first operand.
    a = decomp_from_pairs([(1, kac_dual_k11()), (2, simple_l(1, 4))])
    b = decomp_from_pairs([(1, sl2_index_to_obj(params, 1)), (3, kac_k(1, 2))])
    with pytest.raises(UnsupportedObjectError) as exc:
        fusion_ring_product(params, a, b)
    assert str(exc.value) == "unsupported fusion entry K_{1,2}"


def _label_pool(params):
    p, q = params.p, params.q
    pool = [kac_dual_k11(), simple_l(1, 1), simple_l(2 * p - 1, 1)]
    pool += [sl2_index_to_obj(params, n) for n in range(12)]
    pool += [kac_k(1, 2), simple_l(1, 4)]
    pool += [simple_l(r, s) for r in range(1, 3 * p + 3) for s in range(1, q + 3)]
    return list(dict.fromkeys(pool))


def _assert_equals_oracle(params, a, b):
    outcomes = []
    for product in (fusion_ring_product, fusion_ring_product_oracle):
        try:
            outcomes.append(product(params, a, b))
        except Exception as exc:  # noqa: BLE001 - the error is the compared value
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], (params, a, b)
    return outcomes[0]


def test_fusion_ring_product_equals_oracle():
    # Every ordered pair of the label pool, for all five pairs (p,q); errors
    # must agree in type and message.
    for params in PAIRS:
        pool = [one(obj) for obj in _label_pool(params)]
        for a in pool:
            for b in pool:
                _assert_equals_oracle(params, a, b)


def test_fusion_ring_product_equals_oracle_on_mixed_lists():
    rng = random.Random(4242)
    for params in PAIRS:
        pool = _label_pool(params)
        supported = [kac_dual_k11(), simple_l(2 * params.p - 1, 1)]
        supported += [sl2_index_to_obj(params, n) for n in range(1, 12)]

        def draw():
            objs = rng.sample(rng.choice((pool, supported)), rng.randint(1, 4))
            return decomp_from_pairs((rng.randint(1, 4), obj) for obj in objs)

        for _ in range(300):
            _assert_equals_oracle(params, draw(), draw())


def test_fusion_ring_product_equals_oracle_on_sums_of_every_class():
    # Sums of three consecutive entries of the class pool: the unit, L_{1,1},
    # the socle, unsupported labels, and L_n under three spellings, so a sum
    # may hold one L_n twice.  Results, and errors with their messages, must
    # be the oracle's, in the order the oracle meets the pairs.
    seen = Counter()
    for params in verify.TEST_PARAMS:
        pool = [obj for obj, _ in _class_pool(params)]
        sums = [
            decomp_from_pairs((1 + k, pool[(i + k) % len(pool)]) for k in range(3))
            for i in range(len(pool))
        ]
        for a in sums:
            for b in sums:
                outcome = _assert_equals_oracle(params, a, b)
                seen["product" if type(outcome) is DecompList else outcome[1].split()[0]] += 1
    assert seen["product"] and seen["unsupported"] and seen["L_{1,1}"], seen


def test_decomp_list_invariants():
    from triplet.fusion import DecompEntry

    with pytest.raises(ValueError):
        DecompList((DecompEntry(0, kac_dual_k11()),))
    with pytest.raises(ValueError):
        DecompList((DecompEntry(1, kac_dual_k11()), DecompEntry(2, kac_dual_k11())))
    merged = decomp_from_pairs([(1, kac_dual_k11()), (2, kac_dual_k11())])
    assert len(merged.entries) == 1 and merged.entries[0].mult == 3


@pytest.mark.parametrize("params", PAIRS, ids=lambda pq: f"{pq.p},{pq.q}")
def test_unchecked_product_lists_pass_the_checked_constructor(params):
    # `fusion_ring_product` builds its result without `DecompList`'s checks;
    # each basis product must come out the same through the checked path.
    basis = [one(sl2_index_to_obj(params, k)) for k in range(11)]
    for a in basis:
        for b in basis:
            product = fusion_ring_product(params, a, b)
            assert product.entries
            assert DecompList(product.entries) == product
    # The public constructor still rejects what the private path never builds.
    obj = sl2_index_to_obj(params, 3)
    with pytest.raises(ValueError, match="^entries must be pairwise distinct$"):
        DecompList((DecompEntry(1, obj), DecompEntry(2, obj)))
    with pytest.raises(ValueError, match="^multiplicities must be >= 1$"):
        DecompList((DecompEntry(0, obj),))
