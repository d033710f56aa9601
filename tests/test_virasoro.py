"""Central charge, conformal weights, label symmetries, canonical labels."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import mutant, run_cli

from triplet import braidfmat, fusion, verify, virasoro, wpq
from triplet.base import CACHE_SIZE
from triplet.virasoro import (
    ObjLabel,
    Params,
    VirLabel,
    canonical_label,
    central_charge,
    conformal_weight,
    kac_dual_k11,
    kac_k,
    obj_to_sl2_index,
    simple_l,
    sl2_index_to_obj,
    weight_numerator,
)
from triplet.verify import PROPERTIES, weight_numerator_oracle

PAIRS = [Params(2, 3), Params(3, 4), Params(2, 5), Params(3, 5), Params(4, 5)]


def test_central_charge_values():
    assert central_charge(Params(2, 3)) == 0
    assert central_charge(Params(3, 4)) == Fraction(1, 2)
    assert central_charge(Params(2, 5)) == Fraction(-22, 5)


def test_conformal_weight_values():
    for params in PAIRS:
        assert conformal_weight(params, VirLabel(1, 1)) == 0
    p23 = Params(2, 3)
    assert conformal_weight(p23, VirLabel(7, 1)) == 15  # = (2p-1)(2q-1) at n=2
    assert conformal_weight(p23, VirLabel(1, 5)) == 2
    assert conformal_weight(p23, VirLabel(3, 1)) == 2


def test_conformal_weight_equals_oracle():
    # The virasoro suite's property past its oracle range r,s <= 20.
    verify.weight_translation_symmetry(oracle_max=79)


def test_weight_numerator_is_4pq_times_the_oracle():
    for params in verify.TEST_PARAMS:
        four_pq = 4 * params.p * params.q
        for r in range(1, 61):
            for s in range(1, 61):
                lbl = VirLabel(r, s)
                numerator = weight_numerator(params, lbl)
                assert numerator.__class__ is int
                assert numerator == weight_numerator_oracle(params, lbl)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(2, 4)
    with pytest.raises(ValueError):
        Params(1, 3)
    with pytest.raises(ValueError):
        VirLabel(0, 1)


def test_canonical_label_examples():
    p23 = Params(2, 3)
    assert canonical_label(p23, VirLabel(1, 1)) == VirLabel(1, 1)
    assert canonical_label(p23, VirLabel(1, 5)) == VirLabel(3, 1)
    assert canonical_label(p23, VirLabel(7, 1)) == VirLabel(7, 1)
    assert canonical_label(p23, VirLabel(1, 11)) == VirLabel(7, 1)


def _canonical_label_scan(params, lbl):
    """`canonical_label` as it was: the two signs scanned in a loop, as
    tuples, and the label built through the checked constructor."""
    p, q = params.p, params.q
    if lbl.r >= 1 and 1 <= lbl.s <= q and q * lbl.r >= p * lbl.s:
        return lbl
    found = None
    for sign in (1, -1):
        s_img = sign * lbl.s
        r_img = sign * lbl.r
        s_star = (s_img - 1) % q + 1
        k = (s_star - s_img) // q
        r_star = r_img + k * p
        if r_star >= 1 and q * r_star >= p * s_star:
            if found is not None and found != (r_star, s_star):
                raise AssertionError(
                    f"canonicalization of {lbl} not unique: {found} and {(r_star, s_star)}"
                )
            found = (r_star, s_star)
    if found is None:
        raise AssertionError(f"canonicalization of {lbl} found no representative")
    return VirLabel(*found)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as exc:
        return str(exc)


def test_canonical_label_equals_the_two_sign_scan():
    labels = [VirLabel(r, s) for r in range(1, 61) for s in range(1, 61)]
    for params in verify.TEST_PARAMS:
        for lbl in labels:
            fast, scan = canonical_label(params, lbl), _canonical_label_scan(params, lbl)
            assert type(fast) is VirLabel and fast == scan, (params, lbl, fast, scan)


def test_canonical_label_raises_like_the_two_sign_scan():
    # With p and q not coprime the uniqueness check can fail (at p = q = 3,
    # (4,4) translates to (1,1) and its reflection to (2,2)); both forms must then
    # raise with the same message.  Params refuses such a pair, so a
    # stand-in carries it.
    raised = 0
    for p in range(1, 7):
        for q in range(1, 7):
            params = SimpleNamespace(p=p, q=q)
            for r in range(1, 13):
                for s in range(1, 13):
                    lbl = VirLabel(r, s)
                    fast = _outcome(canonical_label, params, lbl)
                    assert fast == _outcome(_canonical_label_scan, params, lbl), (p, q, lbl)
                    raised += isinstance(fast, str)
    assert raised > 0


def test_row_column_identification():
    # The two presentations of the family modules share canonical labels.
    for params in PAIRS:
        for n in range(2, 21):
            row = canonical_label(params, VirLabel(n * params.p - 1, 1))
            col = canonical_label(params, VirLabel(1, n * params.q - 1))
            assert row == col


def test_obj_label_validation_and_json():
    with pytest.raises(ValueError):
        ObjLabel("KacDualK11", VirLabel(1, 1))
    with pytest.raises(ValueError):
        ObjLabel("SimpleL", None)
    with pytest.raises(ValueError):
        ObjLabel("Mystery", VirLabel(1, 1))


def test_sl2_dictionary_round_trip():
    for params in PAIRS:
        assert sl2_index_to_obj(params, 0) == kac_dual_k11()
        for n in range(0, 9):
            assert obj_to_sl2_index(params, sl2_index_to_obj(params, n)) == n
        # the column presentation maps back too
        assert obj_to_sl2_index(params, simple_l(1, 3 * params.q - 1)) == 1
        assert obj_to_sl2_index(params, simple_l(2 * params.p - 1, 1)) is None
        assert obj_to_sl2_index(params, simple_l(1, 1)) is None
        assert obj_to_sl2_index(params, kac_k(1, 1)) is None


def test_sl2_dictionary_cache_is_bounded_and_equals_the_uncached_path():
    cache = virasoro._sl2_obj
    assert cache.cache_info().maxsize == CACHE_SIZE
    cache.cache_clear()
    for params in verify.TEST_PARAMS:
        p = params.p
        for n in range(301):
            obj = sl2_index_to_obj(params, n)
            assert obj == cache.__wrapped__(p, n)
            assert obj == (kac_dual_k11() if n == 0 else simple_l((n + 2) * p - 1, 1))
            # Below the bound a second read is a hit on the same object; past
            # it the label is built again, never inserted.
            again = sl2_index_to_obj(params, n)
            assert again is obj if n < CACHE_SIZE else again == obj and again is not obj
        with pytest.raises(ValueError):
            sl2_index_to_obj(params, -1)
    info = cache.cache_info()
    # CACHE_SIZE keys per pair, the bound; each p evicts the last one's.
    assert (info.misses, info.currsize) == (CACHE_SIZE * len(verify.TEST_PARAMS), CACHE_SIZE)
    cache.cache_clear()


def test_long_families_keep_the_registry_keys_in_the_dictionary_cache():
    # A balancing check far past the cache bound builds no label, and a
    # family fusion as long goes through the dictionary's one cache policy,
    # so the keys of the verify registry survive both: a second run of the
    # registry misses nothing.
    cache = virasoro._sl2_obj
    cache.cache_clear()
    assert all(ok for _, (_, ok, _) in verify.run_suites(sorted(verify.PROPERTIES)))
    registry = cache.cache_info().currsize
    braidfmat.balancing_check(Params(2, 3), 2000)
    fusion.fuse_L_family(Params(2, 3), 2000, 2000)
    assert cache.cache_info().currsize < CACHE_SIZE
    misses = cache.cache_info().misses
    verify.run_suites(sorted(verify.PROPERTIES))
    assert cache.cache_info().misses == misses and registry == 83
    cache.cache_clear()


# (50+p, 50+q) is a grid label that the translation property reaches only as
# the shift of (50,50); (40,40) is a non-canonical label of the 40 x 40 box.
def _numerator_wrong_at(target):
    def wrong(params, lbl):
        h = weight_numerator(params, lbl)
        return h + 1 if (lbl.r, lbl.s) == target(params) else h

    return wrong


def test_translation_property_catches_a_wrong_shifted_weight(monkeypatch):
    wrong = _numerator_wrong_at(lambda params: (50 + params.p, 50 + params.q))
    monkeypatch.setattr(verify, "weight_numerator", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["virasoro"]["weight_translation_symmetry"]()


def test_canonical_property_catches_a_wrong_non_canonical_weight(monkeypatch):
    monkeypatch.setattr(verify, "weight_numerator", _numerator_wrong_at(lambda params: (40, 40)))
    with pytest.raises(AssertionError):
        PROPERTIES["virasoro"]["canonical_label_idempotent_and_weight_preserving"]()


def test_verify_fail_line_names_the_label_and_both_numerators(monkeypatch):
    monkeypatch.setattr(verify, "weight_numerator", _numerator_wrong_at(lambda params: (40, 40)))
    code, out, _ = run_cli(["verify", "--suite", "virasoro"])
    params, lbl = Params(2, 3), VirLabel(40, 40)
    h = weight_numerator(params, lbl)
    assert code == 1
    assert (
        "FAIL virasoro.canonical_label_idempotent_and_weight_preserving: AssertionError: "
        f"{params} {lbl} weight numerator {h + 1} != {h} of {canonical_label(params, lbl)}"
    ) in out.splitlines()


def test_translation_property_checks_the_weight_denominator(monkeypatch):
    # The numerators are right and only the denominator is wrong, so the
    # row comparisons pass and the comparison with the oracle must fail.
    def wrong(params, lbl):
        return Fraction(weight_numerator(params, lbl), 2 * params.p * params.q)

    monkeypatch.setattr(verify, "conformal_weight", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["virasoro"]["weight_translation_symmetry"]()


def test_weight_properties_build_one_fraction_per_oracle_label(monkeypatch):
    # Both properties compare integer numerators; only the 400 labels with
    # r,s <= 20 of each of the 5 pairs reach `conformal_weight`, to be
    # compared with the oracle.  A return to comparing Fractions fails here.
    calls = []

    def counted(params, lbl):
        calls.append(lbl)
        return conformal_weight(params, lbl)

    monkeypatch.setattr(verify, "conformal_weight", counted)
    PROPERTIES["virasoro"]["weight_translation_symmetry"]()
    PROPERTIES["virasoro"]["canonical_label_idempotent_and_weight_preserving"]()
    assert len(verify.TEST_PARAMS) == 5
    assert len(calls) == 400 * 5 == 2000


def test_family_weight_property_catches_a_weight_one_too_low(monkeypatch):
    # (p + q)^2 - (p - q)^2 = 4pq, so every weight drops by exactly 1.
    wrong = mutant(virasoro.weight_numerator, "(p - q) ** 2", "(p + q) ** 2")
    monkeypatch.setattr(virasoro, "weight_numerator", wrong)
    params, lbl = Params(2, 3), VirLabel(7, 1)
    assert conformal_weight(params, lbl) == Fraction(weight_numerator(params, lbl), 24) - 1
    with pytest.raises(AssertionError):
        PROPERTIES["virasoro"]["family_weight_identities"]()


@pytest.mark.parametrize(
    "suite, name, message",
    [
        ("virasoro", "family_weight_identities", "lowest weight of L_n"),
        ("wpq", "equivariant_dimension_agreement", "has not the weight"),
    ],
)
def test_weight_properties_catch_a_dictionary_weight_one_index_low(
    suite, name, message, monkeypatch
):
    # The weight of L_{(n+1)p-1,1} in place of L_n's: `wpq` and `verify` read
    # the same closed form, so only the comparison with the weight of L_n's
    # label sees it.
    old = "((n + 2) * params.p - 2) * ((n + 2) * params.q - 2)"
    wrong = mutant(virasoro.sl2_weight_numerator, old, old.replace("n + 2", "n + 1"))
    params = Params(2, 3)
    right = virasoro.sl2_weight_numerator(params, 2)
    for module in (virasoro, wpq, verify):
        monkeypatch.setattr(module, "sl2_weight_numerator", wrong)
    assert 4 * wpq.decompose_wprime(params, 2)[1].lowest_weight == wrong(params, 2) != right
    with pytest.raises(AssertionError, match=message):
        PROPERTIES[suite][name]()


def test_canonical_property_catches_a_non_idempotent_label(monkeypatch):
    # At (2,3) the property first meets the canonical label (3,1) as the
    # image of (1,5), so the idempotence check, not the range check, sees the
    # wrong second application.
    def wrong(params, lbl):
        if (lbl.r, lbl.s) == (3, 1):
            return VirLabel(3 + params.p, 1 + params.q)
        return canonical_label(params, lbl)

    monkeypatch.setattr(verify, "canonical_label", wrong)
    with pytest.raises(AssertionError) as excinfo:
        PROPERTIES["virasoro"]["canonical_label_idempotent_and_weight_preserving"]()
    assert str(excinfo.value) == (
        "Params(p=2, q=3) canonical_label not idempotent: VirLabel(r=3, s=1) VirLabel(r=5, s=4)"
    )
