"""Truncated triplet-algebra decompositions and the weight congruences."""

import pytest
from conftest import mutant

from triplet import sl2rep, virasoro, wpq
from triplet.base import CACHE_SIZE
from triplet.kacmod import kac_length2_seq
from triplet.verify import PROPERTIES
from triplet.virasoro import Params, kac_dual_k11, kac_k, simple_l, sl2_index_to_obj
from triplet.wpq import (
    decompose_ideal,
    decompose_wpq,
    decompose_wpq_equivariant,
    decompose_wprime,
    o0_weight_identity,
)

PAIRS = [Params(2, 3), Params(3, 4), Params(2, 5), Params(3, 5), Params(4, 5)]


def test_decompose_wpq_2_3():
    decomp = decompose_wpq(Params(2, 3), 3)
    rows = [(e.mult, e.obj, e.lowest_weight) for e in decomp]
    assert rows == [
        (1, kac_k(1, 1), 0),
        (3, simple_l(7, 1), 15),
        (5, simple_l(11, 1), 40),
    ]


def test_decompose_wpq_truncation_and_multiplicities():
    for params in PAIRS:
        assert len(decompose_wpq(params, 2)) == 2
        decomp = decompose_wpq(params, 12)
        for n, entry in enumerate(decomp[1:], start=2):
            assert entry.mult == 2 * n - 1
            assert entry.obj == simple_l(2 * n * params.p - 1, 1)
            assert entry.lowest_weight == (n * params.p - 1) * (n * params.q - 1)
    with pytest.raises(ValueError):
        decompose_wpq(Params(2, 3), 1)


def test_decompose_wpq_equivariant():
    decomp = decompose_wpq_equivariant(Params(2, 3), 3)
    assert decomp[0].psl2 == 0 and decomp[0].obj == kac_k(1, 1)
    n2 = decomp[1]
    assert (n2.psl2, n2.obj, n2.lowest_weight) == (2, simple_l(7, 1), 15)
    assert n2.mult == 3


def test_decompose_ideal():
    decomp = decompose_ideal(Params(2, 3), 2)
    rows = [(e.mult, e.obj, e.lowest_weight) for e in decomp]
    assert rows == [(1, simple_l(3, 1), 2), (3, simple_l(7, 1), 15)]
    assert len(decompose_ideal(Params(2, 3), 1)) == 1
    with pytest.raises(ValueError):
        decompose_ideal(Params(2, 3), 0)


def test_ideal_socle_matches_k11_sequence():
    for params in PAIRS:
        ideal = decompose_ideal(params, 3)
        socle = kac_length2_seq(params, kac_k(1, 1)).sub
        assert ideal[0].obj == socle
        assert ideal[0].lowest_weight == (params.p - 1) * (params.q - 1)
        # the n=1 term is inside K_{1,1}, not among the visible simple summands
        wpq_objs = {e.obj for e in decompose_wpq(params, 3)}
        assert socle not in wpq_objs


def test_decompose_looks_up_each_dictionary_entry_once():
    # Entry n's weight is read from its label, not by a second lookup of
    # the dictionary index 2n-2; the 127 even indices below CACHE_SIZE are
    # the only ones looked up in the cache.
    virasoro._sl2_obj.cache_clear()
    decompose_wpq(Params(2, 3), 1000)
    info = virasoro._sl2_obj.cache_info()
    assert (info.hits, info.misses) == (0, len(range(2, CACHE_SIZE, 2))) == (0, 127)


def test_large_decomposition_keeps_the_dictionary_cache():
    # A decomposition with more entries than the cache holds keeps the keys
    # of a smaller one: the repeat of the small call hits all 19 of them.
    cache = virasoro._sl2_obj
    cache.cache_clear()
    small = decompose_wpq(Params(2, 3), 20)
    assert cache.cache_info()[:2] == (0, 19)
    big = decompose_wpq(Params(2, 3), 1000)
    assert cache.cache_info()[:2] == (19, 127)
    assert decompose_wpq(Params(2, 3), 20) == small == big[:20]
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (38, 127, 127)
    # An index past the cache is built on its own and still equals the
    # dictionary's label.
    assert big[-1].obj == sl2_index_to_obj(Params(2, 3), 1998)
    cache.cache_clear()


def test_decompose_wprime():
    for params in PAIRS:
        prime = decompose_wprime(params, 4)
        graded = decompose_wpq_equivariant(params, 4)
        assert prime[0].obj == kac_dual_k11()
        assert graded[0].obj == kac_k(1, 1)
        assert prime[1:] == graded[1:]
    n2 = decompose_wprime(Params(3, 4), 2)[1]
    assert (n2.psl2, n2.obj, n2.lowest_weight) == (2, simple_l(11, 1), 35)


def test_o0_weight_identity():
    rows = o0_weight_identity(Params(2, 3), 2)
    assert rows == [(2, 12, True)]
    rows34 = o0_weight_identity(Params(3, 4), 2)
    assert rows34 == [(2, 30, True)]
    # An integral difference is an int, read from the weight numerators.
    assert {type(diff) for _, diff, _ in o0_weight_identity(Params(3, 4), 20)} == {int}


def test_contragredient_property_catches_a_wrong_head(monkeypatch):
    # K_{1,1} in place of K'_{1,1}: every multiplicity, grading label and
    # lowest weight is unchanged, so only the dictionary comparison fails.
    wrong = lambda params, n_max: wpq._decompose(params, kac_k(1, 1), True, n_max)
    monkeypatch.setattr(wpq, "decompose_wprime", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["wpq"]["equivariant_dimension_agreement"]()


def test_prefix_property_catches_entries_listed_top_down(monkeypatch):
    # Entries past the head listed from the largest index down: every
    # multiplicity total and weight is unchanged, but a shorter truncation
    # is no longer a prefix of a longer one.
    wrong = mutant(wpq._decompose, "return tuple(entries)", "return (entries[0], *entries[:0:-1])")
    monkeypatch.setattr(wpq, "_decompose", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["wpq"]["truncations_are_prefixes"]()


def test_square_totals_property_catches_one_entry_too_many(monkeypatch):
    # The truncation runs one index too far: entries stay prefixes of each
    # other, but the multiplicities sum to (n_max + 1)^2.
    wrong = mutant(wpq._decompose, "range(2, 2 * n_max - 1, 2)", "range(2, 2 * n_max + 1, 2)")
    monkeypatch.setattr(wpq, "_decompose", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["wpq"]["multiplicity_totals_square"]()


def test_o0_property_catches_h12_read_as_h11(monkeypatch):
    # h_{1,1} = 0 in place of h_{1,2}: at (2,3) both are 0 and nothing
    # changes, but at (3,4) h_{1,2} = 1/16 and the difference is no integer.
    wrong = mutant(wpq.o0_weight_identity, "VirLabel(1, 2)", "VirLabel(1, 1)")
    monkeypatch.setattr(wpq, "o0_weight_identity", wrong)
    assert wrong(Params(2, 3), 20) == o0_weight_identity(Params(2, 3), 20)
    with pytest.raises(AssertionError):
        PROPERTIES["wpq"]["o0_weight_identity_integral"]()


def test_grading_property_catches_an_irrep_of_the_wrong_dimension(monkeypatch):
    # V_n built one weight too long: every decomposition is unchanged, so
    # only the comparison of entry n's multiplicity with dim V_{2n-2} fails.
    wrong = mutant(sl2rep.build_irrep.__wrapped__, "range(n, -n - 1, -2)", "range(n, -n - 3, -2)")
    monkeypatch.setattr(sl2rep, "build_irrep", wrong)
    with pytest.raises(AssertionError, match="is not graded by dim"):
        PROPERTIES["wpq"]["equivariant_dimension_agreement"]()
