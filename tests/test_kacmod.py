"""Kac-module sequences, Loewy diagrams, factor multisets."""

import json
from collections import Counter

import pytest
from conftest import mutant, run_cli

from triplet import kacmod, verify
from triplet.base import CACHE_SIZE
from triplet.kacmod import (
    ExactSeq,
    UnsupportedObjectError,
    composition_factors,
    kac_length2_seq,
    kac_mm_nn_diagram,
    mm_nn_indices,
)
from triplet.verify import PROPERTIES, TEST_PARAMS, _layer_labels
from triplet.virasoro import Params, VirLabel, canonical_label, kac_dual_k11, kac_k, simple_l

PAIRS = [Params(2, 3), Params(3, 4), Params(2, 5), Params(3, 5), Params(4, 5)]


def test_k11_sequence():
    for params in PAIRS:
        seq = kac_length2_seq(params, kac_k(1, 1))
        assert seq.sub == simple_l(2 * params.p - 1, 1)
        assert seq.mid == kac_k(1, 1)
        assert seq.quot == simple_l(1, 1)
        assert ExactSeq.__slots__ == ("sub", "mid", "quot")


def test_k11dual_sequence():
    for params in PAIRS:
        seq = kac_length2_seq(params, kac_dual_k11())
        assert seq.sub == simple_l(1, 1)
        assert seq.mid == kac_dual_k11()
        assert seq.quot == simple_l(2 * params.p - 1, 1)


def test_column_family_sequence():
    seq = kac_length2_seq(Params(2, 3), kac_k(1, 5))  # n = 1, s = 2
    assert seq.sub == simple_l(1, 7)
    assert seq.mid == kac_k(1, 5)
    assert seq.quot == simple_l(1, 5)


def test_row_family_sequence():
    seq = kac_length2_seq(Params(3, 4), kac_k(5, 1))  # m = 1, r = 2
    assert seq.sub == simple_l(7, 1)
    assert seq.mid == kac_k(5, 1)
    assert seq.quot == simple_l(5, 1)


def test_length2_range_errors():
    # The labels the old (m, r) / (n, s) range checks rejected, and every
    # module outside the three families, raise UnsupportedObjectError.
    p23 = Params(2, 3)
    for obj in (
        kac_k(2, 1),  # row with r = p: p divides the label
        kac_k(1, 3),  # column with s = q
        kac_k(1, 6),
        kac_k(2, 2),  # neither a row nor a column label
        kac_k(3, 5),  # K_{mp-1,nq-1}: a three-layer module
        simple_l(1, 1),
    ):
        with pytest.raises(UnsupportedObjectError, match="outside the supported families"):
            kac_length2_seq(p23, obj)


@pytest.mark.parametrize("params", TEST_PARAMS, ids=lambda params: f"{params.p},{params.q}")
def test_length2_seq_matches_displayed_closed_forms(params):
    # Row: m <= 30, 1 <= r <= p-1, with K_{1,1} the row case m = 0, r = 1.
    # Column: n <= 30, 1 <= s <= q-1, except K_{1,1}.  Then K'_{1,1}.
    p, q = params.p, params.q
    expected = {}
    for m in range(31):
        for r in range(1, p):
            expected[kac_k(m * p + r, 1)] = (simple_l((m + 2) * p - r, 1), simple_l(m * p + r, 1))
    assert expected[kac_k(1, 1)] == (simple_l(2 * p - 1, 1), simple_l(1, 1))
    for n in range(31):
        for s in range(1, q):
            if (n, s) != (0, 1):
                expected[kac_k(1, n * q + s)] = (simple_l(1, (n + 2) * q - s), simple_l(1, n * q + s))
    expected[kac_dual_k11()] = (simple_l(1, 1), simple_l(2 * p - 1, 1))
    assert len(expected) == 31 * (p - 1) + 31 * (q - 1)
    for obj, (sub, quot) in expected.items():
        assert kac_length2_seq(params, obj) == ExactSeq(sub=sub, mid=obj, quot=quot)


def _wrong_at(monkeypatch, obj, **fields):
    # kac_length2_seq with the given fields replaced at one module.
    right = kacmod.kac_length2_seq

    def wrong(params, other):
        seq = right(params, other)
        if other != obj:
            return seq
        return ExactSeq(**{"sub": seq.sub, "mid": seq.mid, "quot": seq.quot, **fields})

    monkeypatch.setattr(kacmod, "kac_length2_seq", wrong)


def test_bookkeeping_catches_a_wrong_k11_socle(monkeypatch):
    _wrong_at(monkeypatch, kac_k(1, 1), sub=simple_l(1, 1))
    with pytest.raises(AssertionError):
        PROPERTIES["wpq"]["ideal_and_quotient_bookkeeping"]()


def test_factor_multisets_catch_a_wrong_k11dual_quotient(monkeypatch):
    _wrong_at(monkeypatch, kac_dual_k11(), quot=simple_l(1, 1))
    with pytest.raises(AssertionError):
        PROPERTIES["kacmod"]["diagram_vs_fusion_factor_multisets"]()


GOLDEN_22 = {
    ("L_3_1", "L_1_1"),
    ("L_3_1", "L_1_7"),
    ("L_3_1", "L_5_1"),
    ("L_1_1", "L_1_4"),
    ("L_1_7", "L_1_4"),
    ("L_1_7", "L_1_10"),
    ("L_5_1", "L_1_4"),
    ("L_5_1", "L_1_10"),
}

GOLDEN_32 = {
    ("L_5_1", "L_1_4"),
    ("L_5_1", "L_1_10"),
    ("L_5_1", "L_7_1"),
    ("L_1_4", "L_1_7"),
    ("L_1_10", "L_1_7"),
    ("L_1_10", "L_1_13"),
    ("L_7_1", "L_1_7"),
    ("L_7_1", "L_1_13"),
}

GOLDEN_33 = {
    ("L_3_1", "L_1_1"),
    ("L_3_1", "L_1_7"),
    ("L_3_1", "L_5_1"),
    ("L_7_1", "L_1_7"),
    ("L_7_1", "L_5_1"),
    ("L_7_1", "L_1_13"),
    ("L_7_1", "L_9_1"),
    ("L_1_1", "L_1_4"),
    ("L_1_7", "L_1_4"),
    ("L_1_7", "L_1_10"),
    ("L_1_13", "L_1_10"),
    ("L_1_13", "L_1_16"),
    ("L_5_1", "L_1_4"),
    ("L_5_1", "L_1_10"),
    ("L_9_1", "L_1_10"),
    ("L_9_1", "L_1_16"),
}


def test_diagram_2_2_golden():
    d = kac_mm_nn_diagram(Params(2, 3), 2, 2)
    assert len(d.nodes) == 6
    assert _layer_labels(d, "top") == [VirLabel(3, 1)]
    assert set(_layer_labels(d, "middle")) == {VirLabel(1, 1), VirLabel(5, 1), VirLabel(1, 7)}
    assert set(_layer_labels(d, "socle")) == {VirLabel(1, 4), VirLabel(1, 10)}
    assert set(d.edges) == GOLDEN_22


def test_diagram_3_2_golden():
    d = kac_mm_nn_diagram(Params(2, 3), 3, 2)
    sizes = tuple(len(_layer_labels(d, layer)) for layer in ("top", "middle", "socle"))
    assert sizes == (1, 3, 2)
    middle = _layer_labels(d, "middle")
    assert VirLabel(1, 4) in middle  # L_{1,q+1}
    assert VirLabel(1, 1) not in middle
    assert set(d.edges) == GOLDEN_32


def test_diagram_3_3_golden():
    d = kac_mm_nn_diagram(Params(2, 3), 3, 3)
    assert len(d.nodes) == 10
    sizes = tuple(len(_layer_labels(d, layer)) for layer in ("top", "middle", "socle"))
    assert sizes == (2, 5, 3)
    assert set(d.edges) == GOLDEN_33


def test_diagram_weight_congruence_reads_numerators_mod_4pq():
    # At (2,3) every node of K_{5,5}'s diagram has an integer weight, as
    # h_{5,5} = 1 has; h_{2,1} = 5/8 is not congruent to them.
    params = Params(2, 3)
    diagram = kac_mm_nn_diagram(params, 3, 2)
    assert verify._diagram_weights_congruent(params, diagram, VirLabel(5, 5))
    assert not verify._diagram_weights_congruent(params, diagram, VirLabel(2, 1))


def _patch_diagram(monkeypatch, old, new):
    # `kac_mm_nn_diagram` reads its diagrams from the cached builder
    # `_diagram`.  The mutant is compiled with the builder's decorator, so it
    # fills a cache of its own and never the real one.
    monkeypatch.setattr(kacmod, "_diagram", mutant(kacmod._diagram.__wrapped__, old, new))


QUOTIENT_MUTANTS = [
    ("for j in top_idx", "for j in [i + 2 for i in top_idx]"),  # middle row shifted by two
    ("for k in (i - 2, i):", "for k in (i - 2, i + 2):"),  # top covers the wrong row node
]


@pytest.mark.parametrize(
    "old, new", QUOTIENT_MUTANTS, ids=["shifted-middle-row", "wrong-top-cover"]
)
def test_quotient_property_catches_a_wrong_diagram(monkeypatch, old, new):
    # The length-2 sequence of K_{ip-1,1} ties the middle row and the
    # top->middle edges to a closed form; both mutants fail it.
    kacmod._diagram.cache_clear()
    _patch_diagram(monkeypatch, old, new)
    with pytest.raises(AssertionError):
        PROPERTIES["kacmod"]["simple_quotient_list_shapes"]()


def test_a_warm_diagram_cache_does_not_hide_a_mutant(monkeypatch):
    # Every diagram the property asks for is cached first; the mutant must
    # still be the one that `kac_mm_nn_diagram` reads.
    real = kacmod._diagram
    real.cache_clear()
    PROPERTIES["kacmod"]["simple_quotient_list_shapes"]()
    assert real.cache_info().currsize == 75  # 15 shapes at each of 5 pairs
    _patch_diagram(monkeypatch, *QUOTIENT_MUTANTS[0])
    with pytest.raises(AssertionError):
        PROPERTIES["kacmod"]["simple_quotient_list_shapes"]()
    info = real.cache_info()
    assert (info.currsize, info.misses) == (75, 75)


@pytest.mark.parametrize(
    "old, new",
    [
        # One socle node too many: 4n-1 nodes and socle size n+1.
        ("range(m - n + 1, m + n, 2)", "range(m - n + 1, m + n + 2, 2)"),
        # The middle row one step off, L_{jp+2,1}: its weights are no longer
        # congruent to h_{mp-1,nq-1} mod 1.
        ("VirLabel(j * p + 1, 1)", "VirLabel(j * p + 2, 1)"),
    ],
    ids=["extra-socle-node", "middle-row-off-by-one"],
)
def test_node_count_property_catches_a_wrong_diagram(monkeypatch, old, new):
    kacmod._diagram.cache_clear()
    _patch_diagram(monkeypatch, old, new)
    with pytest.raises(AssertionError):
        PROPERTIES["kacmod"]["diagram_node_counts_layers_distinct_weights"]()


def test_edge_property_catches_a_reversed_edge(monkeypatch):
    # Middle->socle edges written socle->middle: each runs up one layer.
    kacmod._diagram.cache_clear()
    old = "edges.append((node.id, socle[k].id))"
    _patch_diagram(monkeypatch, old, "edges.append((socle[k].id, node.id))")
    with pytest.raises(AssertionError):
        PROPERTIES["kacmod"]["diagram_edges_respect_layers"]()


def test_diagram_cache_keeps_small_diagrams_only():
    # One object per (p, q, m, n) below CACHE_SIZE; a larger diagram is
    # built without entering the cache, so the cache's memory stays bounded.
    cache = kacmod._diagram
    cache.cache_clear()
    small = kac_mm_nn_diagram(Params(3, 4), 4, 3)
    assert small is kac_mm_nn_diagram(Params(3, 4), 4, 3)
    assert small == cache.__wrapped__(3, 4, 4, 3)
    big = kac_mm_nn_diagram(Params(2, 3), CACHE_SIZE, 3)
    assert big == cache.__wrapped__(2, 3, CACHE_SIZE, 3)
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    cache.cache_clear()


def test_diagram_preconditions():
    with pytest.raises(ValueError):
        kac_mm_nn_diagram(Params(2, 3), 2, 3)
    with pytest.raises(ValueError):
        kac_mm_nn_diagram(Params(2, 3), 3, 1)


def test_composition_factors_k11_dual():
    for params in PAIRS:
        factors = composition_factors(params, kac_dual_k11())
        expected = Counter(
            [
                canonical_label(params, VirLabel(1, 1)),
                canonical_label(params, VirLabel(2 * params.p - 1, 1)),
            ]
        )
        assert factors == expected
        assert composition_factors(params, kac_k(1, 1)) == expected


def test_composition_factors_mm_nn():
    params = Params(2, 3)
    factors = composition_factors(params, kac_k(3, 5))  # m = n = 2
    diagram = Counter(
        canonical_label(params, node.label) for node in kac_mm_nn_diagram(params, 2, 2).nodes
    )
    assert factors == diagram
    assert sum(factors.values()) == 6


def test_composition_factors_k12():
    for params in PAIRS:
        if params.q < 3:
            continue
        factors = composition_factors(params, kac_k(1, 2))
        expected = Counter(
            [
                canonical_label(params, VirLabel(1, 2)),
                canonical_label(params, VirLabel(1, 2 * params.q - 2)),
            ]
        )
        assert factors == expected


def test_composition_factors_unsupported():
    p23 = Params(2, 3)
    with pytest.raises(UnsupportedObjectError):
        composition_factors(p23, kac_k(2, 1))  # K_{mp,1} is simple, not in the families
    with pytest.raises(UnsupportedObjectError):
        composition_factors(p23, kac_k(4, 4))
    with pytest.raises(UnsupportedObjectError):
        composition_factors(p23, kac_k(3, 8))  # r = mp-1, s = nq-1 but m < n


def test_mm_nn_indices_golden():
    p23 = Params(2, 3)
    assert mm_nn_indices(p23, VirLabel(3, 5)) == (2, 2)
    assert mm_nn_indices(p23, VirLabel(5, 5)) == (3, 2)
    assert mm_nn_indices(p23, VirLabel(3, 8)) is None  # m = 2 < n = 3
    assert mm_nn_indices(p23, VirLabel(4, 4)) is None
    assert mm_nn_indices(p23, VirLabel(1, 2)) is None


def test_mm_nn_indices_drives_kac_diagram_and_composition_factors():
    # The CLI's --r/--s request and `composition_factors` share one test for
    # "K_{r,s} is K_{mp-1,nq-1} with m >= n >= 2"; check both against it.
    for params in PAIRS:
        p, q = params.p, params.q
        for r in range(1, 4 * p + 1):
            for s in range(1, 4 * q + 1):
                argv = ["kac-diagram", "--p", str(p), "--q", str(q), "--r", str(r), "--s", str(s)]
                code, out, err = run_cli(argv)
                mn = mm_nn_indices(params, VirLabel(r, s))
                if mn is None:
                    assert (code, out) == (3, "")
                    assert err == (
                        f"error: no Loewy diagram available for the general Kac label K_{{{r},{s}}}\n"
                    )
                    continue
                payload = json.loads(out)
                assert (code, (payload["m"], payload["n"])) == (0, mn)
                diagram = Counter(
                    canonical_label(params, VirLabel(*node["label"])) for node in payload["nodes"]
                )
                assert composition_factors(params, kac_k(r, s)) == diagram


def test_dot_output():
    argv = ["kac-diagram", "--p", "2", "--q", "3", "--m", "2", "--n", "2", "--format", "dot"]
    code, dot, _ = run_cli(argv)
    assert code == 0
    assert dot.startswith("digraph loewy {")
    assert '"L_3_1" [label="L_{3,1} (h=2)"];' in dot
    assert '"L_3_1" -> "L_1_1";' in dot
    assert dot.count("rank=same") == 3
