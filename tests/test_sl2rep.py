"""Explicit sl2 matrices, invariant forms, CG maps, simplicity witnesses."""

import time
from fractions import Fraction

import pytest

from conftest import mutant
from triplet import linalg, sl2rep
from triplet.sl2rep import (
    build_irrep,
    cg_maps,
    invariant_form,
)
from triplet.verify import (
    PROPERTIES,
    _int_rows,
    _kron_sum,
    _simplicity_witness,
    cg_oracle,
    cg_system_oracle,
    invariant_form_oracle,
)


def _dense_kron_sum(x: tuple, y: tuple) -> list:
    """`verify._kron_sum` of two integral matrices, as dense Fraction rows."""
    rows = _kron_sum(_int_rows(x), _int_rows(y))
    return [[Fraction(row.get(j, 0)) for j in range(len(rows))] for row in rows]


def test_build_irrep_small():
    rep0 = build_irrep(0)
    assert rep0.e == ((Fraction(0),),)
    rep1 = build_irrep(1)
    assert [list(r) for r in rep1.h] == [[1, 0], [0, -1]]
    assert [list(r) for r in rep1.f] == [[0, 0], [1, 0]]
    assert [list(r) for r in rep1.e] == [[0, 1], [0, 0]]


def test_invariant_form_small():
    assert [list(r) for r in invariant_form(0).matrix] == [[1]]
    b2 = [list(r) for r in invariant_form(2).matrix]
    for i in range(3):
        for j in range(3):
            assert (b2[i][j] != 0) == (i + j == 2)
    _, pivots = linalg.rref(b2)
    assert len(pivots) == 3


def test_invariant_form_normalization_and_parity():
    for n in range(7):
        b = [list(r) for r in invariant_form(n).matrix]
        assert b[0][n] == 1
        sign = 1 if n % 2 == 0 else -1
        for i in range(n + 1):
            for j in range(n + 1):
                assert b[i][j] == sign * b[j][i]


def test_invariant_form_invariance_equations():
    for n in range(7):
        rep = build_irrep(n)
        b = [list(r) for r in invariant_form(n).matrix]
        for mat in (rep.e, rep.f, rep.h):
            x = [list(r) for r in mat]
            lhs = linalg.mat_mul([list(col) for col in zip(*x)], b)
            rhs = linalg.mat_mul(b, x)
            total = [[a + c for a, c in zip(ra, rc)] for ra, rc in zip(lhs, rhs)]
            assert total == linalg.zeros(n + 1, n + 1)


# n <= 8 is compared by `invariant_form_unique_nondegenerate_symmetry`.
@pytest.mark.parametrize("n", range(9, 13))
def test_invariant_form_equals_nullspace_oracle(n):
    assert invariant_form(n).matrix == invariant_form_oracle(n)


def test_invariant_form_antidiagonal_closed_form():
    for n in (0, 1, 5, 40):
        b = invariant_form(n).matrix
        for i in range(n + 1):
            for j in range(n + 1):
                assert b[i][j] == ((-1) ** i if i + j == n else 0)


@pytest.mark.parametrize("m", range(8))
def test_cg_system_equals_dense_inverse_oracle(m):
    # sl2rep.cg_biorthogonality_and_completeness compares every m,n <= 5.
    for n in range(8):
        if max(m, n) >= 6:
            assert sl2rep._cg_system(m, n) == cg_system_oracle(m, n), (m, n)


def test_cg_property_catches_a_wrong_system_beyond_the_oracle(monkeypatch):
    # (6,6) is outside the integer oracle's range in the property, so only the
    # stacked product P*I can see the changed projection entry.
    right = sl2rep._cg_system

    def wrong(m, n):
        system = right(m, n)
        if (m, n) != (6, 6):
            return system
        proj, incl = system[0]
        row = (proj[0][0] + 1,) + proj[0][1:]
        return {**system, 0: ((row,) + proj[1:], incl)}

    monkeypatch.setattr(sl2rep, "_cg_system", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["sl2rep"]["cg_biorthogonality_and_completeness"]()


def test_bracket_property_catches_a_wrong_e_coefficient(monkeypatch):
    # E v_k = k(n-k+2) v_{k-1} keeps [H,E] = 2E but breaks [E,F] = H.
    wrong = mutant(sl2rep.build_irrep.__wrapped__, "k * (n - k + 1)", "k * (n - k + 2)")
    monkeypatch.setattr(sl2rep, "build_irrep", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["sl2rep"]["bracket_relations"]()


def test_form_property_catches_a_rescaled_form(monkeypatch):
    # Twice the form is still E- and F-invariant, so `invariant_form`'s own
    # checks pass it; only the oracle's normalization B[0][n] = 1 sees it.
    wrong = mutant(
        sl2rep.invariant_form.__wrapped__,
        "Fraction(1 if k % 2 == 0 else -1)",
        "Fraction(2 if k % 2 == 0 else -2)",
    )
    monkeypatch.setattr(sl2rep, "invariant_form", wrong)
    assert wrong(3).matrix[0][3] == 2
    with pytest.raises(AssertionError):
        PROPERTIES["sl2rep"]["invariant_form_unique_nondegenerate_symmetry"]()


def test_large_sizes_stay_within_budget():
    # The dense solves took minutes here (form n=40: ~4.5 min, CG 20x20:
    # ~60 s); the closed forms must stay far below.
    sl2rep.invariant_form.cache_clear()
    sl2rep._cg_system.cache_clear()
    start = time.perf_counter()
    invariant_form(40)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    for k in range(0, 41, 2):
        proj, incl = cg_maps(20, 20, k)
        assert len(proj) == k + 1 and len(incl) == 441
    assert time.perf_counter() - start < 5.0
    # One channel at a time: about 0.1 s for all 25 on a 2-vCPU Xeon.
    start = time.perf_counter()
    for k in range(0, 49, 2):
        proj, incl = cg_maps(24, 24, k)
        assert len(proj) == k + 1 and len(incl) == 625
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m,n,channels", [(20, 20, (0, 2, 22, 40)), (24, 12, (12, 14, 26, 36))])
def test_cg_maps_beyond_oracle_range(m, n, channels):
    # The dense oracle is too slow at these sizes; check the defining
    # identities directly: pi * iota = Id and pi intertwines E and F.
    rep_m, rep_n = build_irrep(m), build_irrep(n)
    big = {name: _dense_kron_sum(getattr(rep_m, name), getattr(rep_n, name)) for name in ("e", "f")}
    for k in channels:
        rep_k = build_irrep(k)
        proj, incl = cg_maps(m, n, k)
        assert linalg.mat_mul(proj, incl) == linalg.identity(k + 1), k
        for name, x in big.items():
            small = [list(r) for r in getattr(rep_k, name)]
            assert linalg.mat_mul(proj, x) == linalg.mat_mul(small, proj), (k, name)


def test_caches_stay_bounded():
    bound = sl2rep.CACHE_SIZE
    caches = (sl2rep.build_irrep, sl2rep.invariant_form, sl2rep._cg_system)
    assert all(cache.cache_info().maxsize == bound for cache in caches)
    sl2rep._cg_system.cache_clear()
    pairs = [(m, n) for m in range(17) for n in range(17 - m)]
    assert len(pairs) > bound
    for m, n in pairs:
        sl2rep._cg_system(m, n)
    info = sl2rep._cg_system.cache_info()
    assert (info.misses, info.currsize) == (len(pairs), bound)
    sl2rep._cg_system(*pairs[-1])
    assert sl2rep._cg_system.cache_info().hits == 1
    sl2rep._cg_system.cache_clear()


def test_cg_maps_singlet_of_two_spinors():
    proj, incl = cg_maps(1, 1, 0)
    assert proj == [[0, Fraction(1, 2), Fraction(-1, 2), 0]]
    assert [row[0] for row in incl] == [0, 1, -1, 0]
    assert linalg.mat_mul(proj, incl) == [[1]]


def test_cg_maps_biorthogonality_2_2():
    channels = cg_oracle(2, 2)
    assert channels == [0, 2, 4]
    proj0, incl0 = cg_maps(2, 2, 0)
    assert linalg.mat_mul(proj0, incl0) == [[1]]
    for k in (2, 4):
        _, incl_k = cg_maps(2, 2, k)
        assert linalg.mat_mul(proj0, incl_k) == linalg.zeros(1, k + 1)


def test_cg_maps_completeness_2_2():
    dim = 9
    total = linalg.zeros(dim, dim)
    for k in cg_oracle(2, 2):
        proj, incl = cg_maps(2, 2, k)
        total = [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, linalg.mat_mul(incl, proj))
        ]
    assert total == linalg.identity(dim)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_cg_maps_intertwine(m, n):
    rep_m, rep_n = build_irrep(m), build_irrep(n)
    for k in cg_oracle(m, n):
        rep_k = build_irrep(k)
        proj, incl = cg_maps(m, n, k)
        for name in ("e", "f", "h"):
            big = _dense_kron_sum(getattr(rep_m, name), getattr(rep_n, name))
            small = [list(r) for r in getattr(rep_k, name)]
            assert linalg.mat_mul(proj, big) == linalg.mat_mul(small, proj)
            assert linalg.mat_mul(big, incl) == linalg.mat_mul(incl, small)


def test_cg_maps_channel_counts():
    for m in range(7):
        for n in range(7):
            channels = cg_oracle(m, n)
            assert len(channels) == min(m, n) + 1
            for k in channels:
                proj, incl = cg_maps(m, n, k)
                assert len(proj) == k + 1 and len(incl) == (m + 1) * (n + 1)


def test_cg_maps_invalid_channel():
    for m, n, k in [(1, 1, 1), (2, 2, 6), (2, 2, -2), (5, 2, 1), (5, 2, 9)]:
        with pytest.raises(ValueError, match=rf"^k={k} is not a channel of V_{m} \(x\) V_{n}$"):
            cg_maps(m, n, k)
    with pytest.raises(ValueError, match="highest weight must be >= 0, got -1"):
        cg_maps(-1, 3, 4)
    with pytest.raises(ValueError, match="highest weight must be >= 0, got -1"):
        sl2rep._cg_system(2, -1)


def test_simplicity_witness_highest_lowest():
    v = [Fraction(1), 0, 0]  # highest-weight vector of the n=1 module V_2
    witness = _simplicity_witness(1, v)
    assert witness == [0, 0, Fraction(1)]


def test_simplicity_witness_rejects_zero():
    with pytest.raises(ValueError):
        _simplicity_witness(1, [0, 0, 0])
    with pytest.raises(ValueError):
        _simplicity_witness(2, [1, 0, 0])  # wrong dimension for V_4


def test_simplicity_witness_checks_length_before_building_form():
    sl2rep.invariant_form.cache_clear()
    with pytest.raises(ValueError, match="length 81"):
        _simplicity_witness(40, [1, 0, 0])
    assert sl2rep.invariant_form.cache_info().currsize == 0
