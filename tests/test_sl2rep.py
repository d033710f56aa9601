"""Explicit sl2 matrices, invariant forms, CG maps, simplicity witnesses."""

import time
from fractions import Fraction

import pytest

from conftest import mutant, run_cli, with_top_entry
from triplet import linalg, sl2rep, verify
from triplet.sl2rep import (
    CGChannel,
    _cg_system,
    build_irrep,
    cg_maps,
    invariant_form,
)
from triplet.verify import (
    PROPERTIES,
    _channel_maps,
    _form_rows,
    _int_product,
    _irrep_rows,
    _kron_sum,
    _simplicity_witness,
    _system_equals_oracle,
    cg_oracle,
    cg_system_oracle,
)


def _dense(rows: list, cols: int, den: int = 1) -> list:
    """Sparse integer rows over `den` as a dense matrix of Fraction."""
    return [[Fraction(row.get(j, 0), den) for j in range(cols)] for row in rows]


def _mat_mul(a: list, b: list) -> list:
    """The dense product a*b over Fraction, entry by entry."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def _identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _irrep_dense(rep: sl2rep.Irrep) -> dict:
    """E, F and H of `rep` as dense matrices of Fraction."""
    return {name: _dense(rows, rep.n + 1) for name, rows in zip("efh", _irrep_rows(rep))}


def _form_dense(form: sl2rep.BilinForm) -> list:
    return _dense(_form_rows(form), form.n + 1)


def _cg_dense(m: int, n: int, k: int) -> tuple[list, list]:
    """(projection, inclusion) of channel k as dense matrices of Fraction."""
    cg = cg_maps(m, n, k)
    dim = (m + 1) * (n + 1)
    columns = cg.inclusion_columns()
    proj = [
        [Fraction(row.get(i, 0) * cg.big, cg.scale) for i in range(dim)]
        for row in cg.projection_rows(columns)
    ]
    incl = [[Fraction(col.get(i, 0), cg.big) for col in columns] for i in range(dim)]
    return proj, incl


def test_build_irrep_small():
    rep0 = build_irrep(0)
    assert (rep0.e, rep0.h) == ((), (0,))
    assert _irrep_dense(rep0)["e"] == [[Fraction(0)]]
    rep1 = _irrep_dense(build_irrep(1))
    assert rep1["h"] == [[1, 0], [0, -1]]
    assert rep1["f"] == [[0, 0], [1, 0]]
    assert rep1["e"] == [[0, 1], [0, 0]]
    assert (build_irrep(3).e, build_irrep(3).h) == ((3, 4, 3), (3, 1, -1, -3))


def test_invariant_form_small():
    assert _form_dense(invariant_form(0)) == [[1]]
    b2 = _form_dense(invariant_form(2))
    for i in range(3):
        for j in range(3):
            assert (b2[i][j] != 0) == (i + j == 2)
    pivots = linalg._rref_int(_form_rows(invariant_form(2)), 3)
    assert len(pivots) == 3


def test_invariant_form_normalization_and_parity():
    for n in range(7):
        b = _form_dense(invariant_form(n))
        assert b[0][n] == 1
        sign = 1 if n % 2 == 0 else -1
        for i in range(n + 1):
            for j in range(n + 1):
                assert b[i][j] == sign * b[j][i]


def test_invariant_form_invariance_equations():
    for n in range(7):
        b = _form_dense(invariant_form(n))
        for x in _irrep_dense(build_irrep(n)).values():
            lhs = _mat_mul([list(col) for col in zip(*x)], b)
            rhs = _mat_mul(b, x)
            total = [[a + c for a, c in zip(ra, rc)] for ra, rc in zip(lhs, rhs)]
            assert total == [[0] * (n + 1) for _ in range(n + 1)]


# The sl2rep suite's property past its n <= 10 and oracle n <= 8, one n each.
@pytest.mark.parametrize("n", range(9, 13))
def test_invariant_form_equals_nullspace_oracle(n):
    verify.invariant_form_unique_nondegenerate_symmetry(n_min=n, n_max=n, oracle_max=n)


def test_invariant_form_antidiagonal_closed_form():
    for n in (0, 1, 5, 40):
        b = _form_dense(invariant_form(n))
        for i in range(n + 1):
            for j in range(n + 1):
                assert b[i][j] == ((-1) ** i if i + j == n else 0)


# The sl2rep suite's property past its m,n <= 6 and oracle m,n <= 5, one m each.
@pytest.mark.parametrize("m", range(8))
def test_cg_system_equals_dense_inverse_oracle(m):
    verify.cg_biorthogonality_and_completeness(n_max=7, oracle_max=7, m_only=m)


def test_system_comparison_sees_one_changed_entry():
    # The cross-multiplied comparison is not fooled by a rescaled channel,
    # and it sees a single changed entry.
    system, oracle = _channel_maps(sl2rep._cg_system(2, 1)), cg_system_oracle(2, 1)
    assert _system_equals_oracle(system, oracle)
    (rows, row_den), (columns, lead) = oracle[1]
    rescaled = ((rows, row_den), ([{i: 3 * x for i, x in c.items()} for c in columns], 3 * lead))
    assert _system_equals_oracle(system, {**oracle, 1: rescaled})
    changed = [dict(c) for c in columns]
    i = min(changed[0])
    changed[0][i] += 1
    assert not _system_equals_oracle(system, {**oracle, 1: ((rows, row_den), (changed, lead))})


def test_cg_property_catches_a_wrong_system_beyond_the_oracle(monkeypatch):
    # (6,6) is outside the integer oracle's range in the property, so only the
    # stacked product P*I can see the changed entry.
    right = sl2rep._cg_system

    def wrong(m, n):
        system = right(m, n)
        if (m, n) != (6, 6):
            return system
        return {**system, 0: with_top_entry(system[0], 1)}

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
        "1 if k % 2 == 0 else -1",
        "2 if k % 2 == 0 else -2",
    )
    monkeypatch.setattr(sl2rep, "invariant_form", wrong)
    assert wrong(3).signs[0] == 2
    with pytest.raises(AssertionError):
        PROPERTIES["sl2rep"]["invariant_form_unique_nondegenerate_symmetry"]()


def test_unit_channel_property_catches_a_sign_error(monkeypatch):
    # Without the sign of the recurrence, every coefficient of the top is
    # positive: the scale stays nonzero, so `cg_maps` passes it, but the
    # channel-0 projection is no longer a multiple of the alternating form.
    wrong = mutant(sl2rep.cg_maps, "-num * (b + 1)", "num * (b + 1)")
    monkeypatch.setattr(sl2rep, "cg_maps", wrong)
    cg = wrong(2, 2, 0)
    (row,) = cg.projection_rows(cg.inclusion_columns())
    assert sorted(row.values()) == [1, 1, 1]
    with pytest.raises(AssertionError):
        PROPERTIES["sl2rep"]["unit_channel_projection_is_bilinear_form"]()


def test_simplicity_property_catches_a_wrong_witness(monkeypatch):
    # The basis vector paired with v_{2n-i} is e_i; e_{2n-i} pairs with v_i,
    # which the sampled vectors sometimes leave at 0.
    wrong = mutant(verify._simplicity_witness, "witness[i] = 1", "witness[2 * n - i] = 1")
    monkeypatch.setattr(verify, "_simplicity_witness", wrong)
    with pytest.raises(AssertionError):
        PROPERTIES["sl2rep"]["simplicity_witnesses_exist"]()


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
        cg = cg_maps(20, 20, k)
        columns = cg.inclusion_columns()
        assert len(cg.projection_rows(columns)) == k + 1 == len(columns)
        assert all(0 <= i < 441 for col in columns for i in col)
    assert time.perf_counter() - start < 5.0
    # One channel at a time: about 0.1 s for all 25 on a 2-vCPU Xeon.
    start = time.perf_counter()
    for k in range(0, 49, 2):
        cg = cg_maps(24, 24, k)
        columns = cg.inclusion_columns()
        assert len(cg.projection_rows(columns)) == k + 1 == len(columns)
        assert all(0 <= i < 625 for col in columns for i in col)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m,n,channels", [(20, 20, (0, 2, 22, 40)), (24, 12, (12, 14, 26, 36))])
def test_cg_maps_beyond_oracle_range(m, n, channels):
    # The dense oracle is too slow at these sizes; check the defining
    # identities directly, on the integer rows: pi = (big/scale) X and
    # iota = Y/big, so pi * iota = Id is X*Y = scale*Id, and pi intertwines
    # E and F exactly when X does.
    (e_m, f_m, _), (e_n, f_n, _) = _irrep_rows(build_irrep(m)), _irrep_rows(build_irrep(n))
    big = {"e": _kron_sum(e_m, e_n), "f": _kron_sum(f_m, f_n)}
    dim = (m + 1) * (n + 1)
    for k in channels:
        small = dict(zip("efh", _irrep_rows(build_irrep(k))))
        cg = cg_maps(m, n, k)
        columns = cg.inclusion_columns()
        x = cg.projection_rows(columns)
        y = verify._transpose(columns, dim)
        assert _int_product(x, y) == [{i: cg.scale} for i in range(k + 1)], k
        for name, rows in big.items():
            assert _int_product(x, rows) == _int_product(small[name], x), (k, name)


def test_caches_stay_bounded():
    bound = sl2rep.CACHE_SIZE
    caches = (sl2rep.build_irrep, sl2rep.invariant_form, sl2rep._cg_system)
    assert all(cache.cache_info().maxsize == bound for cache in caches)
    sl2rep._cg_system.cache_clear()
    pairs = [(m, n) for m in range(24) for n in range(24 - m)]
    assert len(pairs) > bound
    for m, n in pairs:
        sl2rep._cg_system(m, n)
    info = sl2rep._cg_system.cache_info()
    assert (info.misses, info.currsize) == (len(pairs), bound)
    sl2rep._cg_system(*pairs[-1])
    assert sl2rep._cg_system.cache_info().hits == 1
    sl2rep._cg_system.cache_clear()


def test_cg_maps_singlet_of_two_spinors():
    proj, incl = _cg_dense(1, 1, 0)
    assert proj == [[0, Fraction(1, 2), Fraction(-1, 2), 0]]
    assert [row[0] for row in incl] == [0, 1, -1, 0]
    assert _mat_mul(proj, incl) == [[1]]


def test_cg_maps_biorthogonality_2_2():
    channels = cg_oracle(2, 2)
    assert channels == [0, 2, 4]
    proj0, incl0 = _cg_dense(2, 2, 0)
    assert _mat_mul(proj0, incl0) == [[1]]
    for k in (2, 4):
        _, incl_k = _cg_dense(2, 2, k)
        assert _mat_mul(proj0, incl_k) == [[0] * (k + 1)]


def test_cg_maps_completeness_2_2():
    dim = 9
    total = [[Fraction(0)] * dim for _ in range(dim)]
    for k in cg_oracle(2, 2):
        proj, incl = _cg_dense(2, 2, k)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, _mat_mul(incl, proj))]
    assert total == _identity(dim)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_cg_maps_intertwine(m, n):
    rows_m, rows_n = _irrep_rows(build_irrep(m)), _irrep_rows(build_irrep(n))
    dim = (m + 1) * (n + 1)
    for k in cg_oracle(m, n):
        small = _irrep_dense(build_irrep(k))
        proj, incl = _cg_dense(m, n, k)
        for name, x_m, x_n in zip("efh", rows_m, rows_n):
            big = _dense(_kron_sum(x_m, x_n), dim)
            assert _mat_mul(proj, big) == _mat_mul(small[name], proj)
            assert _mat_mul(big, incl) == _mat_mul(incl, small[name])


def test_cg_maps_channel_counts():
    for m in range(7):
        for n in range(7):
            channels = cg_oracle(m, n)
            assert len(channels) == min(m, n) + 1
            for k in channels:
                proj, incl = _cg_dense(m, n, k)
                assert len(proj) == k + 1 and len(incl) == (m + 1) * (n + 1)
                assert all(len(row) == k + 1 for row in incl)


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


def test_each_channel_builds_its_inclusion_columns_once(monkeypatch):
    # The projection rows are reflected from the columns the caller holds;
    # `sl2 --op cg` and `verify._channel_maps` each build them once per
    # channel.
    built = []
    columns = CGChannel.inclusion_columns
    monkeypatch.setattr(CGChannel, "inclusion_columns", lambda cg: built.append(cg) or columns(cg))
    assert run_cli(["sl2", "--op", "cg", "--m", "4", "--n", "3", "--k", "3"])[0] == 0
    assert len(built) == 1
    built.clear()
    _channel_maps(_cg_system(4, 3))
    assert len(built) == len(_cg_system(4, 3)) == 4
