"""Exact linear algebra used by the verify oracles: the integer core against
Fraction Gauss-Jordan, and the sparse integer product."""

import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import mutant
from triplet import linalg
from triplet.verify import _int_product

# The zero the seeded cases share; each case is also replayed with distinct
# zero objects.
ZERO = Fraction(0)


def _sparse_int(rng: random.Random, density: float, size: int = 9) -> int:
    return rng.randint(-size, size) if rng.random() < density else 0


def _sparse_rows(dense: list) -> list:
    """Dense integer rows as sparse rows {column: int} with no zero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def test_mat_vec_equals_the_dense_sum():
    # A matrix times a vector is `_int_product` with a one-column right factor.
    rng = random.Random(20251)
    for _ in range(200):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        a = [[_sparse_int(rng, density) for _ in range(cols)] for _ in range(rows)]
        v = [_sparse_int(rng, rng.choice((0.0, 0.3, 1.0))) for _ in range(cols)]
        dense = [sum(row[j] * v[j] for j in range(cols)) for row in a]
        out = _int_product(_sparse_rows(a), _sparse_rows([[x] for x in v]))
        assert out == _sparse_rows([[x] for x in dense])
        assert all(type(x) is int and x for row in out for x in row.values())


def test_mat_mul_equals_the_dense_sum():
    rng = random.Random(20252)
    for _ in range(300):
        rows, inner, cols = (rng.randint(0, 8) for _ in range(3))
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        a = [[_sparse_int(rng, density, 10**6) for _ in range(inner)] for _ in range(rows)]
        b = [[_sparse_int(rng, density, 10**6) for _ in range(cols)] for _ in range(inner)]
        dense = [
            [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]
        out = _int_product(_sparse_rows(a), _sparse_rows(b))
        assert out == _sparse_rows(dense)
        assert all(type(x) is int and x for row in out for x in row.values())
    # `_zeros`, which `_rref` fills in, shares its zero entry, never its rows.
    m = _zeros(3, 2)
    m[0][0] = Fraction(1)
    assert m == [[1, 0], [0, 0], [0, 0]]
    assert len({id(row) for row in _zeros(4, 0)}) == 4


def _rref_oracle(a):
    """Gauss-Jordan over Fraction, pivot row by pivot row: the oracle for
    the fraction-free integer core."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        support = [j for j in range(c, cols) if prow[j]]
        inv = 1 / prow[c]
        for j in support:
            prow[j] *= inv
        for i in range(rows):
            row = m[i]
            if i != r and row[c]:
                factor = row[c]
                for j in support:
                    row[j] -= factor * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _nullspace_oracle(a):
    if not a:
        return []
    reduced, pivots = _rref_oracle(a)
    cols = len(a[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0) for _ in range(cols)]
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][fc]
        basis.append(vec)
    return basis


def _invert_oracle(a):
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = _rref_oracle(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def _dense_product(a, b):
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def _signed_rat(rng: random.Random, density: float, size: int = 10**6) -> Fraction:
    if rng.random() >= density:
        return ZERO
    return Fraction(rng.randint(-size, size), rng.choice((-1, 1)) * rng.randint(1, size))


def _elimination_cases():
    """Seeded matrices: every shape up to 9 x 9, empty ones included, at
    densities 0 to 1, some rank-deficient and some with all-zero rows; and
    tall sparse ones, as the oracles' systems are (`_tall_sparse_cases`)."""
    rng = random.Random(20253)
    cases = []
    for rows in range(10):
        for cols in range(10):
            density = (0.0, 0.2, 0.5, 1.0)[(rows + cols) % 4]
            a = [[_signed_rat(rng, density) for _ in range(cols)] for _ in range(rows)]
            if rows and rng.random() < 0.3:
                a[rng.randrange(rows)] = [ZERO] * cols
            cases.append(a)
            rank = rng.randint(0, max(0, min(rows, cols) - 1))
            left = [[_signed_rat(rng, 1.0) for _ in range(rank)] for _ in range(rows)]
            right = [[_signed_rat(rng, density) for _ in range(cols)] for _ in range(rank)]
            product = _dense_product(left, right) if rank else [[ZERO] * cols for _ in range(rows)]
            cases.append([[x if x else ZERO for x in row] for row in product])
    return cases + _tall_sparse_cases()


def _tall_sparse_cases():
    """Seeded tall sparse matrices of small entries, up to 40 x 16, as the
    oracles' systems are.  A third of the rows of some hold one entry, so
    their pivots clear a column by deletion; the pivot rows of the sparse
    ones hold entries the rows they clear lack, so those rows fill in; and
    some repeat a row or add up two, so that rows cancel to zero, entry by
    entry."""
    rng = random.Random(20254)
    cases = []
    for rows, cols in [(12, 4), (16, 7), (24, 9), (30, 12), (40, 16)]:
        for density in (0.15, 0.3):
            a = [[_signed_rat(rng, density, 9) for _ in range(cols)] for _ in range(rows)]
            cases.append(a)
            one_entry = [list(row) for row in a]
            for i in rng.sample(range(rows), rows // 3):
                one_entry[i] = [ZERO] * cols
                one_entry[i][rng.randrange(cols)] = _signed_rat(rng, 1.0, 9)
            cases.append(one_entry)
            cancelling = [list(row) for row in a]
            for i in rng.sample(range(rows), rows // 4):
                j, k = rng.randrange(rows), rng.randrange(rows)
                cancelling[i] = [x + y for x, y in zip(a[j], a[k])] if j != k else list(a[j])
            cases.append([[x if x else ZERO for x in row] for row in cancelling])
    return cases


def _with_distinct_zeros(a):
    return [[x if x else Fraction(0) for x in row] for row in a]


def _zeros(rows: int, cols: int) -> list:
    return [[ZERO] * cols for _ in range(rows)]


def _int_row(row) -> dict[int, int]:
    """A row of Fraction scaled to a primitive sparse integer row, the scale
    positive."""
    support = [(j, x) for j, x in enumerate(row) if x]
    d = lcm(*[x.denominator for _, x in support])
    return linalg._primitive({j: x.numerator * (d // x.denominator) for j, x in support})


def _rref(a):
    """The reduced row echelon form of a matrix of Fraction and its pivot
    columns, by `linalg._rref_int` on its rows scaled to integer rows."""
    rows = [_int_row(row) for row in a]
    cols = len(a[0]) if a else 0
    pivots = linalg._rref_int(rows, cols)
    out = _zeros(len(rows), cols)
    for row, out_row, c in zip(rows, out, pivots):
        for j, x in row.items():
            out_row[j] = Fraction(x, row[c])
    return out, pivots


def _kernel(a):
    """The kernel basis of `linalg._kernel_int` on the rows of a scaled to
    integers, each vector divided by its entry at its free column."""
    cols = len(a[0]) if a else 0
    basis = linalg._kernel_int([_int_row(row) for row in a], cols)
    # The other entries sit on pivot columns left of the free one.
    return [[Fraction(vec.get(j, 0), vec[max(vec)]) for j in range(cols)] for vec in basis]


def _identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _inverse(a):
    """The right half of the reduced [a | Id], or None unless its pivots are
    the columns of a: the inverse of a square a by `linalg._rref_int`."""
    n = len(a)
    reduced, pivots = _rref([list(row) + row_id for row, row_id in zip(a, _identity(n))])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def _check_elimination_equals_the_oracle(cases):
    singular = 0
    for a in cases:
        assert _rref(a) == _rref_oracle(a)
        basis = _kernel(a)
        assert basis == _nullspace_oracle(a)
        for vec in basis:
            assert all(x == 0 for row in _dense_product(a, [[x] for x in vec]) for x in row)
        if len(a) != (len(a[0]) if a else 0):
            continue
        expected = _invert_oracle(a)
        if expected is None:
            singular += 1
            assert _inverse(a) is None
            continue
        inverse = _inverse(a)
        assert inverse == expected
        assert _dense_product(inverse, a) == _identity(len(a))
    return singular


def test_fraction_free_elimination_equals_the_fraction_oracle():
    cases = _elimination_cases()
    with_zero_row = [a for a in cases if any(a) and not all(any(row) for row in a)]
    assert len(with_zero_row) >= 20
    singular = _check_elimination_equals_the_oracle(cases)
    assert singular >= 10
    # Each zero a distinct Fraction(0): no result depends on which zero
    # object an entry is.
    distinct = [_with_distinct_zeros(a) for a in cases]
    assert not any(x is ZERO for a in distinct for row in a for x in row)
    assert _check_elimination_equals_the_oracle(distinct) == singular


def test_elimination_check_catches_a_wrong_integer_core(monkeypatch):
    # Scaling the pivot row by the entry x it clears, not by x / gcd(p, x),
    # goes wrong as soon as gcd(p, x) > 1; `_rref` and `_kernel_int` both
    # reduce through `_rref_int`.
    monkeypatch.setattr(linalg, "_rref_int", mutant(linalg._rref_int, "xs * y", "x * y"))
    with pytest.raises(AssertionError):
        _check_elimination_equals_the_oracle(_elimination_cases())


def test_elimination_check_catches_a_column_index_left_behind_on_fill_in(monkeypatch):
    # A row that gains an entry in column j by fill-in, but not a place in
    # the column's index, is never cleared at j.
    wrong = mutant(linalg._rref_int, "holders[j].add(i)", "pass")
    monkeypatch.setattr(linalg, "_rref_int", wrong)
    with pytest.raises(AssertionError):
        _check_elimination_equals_the_oracle(_tall_sparse_cases())


def test_elimination_check_catches_a_column_index_left_behind_on_cancellation(monkeypatch):
    # A row whose entry in column j cancels, but that keeps its place in the
    # column's index, is cleared or taken as the pivot at j by an entry it
    # no longer holds.
    wrong = mutant(linalg._rref_int, "holders[j].discard(i)", "pass")
    monkeypatch.setattr(linalg, "_rref_int", wrong)
    with pytest.raises((AssertionError, KeyError)):
        _check_elimination_equals_the_oracle(_tall_sparse_cases())
