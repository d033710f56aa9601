"""Dense exact linear algebra used by the verify oracles."""

import random
from fractions import Fraction

from triplet import linalg


def _sparse_rat(rng: random.Random, density: float, num: int = 9, den: int = 6) -> Fraction:
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def test_mat_vec_equals_the_dense_sum():
    rng = random.Random(20251)
    for _ in range(200):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        a = [[_sparse_rat(rng, density) for _ in range(cols)] for _ in range(rows)]
        v = [_sparse_rat(rng, rng.choice((0.0, 0.3, 1.0))) for _ in range(cols)]
        dense = [sum((row[j] * v[j] for j in range(cols)), Fraction(0)) for row in a]
        out = linalg.mat_vec(a, v)
        assert out == dense
        assert all(type(x) is Fraction for x in out)


def test_mat_mul_equals_the_dense_sum():
    rng = random.Random(20252)
    for _ in range(300):
        rows, inner, cols = (rng.randint(0, 8) for _ in range(3))
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        a = [[_sparse_rat(rng, density, 10**6, 10**6) for _ in range(inner)] for _ in range(rows)]
        b = [[_sparse_rat(rng, density, 10**6, 10**6) for _ in range(cols)] for _ in range(inner)]
        # Some rows as tuples, as `sl2rep._cg_system` stores them.
        a = [tuple(row) if rng.random() < 0.3 else row for row in a]
        b = [tuple(row) if rng.random() < 0.3 else row for row in b]
        # With no inner dimension b has no rows, and the product no columns.
        out_cols = cols if inner else 0
        dense = [
            [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(out_cols)]
            for i in range(rows)
        ]
        out = linalg.mat_mul(a, b)
        assert out == dense
        assert all(type(x) is Fraction for row in out for x in row)
    # `zeros` shares its zero entry, never its rows.
    m = linalg.zeros(3, 2)
    m[0][0] = Fraction(1)
    assert m == [[1, 0], [0, 0], [0, 0]]
    assert len({id(row) for row in linalg.zeros(4, 0)}) == 4
