"""Dense exact linear algebra used by the verify oracles."""

import random
from fractions import Fraction

from triplet import linalg


def _sparse_rat(rng: random.Random, density: float) -> Fraction:
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


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
