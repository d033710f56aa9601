"""Dense exact linear algebra over Fraction, for the oracles in `verify`.

Only `verify` loads it: the production sl2 maps in `sl2rep` are closed
forms, and this module builds the brute-force constructions they are
checked against (nullspace solves, dense inverses, matrix products).
Matrices are lists of lists of Fraction.  Elimination and products skip
zero entries, which keeps the very sparse invariance systems fast despite
the dense layout.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_vec(a: Matrix, v: list) -> list:
    support = [j for j, x in enumerate(v) if x]
    return [sum((row[j] * v[j] for j in support if row[j]), Fraction(0)) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        # Columns left of c are already zero in the pivot row; only its
        # nonzero entries change the other rows.
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


def nullspace(a: Matrix) -> list[list]:
    """A basis of the right nullspace, one vector per free column."""
    if not a:
        return []
    reduced, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][fc]
        basis.append(vec)
    return basis


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises on singular input."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]
