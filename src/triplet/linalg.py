"""Dense exact linear algebra over Fraction, for the oracles in `verify`.

Only `verify` loads it: the production sl2 maps in `sl2rep` are closed
forms.  The oracles themselves (`verify.cg_system_oracle`,
`verify.invariant_form_oracle`) live in `verify`; this module holds the
dense steps they are built from (nullspace solves, dense inverses, matrix
products).
Matrices are lists of rows of Fraction; a product also takes tuple rows.
Every zero entry written here is the shared `exactnum.ZERO`, and every
loop skips an entry that `is ZERO` before any Fraction method runs; other
zeros are still tested by value.  The arithmetic itself is on integers:
- A product accumulates integers over the row denominators of its left
  factor and the column denominators of its right one.
- `rref` is fraction-free Gauss-Jordan elimination (Bareiss, 1968, without
  the exact-division step): each row is scaled to a sparse integer row,
  rows are combined by integer cross-multiplication, and each new row is
  divided by its content, the gcd of its entries.
Both build one Fraction per nonzero entry of the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import ZERO

Matrix = list


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a*b, exactly.

    Row i of a is A_i/d_i and column j of b is B_j/e_j with A_i, B_j
    integral (d_i, e_j the lcm of the denominators), so entry (i,j) is the
    integer A_i . B_j over d_i*e_j.  Only nonzero entries are multiplied.
    """
    col_dens = [lcm(*[x.denominator for x in col if x is not ZERO]) for col in zip(*b)]
    # Row k of b times the column denominators: (j, integer) for each nonzero.
    b_int = [
        [
            (j, x.numerator * (col_dens[j] // x.denominator))
            for j, x in enumerate(brow)
            if x is not ZERO and x
        ]
        for brow in b
    ]
    out = []
    for arow in a:
        support = [(k, x) for k, x in enumerate(arow) if x is not ZERO and x]
        d = lcm(*[x.denominator for _, x in support])
        acc = [0] * len(col_dens)
        for k, x in support:
            ak = x.numerator * (d // x.denominator)
            for j, bkj in b_int[k]:
                acc[j] += ak * bkj
        out.append([Fraction(x, d * e) if x else ZERO for x, e in zip(acc, col_dens)])
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [
        [x if y is ZERO else -y if x is ZERO else x - y for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def mat_vec(a: Matrix, v: list) -> list:
    """a*v: one column of `mat_mul`'s integer accumulation.

    v is V/e with V integral, so entry i is the integer A_i . V over d_i*e,
    where d_i is the lcm of the denominators row i meets on the support of v.
    A row that meets none of it gives the shared ZERO at once.
    """
    e = lcm(*[x.denominator for x in v if x is not ZERO])
    v_int = [
        (j, x.numerator * (e // x.denominator)) for j, x in enumerate(v) if x is not ZERO and x
    ]
    out = []
    for row in a:
        terms = [(row[j], y) for j, y in v_int if row[j] is not ZERO and row[j]]
        if not terms:
            out.append(ZERO)
            continue
        d = lcm(*[x.denominator for x, _ in terms])
        acc = sum([x.numerator * (d // x.denominator) * y for x, y in terms])
        out.append(Fraction(acc, d * e) if acc else ZERO)
    return out


def _int_row(row) -> dict[int, int]:
    """The nonzero entries of a row of Fraction scaled to coprime integers,
    keyed by column; the scale is positive."""
    support = [(j, x) for j, x in enumerate(row) if x is not ZERO and x]
    d = lcm(*[x.denominator for _, x in support])
    out = {j: x.numerator * (d // x.denominator) for j, x in support}
    return _primitive(out)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: x // g for j, x in row.items()}
    return row


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Rows stay sparse integer rows throughout.  Clearing column c of row i
    against the pivot row P, whose entry there is p, replaces row i by
    (p*row - row[c]*P)/g with g = gcd(p, row[c]), then divides it by its
    content.  At the end, pivot row r divided by its pivot entry is row r
    of the reduced form.
    """
    rows = [_int_row(row) for row in a]
    n_rows = len(rows)
    cols = len(a[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n_rows) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n_rows):
            row = rows[i]
            x = row.get(c)
            if x is None or i == r:
                continue
            g = gcd(p, x)
            ps, xs = p // g, x // g
            new = row if ps == 1 else {j: ps * y for j, y in row.items()}
            for j, y in prow.items():
                z = new.get(j, 0) - xs * y
                if z:
                    new[j] = z
                else:
                    del new[j]
            rows[i] = _primitive(new)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    out = zeros(n_rows, cols)
    for row, out_row, c in zip(rows, out, pivots):
        p = row[c]
        for j, x in row.items():
            out_row[j] = Fraction(x, p)
    return out, pivots


def nullspace(a: Matrix) -> list[list]:
    """A basis of the right nullspace, one vector per free column."""
    if not a:
        return []
    reduced, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * cols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            x = reduced[row_idx][fc]
            vec[pc] = x if x is ZERO else -x
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
