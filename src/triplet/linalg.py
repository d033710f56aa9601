"""Exact linear algebra for the oracles in `verify`: an integer elimination
core and the Fraction steps still read over Fraction.

Only `verify` loads it: the production sl2 maps in `sl2rep` are closed
forms.  The oracles themselves (`verify.cg_system_oracle`,
`verify.invariant_form_oracle`) live in `verify` and build their systems as
sparse integer rows, `{column: int}` with no zero entry, which they reduce
with `_rref_int` and solve with `_kernel_int`.  `_rref_int` is
fraction-free Gauss-Jordan elimination (Bareiss, 1968, without the
exact-division step): rows are combined by integer cross-multiplication, and
each new row is divided by its content, the gcd of its entries.
The Fraction entry points:
- `rref` scales each row to a sparse integer row, reduces them with
  `_rref_int` and builds one Fraction per nonzero entry of the result;
- `mat_mul` accumulates integers over the row denominators of its left
  factor and the column denominators of its right one, and builds one
  Fraction per nonzero entry of the product.
Matrices are lists of rows of Fraction; a product also takes tuple rows.
Every zero entry written here is the shared `exactnum.ZERO`, and every loop
skips an entry that `is ZERO` before any Fraction method runs; other zeros
are still tested by value.
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


def _rref_int(rows: list[dict[int, int]], cols: int) -> list[int]:
    """Reduce sparse integer rows over `cols` columns in place, and return
    the pivot columns.

    Clearing column c of row i against the pivot row P, whose entry there
    is p, replaces row i by (p*row - row[c]*P)/g with g = gcd(p, row[c]),
    then divides it by its content.  At the end, row r < len(pivots) divided
    by its entry at pivots[r] is row r of the reduced row echelon form, and
    every later row is empty.
    """
    n_rows = len(rows)
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
    return pivots


def _kernel_int(rows: list[dict[int, int]], cols: int) -> list[dict[int, int]]:
    """A basis of the right kernel of sparse integer rows, one sparse integer
    vector per free column, in column order; `rows` is reduced in place.

    The vector of free column f is L at f and -R_r[f] (L / p_r) at pivot
    column r, where R_r is reduced row r, p_r its pivot entry and L the lcm
    of the p_r with R_r[f] nonzero: L times the Fraction basis vector that
    is 1 at f.
    """
    pivots = _rref_int(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        terms = [(c, row[c], row[f]) for c, row in zip(pivots, rows) if f in row]
        big = lcm(*[p for _, p, _ in terms])
        vec = {f: big}
        for c, p, x in terms:
            vec[c] = -x * (big // p)
        basis.append(vec)
    return basis


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns, by `_rref_int`
    on the rows scaled to primitive integer rows."""
    rows = [_int_row(row) for row in a]
    cols = len(a[0]) if a else 0
    pivots = _rref_int(rows, cols)
    out = zeros(len(rows), cols)
    for row, out_row, c in zip(rows, out, pivots):
        p = row[c]
        for j, x in row.items():
            out_row[j] = Fraction(x, p)
    return out, pivots
