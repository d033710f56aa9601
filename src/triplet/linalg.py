"""Exact linear algebra for the oracles in `verify`: fraction-free
elimination on sparse integer rows.

Only `verify` loads it: the production sl2 maps in `sl2rep` are closed
forms.  The oracles themselves (`verify.cg_system_oracle`,
`verify.invariant_form_oracle`) live in `verify` and build their systems as
sparse integer rows, `{column: int}` with no zero entry, which they reduce
with `_rref_int` and solve with `_kernel_int`.  `_rref_int` is
fraction-free Gauss-Jordan elimination (Bareiss, 1968, without the
exact-division step): rows are combined by integer cross-multiplication, and
each new row is divided by its content, the gcd of its entries.  No
Fraction is built here.
"""

from __future__ import annotations

from math import gcd, lcm


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
