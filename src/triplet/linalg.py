"""Exact linear algebra for the oracles in `verify`: fraction-free
elimination on sparse integer rows.

Only `verify` loads it: the production sl2 maps in `sl2rep` are closed
forms.  The oracles themselves (`verify.cg_system_oracle`,
`verify.invariant_form_oracle`) live in `verify` and build their systems as
sparse integer rows, `{column: int}` with no zero entry, which they reduce
with `_rref_int` and solve with `_kernel_int`.  `_rref_int` is
fraction-free Gauss-Jordan elimination (Bareiss, 1968, without the
exact-division step): rows are combined by integer cross-multiplication, and
each new row is divided by its content, the gcd of its entries.  The
systems are tall and sparse (the invariance system of V_8 has 232 rows over
81 columns, 104 of them one-entry rows), so it keeps the rows of each column
in an index, visits only those at each pivot, and pivots on the sparsest
candidate row (Markowitz, 1957): a one-entry pivot row clears its column by
deletion.  No Fraction is built here.
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

    At the end, row r < len(pivots) is the primitive integer multiple of row
    r of the reduced row echelon form, and every later row is empty.  The
    columns are taken in order; `holders[c]` is the set of rows with an
    entry in column c, kept exact through fill-in and cancellation, so a
    pivot visits only the rows it clears.  The pivot row of column c is the
    one with the fewest entries among the rows that are not pivot rows yet
    (Markowitz), divided by its content.  Clearing column c of row i
    against the pivot row P, whose entry there is p, replaces row i by
    (p*row - row[c]*P)/g with g = gcd(p, row[c]), then divides it by its
    content; when c is P's one entry, that is deleting row i's entry at c.
    """
    n_rows = len(rows)
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            column = holders.get(j)
            if column is None:
                holders[j] = {i}
            else:
                column.add(i)
    done = [False] * n_rows
    order: list[int] = []  # the pivot rows, by pivot column
    pivots: list[int] = []
    # Fill-in lands only on columns of a pivot row, so no column gains its
    # first entry, and column c is never read once it is cleared.
    for c in sorted(holders):
        if c >= cols:
            break
        rows_c = holders[c]
        candidates = [i for i in rows_c if not done[i]]
        if not candidates:
            continue
        pivot = candidates[0]
        if len(candidates) > 1:
            pivot = min(candidates, key=lambda i: len(rows[i]))
        prow = rows[pivot] = _primitive(rows[pivot])
        done[pivot] = True
        order.append(pivot)
        pivots.append(c)
        rows_c.discard(pivot)
        if len(prow) == 1:
            for i in rows_c:
                row = rows[i]
                del row[c]
                rows[i] = _primitive(row)
        else:
            p = prow[c]
            rest = [(j, y) for j, y in prow.items() if j != c]
            for i in rows_c:
                row = rows[i]
                x = row.pop(c)
                g = gcd(p, x)
                ps, xs = p // g, x // g
                new = row if ps == 1 else {j: ps * y for j, y in row.items()}
                for j, y in rest:
                    old = new.get(j)
                    if old is None:  # fill-in, by a nonzero entry
                        holders[j].add(i)
                        old = 0
                    z = old - xs * y
                    if z:
                        new[j] = z
                    else:
                        del new[j]
                        holders[j].discard(i)
                rows[i] = _primitive(new)
        if len(order) == n_rows:
            break
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if not done[i]]
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
