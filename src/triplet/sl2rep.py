"""Explicit sl2 irreducibles over Q: forms, Clebsch-Gordan maps, witnesses.

The (n+1)-dimensional module uses the integral convention: F steps down
the weight ladder with coefficient 1 and E steps up with k(n-k+1), so all
matrices, forms, and projection/inclusion systems stay over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .fusion import fuse_C


@dataclass(frozen=True)
class Irrep:
    """Highest weight n, with E, F, H acting on the basis v_0..v_n."""

    n: int
    e: tuple
    f: tuple
    h: tuple

    def matrices(self) -> dict[str, list]:
        return {"E": [list(r) for r in self.e], "F": [list(r) for r in self.f], "H": [list(r) for r in self.h]}


@dataclass(frozen=True)
class BilinForm:
    n: int
    matrix: tuple

    def pair(self, v: list, w: list) -> Fraction:
        bw = linalg.mat_vec([list(r) for r in self.matrix], w)
        return sum((vi * bi for vi, bi in zip(v, bw) if vi and bi), Fraction(0))


def _freeze(m: list) -> tuple:
    return tuple(tuple(row) for row in m)


@lru_cache(maxsize=None)
def build_irrep(n: int) -> Irrep:
    """The (n+1)-dimensional irreducible with E v_0 = 0 and F v_k = v_{k+1}."""
    if n < 0:
        raise ValueError(f"highest weight must be >= 0, got {n}")
    dim = n + 1
    e = linalg.zeros(dim, dim)
    f = linalg.zeros(dim, dim)
    h = linalg.zeros(dim, dim)
    for k in range(dim):
        h[k][k] = Fraction(n - 2 * k)
        if k + 1 < dim:
            f[k + 1][k] = Fraction(1)
        if k >= 1:
            e[k - 1][k] = Fraction(k * (n - k + 1))
    return Irrep(n=n, e=_freeze(e), f=_freeze(f), h=_freeze(h))


def bracket(a: list, b: list) -> list:
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def check_brackets(rep: Irrep) -> bool:
    """[H,E] = 2E, [H,F] = -2F, [E,F] = H, exactly."""
    e = [list(r) for r in rep.e]
    f = [list(r) for r in rep.f]
    h = [list(r) for r in rep.h]
    two_e = [[2 * x for x in row] for row in e]
    minus_two_f = [[-2 * x for x in row] for row in f]
    return (
        linalg.is_zero_matrix(linalg.mat_sub(bracket(h, e), two_e))
        and linalg.is_zero_matrix(linalg.mat_sub(bracket(h, f), minus_two_f))
        and linalg.is_zero_matrix(linalg.mat_sub(bracket(e, f), h))
    )


@lru_cache(maxsize=None)
def invariant_form(n: int) -> BilinForm:
    """The invariant bilinear form on the weight-n irreducible, in closed form.

    In the integral basis the form is antidiagonal, B[k][n-k] = (-1)^k.  It
    pairs weight n-2k only with weight 2k-n, so H-invariance holds by
    construction, and it pairs the highest- and lowest-weight vectors to 1.
    E- and F-invariance (X^T B + B X = 0) reduce to n two-term equations
    each, and nondegeneracy to a nonzero antidiagonal; both are checked
    here in O(n).  Uniqueness is checked against the nullspace solve in
    `verify`.
    """
    rep = build_irrep(n)
    dim = n + 1
    b = linalg.zeros(dim, dim)
    for k in range(dim):
        b[k][n - k] = Fraction(1 if k % 2 == 0 else -1)
    # E maps v_i to a multiple of v_{i-1} and F maps v_i to v_{i+1}, so the
    # only entries of X^T B + B X that can be nonzero lie on i + j = n + 1
    # for X = E and on i + j = n - 1 for X = F.
    for i in range(1, dim):
        j = n + 1 - i
        if rep.e[i - 1][i] * b[i - 1][j] + b[i][j - 1] * rep.e[j - 1][j]:
            raise AssertionError(f"invariant form on V_{n} is not E-invariant at ({i},{j})")
    for i in range(dim - 1):
        j = n - 1 - i
        if rep.f[i + 1][i] * b[i + 1][j] + b[i][j + 1] * rep.f[j + 1][j]:
            raise AssertionError(f"invariant form on V_{n} is not F-invariant at ({i},{j})")
    if any(b[k][n - k] == 0 for k in range(dim)):
        raise AssertionError(f"invariant form on V_{n} is degenerate")
    return BilinForm(n=n, matrix=_freeze(b))


@lru_cache(maxsize=None)
def _cg_system(m: int, n: int) -> dict[int, tuple[tuple, tuple]]:
    """All (projection, inclusion) pairs for V_m (x) V_n, keyed by channel.

    Inclusions are built by running F down from the highest-weight vector
    of each channel.  Every inclusion column is a weight vector, so the
    change-of-basis matrix is block diagonal by weight: the block of weight
    m+n-2s has the rows v_a (x) v_b with a + b = s and one column per
    channel that reaches that weight, at most min(m,n)+1 of each.
    Projections are the rows of the block inverses, which enforces
    biorthogonality and completeness by construction.  The dense inverse of
    the whole matrix is kept in `verify` as the oracle.
    """
    rep_m = build_irrep(m)
    rep_n = build_irrep(n)
    dim = (m + 1) * (n + 1)
    channels = fuse_C(m, n)
    # levels[s]: the pairs (a, b) with a + b = s, spanning weight m+n-2s.
    levels = [
        [(a, s - a) for a in range(max(0, s - n), min(m, s) + 1)] for s in range(m + n + 1)
    ]
    position = [{pair: i for i, pair in enumerate(level)} for level in levels]

    def highest_weight_vector(s: int) -> list[Fraction]:
        # Nullspace of E restricted to the columns of level s and the rows of
        # level s - 1 (weight k+2), the only rows E can reach.
        cols = levels[s]
        restricted = [[Fraction(0)] * len(cols) for _ in levels[s - 1]] if s else []
        for c, (a, b) in enumerate(cols):
            if a:
                restricted[position[s - 1][(a - 1, b)]][c] += rep_m.e[a - 1][a]
            if b:
                restricted[position[s - 1][(a, b - 1)]][c] += rep_n.e[b - 1][b]
        basis = linalg.nullspace(restricted or [[Fraction(0)] * len(cols)])
        if len(basis) != 1:
            raise AssertionError(
                f"channel {m + n - 2 * s} of V_{m} (x) V_{n} has multiplicity "
                f"{len(basis)}, expected 1"
            )
        lead = next(x for x in basis[0] if x)
        return [x / lead for x in basis[0]]

    def apply_f(vec: list[Fraction], s: int) -> list[Fraction]:
        # F(v_a (x) v_b) = v_{a+1} (x) v_b + v_a (x) v_{b+1}: level s to s+1.
        out = [Fraction(0)] * len(levels[s + 1])
        for (a, b), x in zip(levels[s], vec):
            if x:
                if a < m:
                    out[position[s + 1][(a + 1, b)]] += rep_m.f[a + 1][a] * x
                if b < n:
                    out[position[s + 1][(a, b + 1)]] += rep_n.f[b + 1][b] * x
        return out

    # blocks[s]: (channel, step down from its top, column on level s).
    blocks: list[list[tuple[int, int, list[Fraction]]]] = [[] for _ in levels]
    for k in channels:
        top = (m + n - k) // 2
        vec = highest_weight_vector(top)
        blocks[top].append((k, 0, vec))
        for step in range(1, k + 1):
            vec = apply_f(vec, top + step - 1)
            blocks[top + step].append((k, step, vec))

    proj = {k: [None] * (k + 1) for k in channels}
    incl_cols = {k: [None] * (k + 1) for k in channels}
    for s, block in enumerate(blocks):
        inverse = linalg.invert([list(row) for row in zip(*(col for _, _, col in block))])
        flat = [a * (n + 1) + b for a, b in levels[s]]
        for (k, step, col), inv_row in zip(block, inverse):
            proj_row = [Fraction(0)] * dim
            incl_col = [Fraction(0)] * dim
            for i, x, y in zip(flat, inv_row, col):
                proj_row[i] = x
                incl_col[i] = y
            proj[k][step] = proj_row
            incl_cols[k][step] = incl_col
    return {k: (_freeze(proj[k]), tuple(zip(*incl_cols[k]))) for k in channels}


def cg_maps(m: int, n: int, k: int) -> tuple[list, list]:
    """(projection, inclusion) for the channel V_k inside V_m (x) V_n.

    Both matrices intertwine E, F, H, the projection is a left inverse of
    the inclusion, and over all channels the composites sum to the
    identity on V_m (x) V_n.
    """
    system = _cg_system(m, n)
    if k not in system:
        raise ValueError(f"k={k} is not a channel of V_{m} (x) V_{n}")
    proj, incl = system[k]
    return [list(r) for r in proj], [list(r) for r in incl]


def simplicity_witness(n: int, v: list) -> list:
    """Some v' in V_{2n} with (v',v) != 0, off the invariant form.

    Exists for every nonzero v because the form is nondegenerate; the
    returned vector is a standard basis vector.
    """
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("the zero vector has no pairing witness")
    if len(v) != 2 * n + 1:
        raise ValueError(f"expected a vector in V_{2*n} of length {2*n+1}, got {len(v)}")
    form = invariant_form(2 * n)
    image = linalg.mat_vec([list(r) for r in form.matrix], v)
    for i, x in enumerate(image):
        if x:
            witness = [Fraction(0)] * (2 * n + 1)
            witness[i] = Fraction(1)
            if form.pair(witness, v) == 0:
                raise AssertionError(f"basis vector {i} does not pair with v under the form")
            return witness
    raise AssertionError("nondegenerate form produced a zero pairing image")
