"""Explicit sl2 irreducibles over Q: invariant forms and Clebsch-Gordan maps.

The (n+1)-dimensional module uses the integral convention: F steps down
the weight ladder with coefficient 1 and E steps up with k(n-k+1), so all
matrices, forms, and projection/inclusion systems stay over the rationals.
Every map here is a closed form built entry by entry; nothing is solved
or inverted.  The brute-force constructions they are checked against live
in `verify`, which is also the only module that loads `linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exactnum import CACHE_SIZE, ZERO, Value


class Irrep(Value):
    """Highest weight n, with E, F, H acting on the basis v_0..v_n."""

    __slots__ = ("n", "e", "f", "h")

    def __init__(self, n: int, e: tuple, f: tuple, h: tuple) -> None:
        self._assign(n, e, f, h)


class BilinForm(Value):
    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix: tuple) -> None:
        self._assign(n, matrix)


def _freeze(m: list) -> tuple:
    return tuple(tuple(row) for row in m)


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError(f"highest weight must be >= 0, got {n}")


@lru_cache(maxsize=CACHE_SIZE)
def build_irrep(n: int) -> Irrep:
    """The (n+1)-dimensional irreducible with E v_0 = 0 and F v_k = v_{k+1}."""
    _check_weight(n)
    dim = n + 1
    e = [[ZERO] * dim for _ in range(dim)]
    f = [[ZERO] * dim for _ in range(dim)]
    h = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim):
        h[k][k] = Fraction(n - 2 * k)
        if k + 1 < dim:
            f[k + 1][k] = Fraction(1)
        if k >= 1:
            e[k - 1][k] = Fraction(k * (n - k + 1))
    return Irrep(n=n, e=_freeze(e), f=_freeze(f), h=_freeze(h))


@lru_cache(maxsize=CACHE_SIZE)
def invariant_form(n: int) -> BilinForm:
    """The invariant bilinear form on the weight-n irreducible, in closed form.

    In the integral basis the form is antidiagonal, B[k][n-k] = (-1)^k.  It
    pairs weight n-2k only with weight 2k-n, so H-invariance holds by
    construction, and it pairs the highest- and lowest-weight vectors to 1.
    E- and F-invariance (X^T B + B X = 0) reduce to n two-term equations
    each, checked here in O(n).  Nondegeneracy holds by construction, since
    every antidiagonal entry is +-1; `verify` checks the rank, and checks
    uniqueness against the nullspace solve.
    """
    rep = build_irrep(n)
    dim = n + 1
    b = [[ZERO] * dim for _ in range(dim)]
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
    return BilinForm(n=n, matrix=_freeze(b))


def cg_maps(m: int, n: int, k: int) -> tuple[list, list]:
    """(projection, inclusion) for the channel V_k inside V_m (x) V_n.

    Both matrices intertwine E, F, H, the projection is a left inverse of
    the inclusion, and over all channels the composites sum to the
    identity on V_m (x) V_n.  Only channel k is built, in closed form:

    - The highest-weight vector sits on level s = (m+n-k)/2, the span of
      v_a (x) v_b with a + b = s.  E kills it exactly when its coefficients
      obey c_a = -c_{a-1} (b+1)(n-b) / (a(m-a+1)) with b = s - a, and
      c_a = 1 at the first a = max(0, s-n).
    - Inclusion column j is F^j of that vector, applied sparsely, using
      F(v_a (x) v_b) = v_{a+1} (x) v_b + v_a (x) v_{b+1}.
    - With B = B_m (x) B_n the invariant form, which pairs v_a (x) v_b only
      with v_{m-a} (x) v_{n-b}, by the sign (-1)^{a+b}, projection row i is
      (-1)^{k-i} (iota e_{k-i})^T B / c_k, where c_k = <iota e_0, iota e_k>_B.
      Column k-i lies on level s+k-i, so the two signs multiply to (-1)^s:
      row i holds column k-i read at (m-a, n-b), divided by (-1)^s c_k.
      A zero c_k raises; no inverse is taken.

    The arithmetic is on integers: the columns hold D times the true
    coefficients, D the lcm of the top's denominators, and each entry
    becomes one Fraction at the end.
    """
    _check_weight(m)
    _check_weight(n)
    if not (abs(m - n) <= k <= m + n and (m + n - k) % 2 == 0):
        raise ValueError(f"k={k} is not a channel of V_{m} (x) V_{n}")
    s = (m + n - k) // 2
    # The recurrence as reduced fractions c_a = num/den, then the top as T/D
    # with T integral and D the lcm of the den.
    first = max(0, s - n)
    num, den = 1, 1
    coeffs = {first: (num, den)}
    for a in range(first + 1, min(m, s) + 1):
        b = s - a
        num, den = -num * (b + 1) * (n - b), den * a * (m - a + 1)
        g = gcd(num, den)
        num, den = num // g, den // g
        coeffs[a] = (num, den)
    big = lcm(*[den for _, den in coeffs.values()])
    top = {a: num * (big // den) for a, (num, den) in coeffs.items()}
    # columns[j]: a -> D times the coefficient of v_a (x) v_{s+j-a} in F^j
    # of the top, an integer.
    columns = [top]
    for level in range(s, s + k):
        down: dict[int, int] = {}
        for a, x in columns[-1].items():
            if a < m:
                down[a + 1] = down.get(a + 1, 0) + x
            if level - a < n:
                down[a] = down.get(a, 0) + x
        columns.append(down)
    # D^2 (-1)^s c_k: the top paired with the bottom of the channel.
    scale = sum([x * columns[k].get(m - a, 0) for a, x in top.items()])
    if scale == 0:
        raise AssertionError(f"channel {k} of V_{m} (x) V_{n} pairs to zero under the form")
    dim = (m + 1) * (n + 1)
    proj = [[ZERO] * dim for _ in range(k + 1)]
    incl = [[ZERO] * (k + 1) for _ in range(dim)]
    for j, column in enumerate(columns):
        row = proj[k - j]
        for a, x in column.items():
            b = s + j - a
            incl[a * (n + 1) + b][j] = Fraction(x, big)
            row[(m - a) * (n + 1) + n - b] = Fraction(x * big, scale)
    return proj, incl


@lru_cache(maxsize=CACHE_SIZE)
def _cg_system(m: int, n: int) -> dict[int, tuple[tuple, tuple]]:
    """All frozen (projection, inclusion) pairs for V_m (x) V_n, by channel.

    One closed-form `cg_maps` call per channel.  `verify.cg_system_oracle`
    builds the same dict from the nullspace of E and the dense inverse of
    the whole change of basis, and the `sl2rep` suite compares the two.
    """
    _check_weight(m)
    _check_weight(n)
    return {k: tuple(map(_freeze, cg_maps(m, n, k))) for k in range(abs(m - n), m + n + 1, 2)}
