"""Explicit sl2 irreducibles over Q: invariant forms and Clebsch-Gordan maps.

The (n+1)-dimensional module uses the integral convention: F steps down
the weight ladder with coefficient 1 and E steps up with k(n-k+1), so all
matrices, forms, and projection/inclusion systems stay over the rationals.
Every map here is a closed form built entry by entry; nothing is solved
or inverted.  Each value holds only its nonzero entries, as integers: the
bands of E and H, the antidiagonal of the form, and the sparse columns of
a Clebsch-Gordan inclusion with their two common denominators.  So a value
takes memory in proportion to its nonzero entries, and `cli` expands the
dense matrices only as it writes them.  The brute-force constructions they
are checked against live in `verify`, which is also the only module that
loads `linalg`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .base import CACHE_SIZE, Value


class Irrep(Value):
    """Highest weight n on the basis v_0..v_n, by its nonzero bands.

    E v_k = e[k-1] v_{k-1} for k = 1..n, H v_k = h[k] v_k, and
    F v_k = v_{k+1}, so F's band is all ones and is not stored.
    """

    __slots__ = ("n", "e", "h")

    def __init__(self, n: int, e: tuple, h: tuple) -> None:
        self._assign(n, e, h)


class BilinForm(Value):
    """The form on V_n by its antidiagonal: B[k][n-k] = signs[k], zero
    elsewhere."""

    __slots__ = ("n", "signs")

    def __init__(self, n: int, signs: tuple) -> None:
        self._assign(n, signs)


class CGChannel(Value):
    """Channel V_k of V_m (x) V_n, as integers.

    columns[j] holds (a, x), by increasing a, for each nonzero entry of
    inclusion column j: it is x/big at v_a (x) v_{s+j-a}.  Projection row
    k-j is column j read at v_{m-a} (x) v_{n-s-j+a}, times big/scale.  The
    flat index of v_a (x) v_b is a(n+1) + b, so that reflection sends flat
    index i to dim-1-i.
    """

    __slots__ = ("m", "n", "k", "s", "big", "scale", "columns")

    def __init__(
        self, m: int, n: int, k: int, s: int, big: int, scale: int, columns: tuple
    ) -> None:
        self._assign(m, n, k, s, big, scale, columns)

    def inclusion_columns(self) -> list[dict[int, int]]:
        """Inclusion column j as {flat index: x}; the column is x/big."""
        stride, s = self.n + 1, self.s
        return [
            {a * stride + s + j - a: x for a, x in column} for j, column in enumerate(self.columns)
        ]

    def projection_rows(self, columns: list[dict[int, int]] | None = None) -> list[dict[int, int]]:
        """Projection row i as {flat index: x}; the row is x*big/scale.
        Row i is inclusion column k-i reflected, read from `columns`, the
        `inclusion_columns()` a caller already holds, or built here."""
        last = (self.m + 1) * (self.n + 1) - 1
        if columns is None:
            columns = self.inclusion_columns()
        return [{last - i: x for i, x in column.items()} for column in reversed(columns)]


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError(f"highest weight must be >= 0, got {n}")


def check_channel(m: int, n: int, k: int) -> None:
    """Raise ValueError unless m, n >= 0 and V_k is a channel of V_m (x) V_n."""
    _check_weight(m)
    _check_weight(n)
    if not (abs(m - n) <= k <= m + n and (m + n - k) % 2 == 0):
        raise ValueError(f"k={k} is not a channel of V_{m} (x) V_{n}")


@lru_cache(maxsize=CACHE_SIZE)
def build_irrep(n: int) -> Irrep:
    """The (n+1)-dimensional irreducible with E v_0 = 0 and F v_k = v_{k+1}."""
    _check_weight(n)
    e = tuple(k * (n - k + 1) for k in range(1, n + 1))
    return Irrep(n=n, e=e, h=tuple(range(n, -n - 1, -2)))


@lru_cache(maxsize=CACHE_SIZE)
def invariant_form(n: int) -> BilinForm:
    """The invariant bilinear form on the weight-n irreducible, in closed form.

    In the integral basis the form is antidiagonal, B[k][n-k] = (-1)^k.  It
    pairs weight n-2k only with weight 2k-n, so H-invariance holds by
    construction, and it pairs the highest- and lowest-weight vectors to 1.
    E- and F-invariance (X^T B + B X = 0) reduce to n two-term equations
    each, checked here in O(n) from the coefficients of E and F.
    Nondegeneracy holds by construction, since every antidiagonal entry is
    +-1; `verify` checks the rank, and checks uniqueness against the
    integer kernel of the whole invariance system.
    """
    _check_weight(n)
    signs = tuple(1 if k % 2 == 0 else -1 for k in range(n + 1))
    # E maps v_i to i(n-i+1) v_{i-1} and F maps v_i to v_{i+1}, so the only
    # entries of X^T B + B X that can be nonzero lie on i + j = n + 1 for
    # X = E, where the entry is E_i B[i-1][j] + B[i][j-1] E_j, and on
    # i + j = n - 1 for X = F, where it is B[i+1][j] + B[i][j+1].
    for i in range(1, n + 1):
        j = n + 1 - i
        if i * (n - i + 1) * signs[i - 1] + signs[i] * j * (n - j + 1):
            raise AssertionError(f"invariant form on V_{n} is not E-invariant at ({i},{j})")
    for i in range(n):
        if signs[i + 1] + signs[i]:
            raise AssertionError(f"invariant form on V_{n} is not F-invariant at ({i},{n-1-i})")
    return BilinForm(n=n, signs=signs)


def cg_maps(m: int, n: int, k: int) -> CGChannel:
    """Projection and inclusion for the channel V_k inside V_m (x) V_n.

    Both maps intertwine E, F, H, the projection is a left inverse of the
    inclusion, and over all channels the composites sum to the identity on
    V_m (x) V_n.  Only channel k is built, in closed form:

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

    The arithmetic is on integers: the columns hold big times the true
    coefficients, big the lcm of the top's denominators, and
    scale = big^2 (-1)^s c_k.  Nothing else is stored (`CGChannel`).
    """
    check_channel(m, n, k)
    s = (m + n - k) // 2
    # The recurrence as reduced fractions c_a = num/den, then the top as
    # T/big with T integral and big the lcm of the den.
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
    # columns[j]: a -> big times the coefficient of v_a (x) v_{s+j-a} in F^j
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
    # big^2 (-1)^s c_k: the top paired with the bottom of the channel.
    scale = sum([x * columns[k].get(m - a, 0) for a, x in top.items()])
    if scale == 0:
        raise AssertionError(f"channel {k} of V_{m} (x) V_{n} pairs to zero under the form")
    kept = tuple(tuple(sorted((a, x) for a, x in column.items() if x)) for column in columns)
    return CGChannel(m=m, n=n, k=k, s=s, big=big, scale=scale, columns=kept)


@lru_cache(maxsize=CACHE_SIZE)
def _cg_system(m: int, n: int) -> dict[int, CGChannel]:
    """Every channel of V_m (x) V_n, by k: one closed-form `cg_maps` call each.

    `verify.cg_system_oracle` builds the same system by elimination on
    integers, from the integer kernel of E on each weight space and the
    reduction of the augmented change of basis [C D | Id], and the
    `sl2rep` suite compares the two.
    """
    _check_weight(m)
    _check_weight(n)
    return {k: cg_maps(m, n, k) for k in range(abs(m - n), m + n + 1, 2)}
