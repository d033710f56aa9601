"""Braiding scalars, balancing phases, and the hexagon-constrained F-matrix.

The self-braiding eigenvalue of L_n (x) L_n on channel k is
R_n^k = e^{i*pi*(pq*n^2 + 2n - k)/2} = e^{i*pi*pq*n^2/2} * (-1)^{n-k/2}:
a scalar twist times the eigenvalue of the flip on channel k of
V_n (x) V_n in Rep SL_2.  It is the weight formula
e^{i*pi*(h_{(k+2)p-1,1} - 2h_{(n+2)p-1,1})} in closed form, and `verify`
keeps that formula as its oracle.  For even n the twist is 1, so the even
L_n carry Rep PSL_2's symmetric braiding.  The tabulated values on
L_1 (x) L_1 are the formula times -1; both square to the balancing phase,
and the hexagon constraint is blind to the sign.

Scalars are exact: F-matrix entries are `Fraction`s, and each braiding
scalar is one root of unity, a ``Phase`` stored as a rational multiple of
pi.  Importing this module loads the Fraction stack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

from .base import Value, slot_setters
from .virasoro import Params

# The zero exponent that every phase of exponent 0 stores; a zero that is
# another object still compares equal by value.
_ZERO = Fraction(0)


class Phase(Value):
    """The root of unity e^{i*pi*exponent} with exponent rational mod 2.

    Exponents of e^{i*pi*(-)} rather than e^{2*pi*i*(-)} because the
    braiding scalars are half-integer multiples of conformal weights.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Fraction) -> None:
        if exponent.__class__ is not Fraction and exponent.__class__ is not int:
            exponent = Fraction(exponent)
        _set_exponent(self, _mod2(exponent.numerator, exponent.denominator))

    # Hashed and compared in the inner loops of `verify`, so the field tuple
    # is spelled out rather than built by `Value`.
    def __eq__(self, other):
        if other.__class__ is Phase:
            return self.exponent == other.exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponent,))

    def __mul__(self, other: "Phase") -> "Phase":
        a, b = self.exponent, other.exponent
        num = a.numerator * b.denominator + b.numerator * a.denominator
        return _phase(num, a.denominator * b.denominator)

    def __pow__(self, k: int) -> "Phase":
        return _phase(k * self.exponent.numerator, self.exponent.denominator)


(_set_exponent,) = slot_setters(Phase)


def _mod2(num: int, den: int) -> Fraction:
    """num/den mod 2, in [0, 2), as one Fraction: (num mod 2*den)/den.

    The residue differs from num by a multiple of 2*den, so over den it is
    num/den minus an even integer.  A zero residue is the shared ``_ZERO``.
    """
    residue = num % (2 * den)
    return Fraction(residue, den) if residue else _ZERO


def _phase(num: int, den: int) -> Phase:
    """Phase(num/den) from integers, for the products of two phases."""
    out = object.__new__(Phase)
    _set_exponent(out, _mod2(num, den))
    return out


# The gauge of the Parametrized family: F(t) = D_t F(1) D_t^-1 with
# D_t = diag(t, 1) in channel order (0, 2), so entry (i, j) of F(t) is that
# of F(1) times t^GAUGE_EXPONENTS[i][j].
GAUGE_EXPONENTS = ((0, 1), (-1, 0))


class FMatrix(Value):
    """The 2x2 change-of-bracketing matrix on the channels {0,2}.

    Entries are rationals.  A matrix of the Parametrized family is stored
    as its gauge-fixed t = 1 member; ``evaluate`` gives any other member.
    """

    __slots__ = ("f00", "f02", "f20", "f22")

    def __init__(self, f00, f02, f20, f22) -> None:
        entries = (f00, f02, f20, f22)
        self._assign(*[x if x.__class__ is Fraction else Fraction(x) for x in entries])

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.f00, self.f02, self.f20, self.f22)

    def determinant(self) -> Fraction:
        a, b, c, d = self.entries()
        return a * d - b * c

    def evaluate(self, t0: Fraction) -> "FMatrix":
        """The gauge conjugate D_{t0} F D_{t0}^-1: F02 times t0, F20 over t0."""
        return FMatrix(self.f00, self.f02 * t0, self.f20 / t0, self.f22)


class FSolution(Value):
    """One invertible solution family of the hexagon constraint.

    Diagonal: epsilon * Id with epsilon = (-1)^{pq}.
    Parametrized: the gauge-fixed member [[-epsilon/2, 1], [-3/4, -epsilon/2]]
    of the family D_t F D_t^-1, whose off-diagonal entries are t and -3/(4t).
    """

    __slots__ = ("kind", "epsilon", "matrix")

    def __init__(self, kind: Literal["Diagonal", "Parametrized"], epsilon: int, matrix: FMatrix) -> None:
        self._assign(kind, epsilon, matrix)


def _epsilon(params: Params) -> int:
    return -1 if (params.p * params.q) % 2 else 1


def r_scalar_table(params: Params, k: int) -> Phase:
    """Tabulated self-braiding eigenvalues of L_1 (x) L_1: only k = 0 and 2.

    R_1^0 = e^{i*pi*pq/2} and R_1^2 = -e^{i*pi*pq/2}.
    """
    if k not in (0, 2):
        raise ValueError(f"tabulated R-scalars cover n=1, k in {{0,2}} only, got k={k}")
    base = Fraction(params.p * params.q, 2)
    return Phase(base if k == 0 else base + 1)


def r_scalar_formula(params: Params, n: int, k: int) -> Phase:
    """R_n^k = e^{i*pi*(pq*n^2 + 2n - k)/2} on a valid channel."""
    if n < 0 or not (0 <= k <= 2 * n and k % 2 == 0):
        raise ValueError(f"k={k} is not a channel of L_{n} (x) L_{n}")
    return Phase(Fraction(params.p * params.q * n * n + 2 * n - k, 2))


def balancing_check(params: Params, n: int) -> Phase:
    """The squared braiding on L_n (x) L_n from balancing: e^{i*pi*pq*n}.

    That is e^{2*pi*i*(h_k - 2*h_n)} on each channel k, with the unit
    channel k = 0 of weight 0; the phase is the same on every channel.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return Phase(params.p * params.q * n)


def hexagon_solutions(params: Params) -> list[FSolution]:
    """All invertible solutions of the hexagon constraint on F.

    Case analysis on F02.  With F02 = 0 the diagonal entries satisfy
    x^2 = eps*x, whose only nonzero root is eps, and the remaining
    off-diagonal equation then kills F20.  With F02 nonzero, conjugation by
    D_t = diag(t, 1) scales F02 by t and F20 by 1/t and maps solutions to
    solutions, so the gauge F02 = 1 is fixed.  Then the 02-entry forces
    F00 + F22 = -eps, subtracting the diagonal equations forces F00 = F22,
    and the 00-entry determines F20.  Every returned matrix is re-checked
    against the full constraint.
    """
    eps = _epsilon(params)
    # x^2 = eps*x has the one nonzero root eps, and F20*(F00 + F22) = -eps*F20
    # with F00 + F22 = 2*eps != -eps leaves only F20 = 0.
    diag = FSolution(kind="Diagonal", epsilon=eps, matrix=FMatrix(eps, 0, 0, eps))
    f00 = Fraction(-eps, 2)  # F00 = F22 = -eps/2
    f20 = f00 * eps - f00 * f00  # eps*F00 = F00^2 + F02*F20 with F02 = 1
    param = FSolution(kind="Parametrized", epsilon=eps, matrix=FMatrix(f00, 1, f20, f00))
    for sol in (diag, param):
        residual = hexagon_residual(params, sol.matrix)
        if any(residual.entries()):
            raise AssertionError(f"hexagon solution {sol.kind} fails the constraint")
        if not sol.matrix.determinant():
            raise AssertionError(f"hexagon solution {sol.kind} is not invertible")
    return [diag, param]


def hexagon_residual(params: Params, matrix: FMatrix) -> FMatrix:
    """(-1)^{pq} * [[F00,-F02],[-F20,F22]] - F^2, entry by entry.

    With the entries a, b, c, d over one common denominator n, each entry
    of the residual is an integer over n^2, and only those four are
    reduced.
    """
    eps = _epsilon(params)
    fa, fb, fc, fd = matrix.entries()
    n = math.lcm(fa.denominator, fb.denominator, fc.denominator, fd.denominator)
    a, b = fa.numerator * (n // fa.denominator), fb.numerator * (n // fb.denominator)
    c, d = fc.numerator * (n // fc.denominator), fd.numerator * (n // fd.denominator)
    en, n2 = eps * n, n * n
    return FMatrix(
        Fraction(a * en - a * a - b * c, n2),
        Fraction(-b * (en + a + d), n2),
        Fraction(-c * (en + a + d), n2),
        Fraction(d * en - c * b - d * d, n2),
    )


def intrinsic_dimension(sol: FSolution) -> Fraction:
    """1/F00: the evaluation-coevaluation composite on the unit channel."""
    value = sol.matrix.f00
    if value == 0:
        raise ValueError("F00 = 0: not an invertible hexagon solution")
    return 1 / value
