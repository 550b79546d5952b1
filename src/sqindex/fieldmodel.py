"""Field model for the quartic family P_t(x) = x^4 - t*x^3 - 6*x^2 + t*x + 1.

For t > 0, t != 3, with the odd part of t^2 + 16 squarefree, the ring of
integers of Q(xi) (xi a root of P_t) has one of four known integral bases,
selected by v_2(t).  This module validates t, classifies it, and carries
the exact basis data used everywhere else.

All arithmetic is arbitrary-precision integer / rational; no floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

# Supported range for the trial-division squarefree test of the odd part
# of t^2 + 16.  Enough for desk scale; raise deliberately, not silently.
MAX_SUPPORTED_T = 10**6


class V2Class(enum.Enum):
    """2-adic valuation class of t; v_2(t) >= 3 is collapsed into one case."""

    V0 = 0
    V1 = 1
    V2 = 2
    V3plus = 3


# (g, n) per class: g = largest denominator in the integral basis,
# n = index of the polynomial root xi in the ring of integers.
_CLASS_GN = {
    V2Class.V0: (2, 2),
    V2Class.V1: (2, 4),
    V2Class.V2: (4, 8),
    V2Class.V3plus: (4, 16),
}

# Basis numerators over the common denominator g.  Row i gives b_{i+1} in
# the power basis 1, xi, xi^2, xi^3.  All four matrices are lower
# triangular with nonzero diagonal, which the element arithmetic relies on.
_BASIS_NUM = {
    V2Class.V0: ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 0, 0, 1)),
    V2Class.V1: ((2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)),
    V2Class.V2: ((4, 0, 0, 0), (0, 4, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1)),
    V2Class.V3plus: ((4, 0, 0, 0), (0, 4, 0, 0), (1, 2, -1, 0), (1, 1, 1, 1)),
}


class ParameterError(ValueError):
    """The family parameter t is outside the supported hypotheses."""


class NonPositiveParameter(ParameterError):
    pass


class ExcludedParameter(ParameterError):
    pass


class OddSquareFactor(ParameterError):
    """t^2 + 16 is divisible by an odd square (the offending square is kept)."""

    def __init__(self, factor: int):
        self.factor = factor
        super().__init__(f"odd square factor {factor} divides t^2 + 16")


class PolynomialError(ValueError):
    pass


class NotMonic(PolynomialError):
    pass


class WrongDegree(PolynomialError):
    pass


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


def v2_class(t: int) -> V2Class:
    return V2Class(min(v2(t), 3))


def odd_square_divisor(n: int) -> int | None:
    """Smallest square d^2 > 1 of an odd prime d dividing the odd part of n.

    Trial division up to sqrt of the odd part; None if the odd part is
    squarefree.
    """
    m = abs(n)
    if m == 0:
        return None
    m >>= v2(m)
    d = 3
    while d * d <= m:
        if m % (d * d) == 0:
            return d * d
        while m % d == 0:
            m //= d
        d += 2
    return None


def family_poly(t: int) -> tuple[int, int, int, int, int]:
    """Coefficients of P_t in ascending order (constant first)."""
    return (1, t, -6, -t, 1)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def sylvester_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of two integer polynomials given in ascending order."""
    fd = list(reversed(f))
    gd = list(reversed(g))
    while fd and fd[0] == 0:
        fd.pop(0)
    while gd and gd[0] == 0:
        gd.pop(0)
    n, m = len(fd) - 1, len(gd) - 1
    if n < 0 or m < 0:
        return 0
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + fd + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + gd + [0] * (n - 1 - i))
    return _bareiss_det(rows)


def poly_discriminant(coeffs: Sequence[int]) -> int:
    """Discriminant of a monic integer quartic, via resultant(f, f').

    `coeffs` is ascending: (c0, c1, c2, c3, 1).  The degree-4 sign
    convention makes disc = resultant(f, f') with no extra sign.
    """
    if len(coeffs) != 5:
        raise WrongDegree(f"need 5 coefficients, got {len(coeffs)}")
    if coeffs[4] != 1:
        raise NotMonic(f"leading coefficient {coeffs[4]} != 1")
    f = [int(c) for c in coeffs]
    fprime = [f[1], 2 * f[2], 3 * f[3], 4 * f[4]]
    return sylvester_resultant(f, fprime)


def disc_quartic_monic(a: int, b: int, c: int, d: int) -> int:
    """Closed-form discriminant of x^4 + a*x^3 + b*x^2 + c*x + d.

    Same value as poly_discriminant((d, c, b, a, 1)); it uses only ring
    operations, so the box oracle also runs it on polynomial coefficients.
    """
    return (
        256 * d**3
        - 192 * a * c * d**2
        - 128 * b**2 * d**2
        + 144 * b * c**2 * d
        - 27 * c**4
        + 144 * a**2 * b * d**2
        - 6 * a**2 * c**2 * d
        - 80 * a * b**2 * c * d
        + 18 * a * b * c**3
        + 16 * b**4 * d
        - 4 * b**3 * c**2
        - 27 * a**4 * d**2
        + 18 * a**3 * b * c * d
        - 4 * a**3 * c**3
        - 4 * a**2 * b**3 * d
        + a**2 * b**2 * c**2
    )


@dataclass(frozen=True)
class FamilyParameter:
    """A validated family parameter with its derived field data."""

    t: int
    v2_class: V2Class
    g: int
    n: int
    odd_part_squarefree: bool
    disc_P: int
    disc_K: int

    @cached_property
    def basis_num(self) -> tuple[tuple[int, ...], ...]:
        """The integral basis b1..b4 over the power basis, as integer
        numerators over the common denominator g (its largest denominator)."""
        return _BASIS_NUM[self.v2_class]

    @cached_property
    def basis_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(W, w) with (basis_num/g)^-1 = W/w, both exact integers.

        Used to pass from power-basis coordinates back to integral-basis
        coordinates; divisibility by w certifies integrality.
        """
        rows = [[Fraction(x, self.g) for x in row] for row in self.basis_num]
        inv = _invert4(rows)
        den = 1
        for row in inv:
            for e in row:
                den = den * e.denominator // gcd(den, e.denominator)
        w = den
        wmat = tuple(tuple(int(e * w) for e in row) for row in inv)
        return wmat, w

    def __repr__(self) -> str:  # keep reports compact
        return f"FamilyParameter(t={self.t}, {self.v2_class.name}, n={self.n})"


def _invert4(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Invert a 4x4 rational matrix by Gauss-Jordan elimination."""
    n = 4
    aug = [rows[i][:] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [er - f * ec for er, ec in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def validate_parameter(t: int, allow_hypothesis_violation: bool = False) -> FamilyParameter:
    """Validate t and return the populated FamilyParameter.

    Rejects t <= 0, t = 3, and t whose t^2 + 16 has an odd square factor;
    the last rejection can be overridden, in which case the result is
    flagged with odd_part_squarefree=False and downstream results are
    relative to the standard basis lattice rather than a guaranteed
    maximal order.
    """
    t = int(t)
    if t <= 0:
        raise NonPositiveParameter(f"t must be positive, got {t}")
    if t == 3:
        raise ExcludedParameter("t = 3 is excluded (degenerate field)")
    if t > MAX_SUPPORTED_T:
        raise ParameterError(f"t > {MAX_SUPPORTED_T} outside supported range")
    sq = odd_square_divisor(t * t + 16)
    if sq is not None and not allow_hypothesis_violation:
        raise OddSquareFactor(sq)
    cls = v2_class(t)
    g, n = _CLASS_GN[cls]
    disc_p = poly_discriminant(family_poly(t))
    q, r = divmod(disc_p, n * n)
    if r != 0 or q == 0:
        raise ArithmeticError(f"disc(P_t) = {disc_p} not divisible by n^2 = {n*n}")
    return FamilyParameter(
        t=t,
        v2_class=cls,
        g=g,
        n=n,
        odd_part_squarefree=sq is None,
        disc_P=disc_p,
        disc_K=q,
    )
