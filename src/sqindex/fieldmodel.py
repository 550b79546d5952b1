"""Field model for the quartic family P_t(x) = x^4 - t*x^3 - 6*x^2 + t*x + 1.

For t > 0, t != 3, with the odd part of t^2 + 16 squarefree, the ring of
integers of Q(xi) (xi a root of P_t) has one of four known integral bases,
selected by v_2(t).  This module validates t, classifies it, and carries
the exact basis data used everywhere else.  The field data are the
family's closed forms: disc(P_t) = 4*(t^2 + 16)^3 and disc(K) =
disc(P_t) / n^2, with n = I(xi) fixed by the class.  They are reported,
not used: every index is a determinant over the basis (`elements`).

All arithmetic is arbitrary-precision integer / rational; no floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

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
# triangular with nonzero diagonal, b1 = 1, b2 = xi and b4 = (.. + xi^3)/g,
# which the element arithmetic relies on.
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


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


def v2_class(t: int) -> V2Class:
    return V2Class(min(v2(t), 3))


def odd_square_divisor(n: int) -> int | None:
    """Smallest square d^2 > 1 of an odd prime d dividing the odd part of n.

    Trial division while d^3 <= m, m the odd part with the primes below d
    divided out.  Then every prime factor of m is at least d > m^(1/3), so
    m has at most two, and it has a square factor exactly when it is the
    square p^2 > 1 of a prime p >= d, the smallest odd prime square left.
    None if the odd part is squarefree.
    """
    m = abs(n)
    if m == 0:
        return None
    m >>= v2(m)
    d = 3
    while d * d * d <= m:
        if m % (d * d) == 0:
            return d * d
        while m % d == 0:
            m //= d
        d += 2
    r = isqrt(m)
    return m if r > 1 and r * r == m else None


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

    def __repr__(self) -> str:  # keep reports compact
        return f"FamilyParameter(t={self.t}, {self.v2_class.name}, n={self.n})"


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
    disc_p = 4 * (t * t + 16) ** 3  # closed form; the divmod checks n against it
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
