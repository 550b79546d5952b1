"""Exact arithmetic for algebraic integers of the quartic family.

Elements live in integral-basis coordinates (X0, X1, X2, X3); the power
representation (a + x*xi + y*xi^2 + z*xi^3)/d is the bridge to the
index-form machinery.  The index of an element is recovered from the
discriminant of its characteristic polynomial:

    disc(char_poly(e)) = I(e)^2 * disc_K.

M(e), the matrix of multiplication by e = X0*b1 + .. + X3*b4, is linear in
the coordinates: M(e) = X0*B0 + X1*B1 + X2*B2 + X3*B3, Bi multiplying by
b(i+1).  The Bi are built once per parameter, exactly, over the power
basis, which certifies once that the basis spans a ring; every M(e) and
every product is then integral by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from .fieldmodel import FamilyParameter, disc_quartic_monic


class NotIntegral(ValueError):
    """The given power representation is not an algebraic integer of K."""


@dataclass(frozen=True)
class AlgebraicInt:
    """Element of Z_K in integral-basis coordinates."""

    coords: tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def triple(self) -> tuple[int, int, int]:
        """The translation-invariant part (X1, X2, X3)."""
        return self.coords[1:]


@dataclass(frozen=True)
class PowerRep:
    """(a + x*xi + y*xi^2 + z*xi^3) / d in lowest form, d >= 1."""

    a: int
    x: int
    y: int
    z: int
    d: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("denominator must be positive")

    @staticmethod
    def reduced(a: int, x: int, y: int, z: int, d: int) -> "PowerRep":
        if d < 0:
            a, x, y, z, d = -a, -x, -y, -z, -d
        g = gcd(gcd(abs(a), abs(x)), gcd(gcd(abs(y), abs(z)), d))
        if g > 1:
            a, x, y, z, d = a // g, x // g, y // g, z // g, d // g
        return PowerRep(a, x, y, z, d)

    @property
    def vec(self) -> tuple[int, int, int, int]:
        return (self.a, self.x, self.y, self.z)


def to_power_rep(e: AlgebraicInt, param: FamilyParameter) -> PowerRep:
    """Exact power representation of e, in lowest form."""
    num = [0, 0, 0, 0]
    for xi_coord, row in zip(e.coords, param.basis_num):
        for j in range(4):
            num[j] += xi_coord * row[j]
    return PowerRep.reduced(num[0], num[1], num[2], num[3], param.g)


def coords_from_power(vec: tuple[int, int, int, int], d: int,
                      param: FamilyParameter) -> tuple[int, int, int, int]:
    """Integral-basis coordinates of (vec)/d, or raise NotIntegral.

    g*(vec)/d is an integer vector when (vec)/d is integral; its xi..xi^3
    part gives X1..X3 as in `triple_from_xyz`, and its constant then X0.
    """
    g, rows = param.g, param.basis_num
    scaled = [divmod(c * g, d) for c in vec]
    if not any(r for _, r in scaled):
        a, x, y, z = (q for q, _ in scaled)
        triple = _back_substitute(x, y, z, param)
        if triple is not None:
            x1, x2, x3 = triple
            x0, r = divmod(a - x1 * rows[1][0] - x2 * rows[2][0] - x3 * rows[3][0], rows[0][0])
            if r == 0:
                return (x0, x1, x2, x3)
    raise NotIntegral(f"{vec}/{d} is not in Z_K")


def from_power_rep(p: PowerRep, param: FamilyParameter) -> AlgebraicInt:
    return AlgebraicInt(coords_from_power(p.vec, p.d, param))


def triple_from_xyz(x: int, y: int, z: int, param: FamilyParameter
                    ) -> tuple[int, int, int] | None:
    """(X1, X2, X3) of any element with power part (x*xi+y*xi^2+z*xi^3)/g.

    Back substitution over the basis rows, which are lower triangular with
    nonzero diagonal: the xi^3 coordinate is X3 (b4 = (.. + xi^3)/g), then
    xi^2 fixes X2 and xi fixes X1, one exact divmod each.  The constant
    term enters X0 only, and over g every integral triple has an integral
    X0, so None exactly when no constant makes the value integral.
    """
    return _back_substitute(x, y, z, param)


def _back_substitute(x: int, y: int, z: int, param: FamilyParameter
                     ) -> tuple[int, int, int] | None:
    # triple_from_xyz's body, called by coords_from_power so perfbench counts stay per caller
    _, (_, b11, _, _), (_, b21, b22, _), (_, b31, b32, _) = param.basis_num
    x2, r = divmod(y - z * b32, b22)
    if r:
        return None
    x1, r = divmod(x - z * b31 - x2 * b21, b11)
    if r:
        return None
    return x1, x2, z


@lru_cache(maxsize=16)
def _mult_table(param: FamilyParameter) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry (i, j) of M(e) as its coefficients (B0[i][j], .., B3[i][j]) in X0..X3.

    Column j of Bi holds b(i+1)*b(j+1), formed over the power basis;
    `coords_from_power` raises NotIntegral unless the basis is closed.
    """
    rows, t = param.basis_num, param.t
    cols = {}
    for i, j in product(range(4), repeat=2):
        prod = [0] * 7
        for k, l in product(range(4), repeat=2):
            prod[k + l] += rows[i][k] * rows[j][l]
        for k in range(6, 3, -1):  # xi^4 = t*xi^3 + 6*xi^2 - t*xi - 1
            c = prod.pop()
            prod[k - 4:k] = [a + c * r for a, r in zip(prod[k - 4:k], (-1, -t, 6, t))]
        cols[i, j] = coords_from_power(tuple(prod), param.g ** 2, param)
    return tuple(tuple(tuple(cols[k, j][i] for k in range(4)) for j in range(4))
                 for i in range(4))


def multiply(u: AlgebraicInt, v: AlgebraicInt, param: FamilyParameter) -> AlgebraicInt:
    """Exact product u*v = M(u) v; integral because M(u) is (see module docstring)."""
    return AlgebraicInt(tuple(sum(m * c for m, c in zip(row, v.coords))
                              for row in mult_matrix(u, param)))


def mult_matrix(e: AlgebraicInt, param: FamilyParameter) -> list[list[int]]:
    """Integer matrix of multiplication by e on the integral basis.

    Column j holds the coordinates of e * b_{j+1}.  By linearity it is
    X0*B0 + X1*B1 + X2*B2 + X3*B3 over the per-parameter table, so no
    element is taken through the power basis.
    """
    x0, x1, x2, x3 = e.coords
    return [[x0 * c0 + x1 * c1 + x2 * c2 + x3 * c3 for c0, c1, c2, c3 in row]
            for row in _mult_table(param)]


def charpoly4(m: list[list[int]]) -> tuple[int, int, int, int]:
    """(c0, c1, c2, c3) of det(xI - M) = x^4 + c3 x^3 + c2 x^2 + c1 x + c0."""
    e1 = m[0][0] + m[1][1] + m[2][2] + m[3][3]
    e2 = 0
    for i in range(4):
        for j in range(i + 1, 4):
            e2 += m[i][i] * m[j][j] - m[i][j] * m[j][i]
    e3 = 0
    for rows in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        i, j, k = rows
        e3 += (
            m[i][i] * (m[j][j] * m[k][k] - m[j][k] * m[k][j])
            - m[i][j] * (m[j][i] * m[k][k] - m[j][k] * m[k][i])
            + m[i][k] * (m[j][i] * m[k][j] - m[j][j] * m[k][i])
        )
    e4 = _det4(m)
    return (e4, -e3, e2, -e1)


def _det4(m: list[list[int]]) -> int:
    """4x4 determinant by Laplace expansion on the first two rows."""
    m01 = {}
    m23 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m01[(i, j)] = m[0][i] * m[1][j] - m[0][j] * m[1][i]
            m23[(i, j)] = m[2][i] * m[3][j] - m[2][j] * m[3][i]
    return (
        m01[(0, 1)] * m23[(2, 3)]
        - m01[(0, 2)] * m23[(1, 3)]
        + m01[(0, 3)] * m23[(1, 2)]
        + m01[(1, 2)] * m23[(0, 3)]
        - m01[(1, 3)] * m23[(0, 2)]
        + m01[(2, 3)] * m23[(0, 1)]
    )


def char_poly(e: AlgebraicInt, param: FamilyParameter) -> tuple[int, int, int, int, int]:
    """Ascending coefficients of the characteristic polynomial of e (monic)."""
    c0, c1, c2, c3 = charpoly4(mult_matrix(e, param))
    return (c0, c1, c2, c3, 1)


def index_oracle(e: AlgebraicInt, param: FamilyParameter) -> int | None:
    """I(e) = sqrt(disc(char_poly(e)) / disc_K); None when e does not generate K."""
    c0, c1, c2, c3, _ = char_poly(e, param)
    disc = disc_quartic_monic(c3, c2, c1, c0)
    if disc == 0:
        return None
    q, r = divmod(disc, param.disc_K)
    if r != 0 or q < 0:
        raise ArithmeticError(f"disc {disc} not a multiple of disc_K for {e}")
    m = isqrt(q)
    if m * m != q:
        raise ArithmeticError(f"disc ratio {q} is not a perfect square for {e}")
    return m


def canonical_triple(triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """Sign-canonical representative of (X1, X2, X3).

    Negates the triple when the last nonzero entry of the sequence
    (X3, X2, X1) is negative, so each {e, -e} pair has one representative.
    """
    x1, x2, x3 = triple
    for lead in (x1, x2, x3):
        if lead != 0:
            if lead < 0:
                return (-x1, -x2, -x3)
            break
    return (x1, x2, x3)
