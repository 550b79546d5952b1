"""Exact arithmetic for algebraic integers of the quartic family.

Elements live in integral-basis coordinates (X0, X1, X2, X3); the power
representation (a + x*xi + y*xi^2 + z*xi^3)/d is the bridge to the
index-form machinery.  The index of an element is its definition, the
determinant of the integral-basis coordinates of 1, e, e^2, e^3:

    I(e) = |det(1, e, e^2, e^3)|,

and the signed determinant is a form of degree 6 in (X1, X2, X3), the
index form that the box oracle rebuilds from its forward differences.

M(e), the matrix of multiplication by e = X0*b1 + .. + X3*b4, is linear in
the coordinates: M(e) = X0*B0 + X1*B1 + X2*B2 + X3*B3, Bi multiplying by
b(i+1).  The Bi are built once per parameter, exactly, over the power
basis, which certifies once that the basis spans a ring; every M(e) and
every product is then integral by construction.  b1 = 1 (B0 = id) and Z_K
is commutative, so only six products b(i+1)*b(j+1), 1 <= i <= j <= 3, are
formed.  The index is translation invariant: it is computed on the triple.

K is cyclic: sigma(xi) = (xi - 1)/(xi + 1) generates Gal(K/Q), and
`sigma` applies it as an integer matrix built from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import gcd
from operator import index

from .fieldmodel import FamilyParameter


class NotIntegral(ValueError):
    """The given power representation is not an algebraic integer of K."""


@dataclass(frozen=True)
class AlgebraicInt:
    """Element of Z_K in integral-basis coordinates."""

    coords: tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(index, self.coords)))
        if len(self.coords) != 4:
            raise ValueError(f"an element needs 4 coordinates, got {len(self.coords)}")

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
        g = gcd(a, x, y, z, d)
        if g > 1:
            a, x, y, z, d = a // g, x // g, y // g, z // g, d // g
        return PowerRep(a, x, y, z, d)

    @property
    def vec(self) -> tuple[int, int, int, int]:
        return (self.a, self.x, self.y, self.z)


def power_part(x1, x2, x3, rows):
    """(x, y, z) with X1*b2 + X2*b3 + X3*b4 = (const + x*xi + y*xi^2 + z*xi^3)/g, rows the
    triangular `basis_num`."""
    _, (_, r11, _, _), (_, r21, r22, _), (_, r31, r32, r33) = rows
    return x1 * r11 + x2 * r21 + x3 * r31, x2 * r22 + x3 * r32, x3 * r33


def to_power_rep(e: AlgebraicInt, param: FamilyParameter) -> PowerRep:
    """Exact power representation of e, in lowest form; the constant is the first basis column."""
    x0, x1, x2, x3 = e.coords
    rows = param.basis_num
    const = x0 * rows[0][0] + x1 * rows[1][0] + x2 * rows[2][0] + x3 * rows[3][0]
    return PowerRep.reduced(const, *power_part(x1, x2, x3, rows), param.g)


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


# Parameters whose tables stay cached, about 4 KB each: more than a pass of
# any caller visits, so a caller cycling through its parameters never rebuilds.
_CACHED_PARAMETERS = 128


@lru_cache(maxsize=_CACHED_PARAMETERS)
def _mult_table(param: FamilyParameter) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry (i, j) of M(e) as its coefficients (B0[i][j], .., B3[i][j]) in X0..X3.

    Column j of Bi holds b(i+1)*b(j+1) = b(j+1)*b(i+1); b1 = 1 (checked), so
    only the six products 1 <= i <= j <= 3 are formed, over the power basis.
    `coords_from_power` raises NotIntegral unless each is integral (the basis
    is closed), and ArithmeticError unless the table gives I(xi) = n.
    """
    rows, t, g = param.basis_num, param.t, param.g
    assert rows[0] == (g, 0, 0, 0), f"b1 of {param} is not 1"
    cols = {}
    for i, j in combinations_with_replacement(range(1, 4), 2):
        prod = [0] * 7
        for k, l in product(range(i + 1), range(j + 1)):  # rows are lower triangular
            prod[k + l] += rows[i][k] * rows[j][l]
        for k in range(6, 3, -1):  # xi^4 = t*xi^3 + 6*xi^2 - t*xi - 1
            c = prod.pop()
            prod[k - 4:k] = [a + c * r for a, r in zip(prod[k - 4:k], (-1, -t, 6, t))]
        cols[i, j] = cols[j, i] = coords_from_power(tuple(prod), g * g, param)
    for i in range(4):  # b1 * b(i+1) = b(i+1)
        cols[0, i] = cols[i, 0] = tuple(int(k == i) for k in range(4))
    table = tuple(tuple(tuple(cols[k, j][i] for k in range(4)) for j in range(4))
                  for i in range(4))
    # xi = b2 in every class, so M(xi) = B1
    if abs(_basis_det(table, (1, 0, 0))) != param.n:
        raise ArithmeticError(f"multiplication table of {param} does not give I(xi) = n")
    return table


def _exact_div(vec, d: int, what: str) -> tuple[int, ...]:
    if any(c % d for c in vec):
        raise ArithmeticError(f"{what}: {vec} is not divisible by {d}")
    return tuple(c // d for c in vec)


@lru_cache(maxsize=_CACHED_PARAMETERS)  # the lifetime of `_mult_table`
def _sigma_columns(param: FamilyParameter) -> tuple[tuple[int, int, int, int], ...]:
    """Column j holds the coordinates of sigma(b(j+1)), sigma(xi) = (xi - 1)/(xi + 1).

    P_t(x) = (x + 1) Q(x) - 4 with Q(x) = x^3 - (t+1) x^2 + (t-5) x + 5, so
    1/(xi + 1) = Q(xi)/4 and sigma(xi) = (xi - 1) Q(xi) / 4; then
    sigma(b_i) = (sum_k r_ik sigma(xi)^k) / g over the basis rows r_i.  The
    products go through `multiply`, and every division is exact or raises
    ArithmeticError.  The basis lattice is sigma-stable also where the odd
    part of t^2 + 16 is not squarefree: only 2 divides g and 4, so at each
    odd prime the lattice is Z[xi] and sigma maps Z[xi] into it, and at 2
    the basis is that of the maximal order, which sigma keeps.
    """
    t = param.t

    def mul(a, b):
        return multiply(AlgebraicInt(a), AlgebraicInt(b), param).coords

    one, xi = (1, 0, 0, 0), (0, 1, 0, 0)
    xi2 = mul(xi, xi)
    q = _combine((5, t - 5, -(t + 1), 1), (one, xi, xi2, mul(xi2, xi)))
    s = _exact_div(mul((-1, 1, 0, 0), q), 4, f"sigma(xi) of {param}")
    s2 = mul(s, s)
    powers = (one, s, s2, mul(s2, s))
    return tuple(_exact_div(_combine(row, powers), param.g, f"sigma(b) of {param}")
                 for row in param.basis_num)


def _combine(coeffs, vecs) -> tuple[int, int, int, int]:
    """sum c*vec over the pairs, coordinatewise."""
    return tuple(sum(c * vec[i] for c, vec in zip(coeffs, vecs)) for i in range(4))


def sigma(e: AlgebraicInt, param: FamilyParameter) -> AlgebraicInt:
    """sigma(e) for the generator sigma(xi) = (xi - 1)/(xi + 1) of Gal(K/Q).

    sigma fixes Q, so it commutes with translation, and I(sigma(e)) = I(e).
    """
    return AlgebraicInt(_combine(e.coords, _sigma_columns(param)))


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


def index_oracle(e: AlgebraicInt, param: FamilyParameter) -> int | None:
    """I(e) = |det(1, e, e^2, e^3)| on the integral basis; None when e does not generate K.

    The index does not depend on X0, so it is computed from the triple (`_basis_det`).
    """
    return abs(_basis_det(_mult_table(param), e.triple)) or None


def _basis_det(table, x) -> int:
    """Signed det(1, e, e^2, e^3), e = x1*b2 + x2*b3 + x3*b4; p, q, r, s are rows 0..3 of M'.

    M' = x1*B1 + x2*B2 + x3*B3 without column 0, which is e (b1 = 1), so e^2 = y =
    M' (0, x) and e^3 = z = M' y; the determinant is the minor of rows 1..3.
    `_mult_table` runs this before caching the table.
    """
    x1, x2, x3 = x
    (p1, p2, p3), (q1, q2, q3), (r1, r2, r3), (s1, s2, s3) = [
        (x1 * a1 + x2 * a2 + x3 * a3, x1 * b1 + x2 * b2 + x3 * b3, x1 * c1 + x2 * c2 + x3 * c3)
        for _, (_, a1, a2, a3), (_, b1, b2, b3), (_, c1, c2, c3) in table]
    y0 = p1 * x1 + p2 * x2 + p3 * x3
    y1 = q1 * x1 + q2 * x2 + q3 * x3
    y2 = r1 * x1 + r2 * x2 + r3 * x3
    y3 = s1 * x1 + s2 * x2 + s3 * x3
    z1 = x1 * y0 + q1 * y1 + q2 * y2 + q3 * y3
    z2 = x2 * y0 + r1 * y1 + r2 * y2 + r3 * y3
    z3 = x3 * y0 + s1 * y1 + s2 * y2 + s3 * y3
    return x1 * (y2 * z3 - y3 * z2) - x2 * (y1 * z3 - y3 * z1) + x3 * (y1 * z2 - y2 * z1)


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
