"""Resolvent forms of the family and the index they compute.

For P_t(x) = x^4 - t*x^3 - 6*x^2 + t*x + 1 with root xi of index n, an
element (a + x*xi + y*xi^2 + z*xi^3)/d of index m forces

    F(Q1(x,y,z), Q2(x,y,z)) = +- d^6 m / n

with the binary cubic F and the ternary quadratics Q1, Q2 of
`family_forms`: the cubic resolvent and the quadratics of Gaal's
index-form reduction for monic quartics, at the coefficients of P_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fieldmodel import FamilyParameter, v2
from .elements import PowerRep


class NotInRange(ValueError):
    pass


@dataclass(frozen=True)
class ResolventForm:
    """Binary cubic F(u, v); coefficients in (u^3, u^2 v, u v^2, v^3) order."""

    coeffs: tuple[int, int, int, int]

    def __call__(self, u: int, v: int) -> int:
        c = self.coeffs
        return ((c[0] * u + c[1] * v) * u + c[2] * v * v) * u + c[3] * v ** 3


@dataclass(frozen=True)
class TernaryForm:
    """Ternary quadratic; coefficients in (x^2, xy, y^2, xz, yz, z^2) order."""

    coeffs: tuple[int, int, int, int, int, int]

    def __call__(self, x: int, y: int, z: int) -> int:
        cxx, cxy, cyy, cxz, cyz, czz = self.coeffs
        return (cxx * x * x + cxy * x * y + cyy * y * y
                + cxz * x * z + cyz * y * z + czz * z * z)

    @staticmethod
    def combine(cv: int, q1: "TernaryForm", cu: int, q2: "TernaryForm") -> "TernaryForm":
        """cv*Q1 + cu*Q2 as a new form."""
        return TernaryForm(tuple(cv * e1 + cu * e2
                                 for e1, e2 in zip(q1.coeffs, q2.coeffs)))


@lru_cache(maxsize=None)
def family_forms(t: int) -> tuple[ResolventForm, TernaryForm, TernaryForm]:
    """F, Q1 and Q2 of P_t; F(u, v) = s*(s^2 - (t^2+16)*v^2) with s = u + 2v."""
    return (ResolventForm((1, 6, -(t * t + 4), -(2 * t * t + 24))),
            TernaryForm((1, t, -6, t * t + 12, -5 * t, t * t + 37)),
            TernaryForm((0, 0, 1, -1, t, -6)))


def index_via_forms(p: PowerRep, param: FamilyParameter) -> int | None:
    """Index of the element with power representation p, from the forms.

    Computes u = Q1(x,y,z), v = Q2(x,y,z) and m = n*|F(u,v)| / d^6; the
    division is exact for elements of Z_K.  None when F(u,v) = 0 (p does
    not generate the field).  No multiplication table is used.
    """
    f, q1, q2 = family_forms(param.t)
    x, y, z = p.x, p.y, p.z
    (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5) = q1.coeffs, q2.coeffs
    u = (a0 * x + a1 * y + a3 * z) * x + (a2 * y + a4 * z) * y + a5 * z * z
    v = (b0 * x + b1 * y + b3 * z) * x + (b2 * y + b4 * z) * y + b5 * z * z
    c0, c1, c2, c3 = f.coeffs
    fv = ((c0 * u + c1 * v) * u + c2 * v * v) * u + c3 * v * v * v
    if fv == 0:
        return None
    m, r = divmod(param.n * abs(fv), p.d ** 6)
    if r != 0:
        raise ArithmeticError(f"forms index not integral for {p}")
    return m


def rhs_decompositions(param: FamilyParameter, m: int) -> tuple[int, int]:
    """The unique (a, l) with g^6 * m / n = a * 2^l, a odd.

    For 1 <= m <= n the result has a in {1,...,15} odd and 4 <= l <= 12.
    """
    if not 1 <= m <= param.n:
        raise NotInRange(f"m = {m} outside 1..{param.n}")
    val = param.g ** 6 * m // param.n
    l = v2(val)
    return (val >> l, l)
