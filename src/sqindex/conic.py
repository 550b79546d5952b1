"""Parametrization of ternary quadratic cones and their reduction to Thue equations.

Given a nontrivial integer zero P of Q0, the line scheme through P turns
every solution of Q0 = 0 into binary quadratics:  substituting
(x,y,z) = r*P + T, T carrying the free parameters (p,q), the vanishing of
Q0 is linear in r, and clearing the denominator yields

    k * (x, y, z) = C . (p^2, p*q, q^2)

with an integer matrix C and a scalar k dividing |det C| / gcd(C)^2.
Substituting the rows into one of the original quadratics then reduces
the system Q1 = +-u, Q2 = +-v to quartic Thue equations, one per divisor.

The point comes from the caller, and `parametrize` checks that it is on
the cone; the driver knows each of its points in closed form.  One scheme
serves: |det C| = |P_r|^3 |det H| / 2 (pivot r, Hessian H), and a branch
cone v*Q1 - u*Q2 has det H = 2 F(u, v) = +-2 g^6 m / n != 0, so it never
fails there (a sympy test proves both identities).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .indexcore import TernaryForm
from .thue import BinaryQuarticForm


class DegeneratePoint(ValueError):
    """The cone is singular (det H = 0); a branch cone never is: det H = 2 F(u, v) != 0."""


@dataclass(frozen=True)
class Parametrization:
    """k*(x,y,z) = C.(p^2, pq, q^2) on a nonsingular cone, as every branch cone is."""

    rows: tuple[tuple[int, int, int], ...]
    k_bound: int

    def evaluate(self, p: int, q: int) -> tuple[int, int, int]:
        return tuple(c0 * p * p + c1 * p * q + c2 * q * q
                     for c0, c1, c2 in self.rows)


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def parametrize(q0: TernaryForm, point: tuple[int, int, int]) -> Parametrization:
    """Parametrize all integer solutions of Q0 = 0 through a known point.

    The scheme attaches r to the pivot, the first nonzero coordinate of
    the point in the order z, y, x, and the parameters (p, q) to the
    other two; the overall sign is fixed by making the first nonzero
    entry of the pivot row positive.  As |det C| = |P_pivot|^3 |det H| / 2,
    it fails exactly on a singular cone, where every scheme fails.
    """
    if q0(*point) != 0:
        raise ValueError(f"{point} is not on the cone")
    if point == (0, 0, 0):
        raise ValueError("need a nonzero point")
    cxx, cxy, cyy, cxz, cyz, czz = q0.coeffs
    x0, y0, z0 = point
    grad = (2 * cxx * x0 + cxy * y0 + cxz * z0,
            cxy * x0 + 2 * cyy * y0 + cyz * z0,
            cxz * x0 + cyz * y0 + 2 * czz * z0)
    pivot = 2 if z0 else 1 if y0 else 0
    f0, f1 = ((1, 2), (0, 2), (0, 1))[pivot]
    qt = ((cyy, cyz, czz), (cxx, cxz, czz), (cxx, cxy, cyy))[pivot]  # Q0 on the free pair
    lt = [(0, 0, 0)] * 3  # L*T over (p^2, pq, q^2), L = grad Q0(P) . T
    lt[f0], lt[f1] = (grad[f0], grad[f1], 0), (0, grad[f0], grad[f1])
    sign = -1 if next((c for c in qt if c), 0) * point[pivot] < 0 else 1  # pivot row: P_r*qt
    rows = tuple((sign * (qt[0] * x - d0), sign * (qt[1] * x - d1), sign * (qt[2] * x - d2))
                 for x, (d0, d1, d2) in zip(point, lt))
    det = _det3(rows)
    if det == 0:
        raise DegeneratePoint(f"the cone {q0} is singular")
    g = gcd(*rows[0], *rows[1], *rows[2])
    return Parametrization(rows=rows, k_bound=abs(det) // (g * g))


def _mul_quadratics(a, b):
    return (a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
            a[1] * b[2] + a[2] * b[1],
            a[2] * b[2])


@dataclass(frozen=True)
class ThueInstance:
    """form(p, q) = +-rhs, with the reduction's form, for the divisor k of the bound."""

    k: int
    rhs: int


@dataclass(frozen=True)
class ThueReduction:
    """The primitive quartic form; one instance per divisor k with integral rhs."""

    form: BinaryQuarticForm
    instances: tuple[ThueInstance, ...]


def divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def thue_reduction(par: Parametrization, q: TernaryForm, target: int) -> ThueReduction:
    """Substitute the parametrization into q and list the Thue equations.

    For each positive divisor k of k_bound the equation is
    q(C.(p^2,pq,q^2)) = +-target * k^2; instances whose right side is not
    an integer after dividing out the content of the quartic are dropped.
    """
    if target == 0:
        raise ValueError("target value must be nonzero")
    r1, r2, r3 = par.rows
    cxx, cxy, cyy, cxz, cyz, czz = q.coeffs
    quartic = [0] * 5
    for coeff, pair in ((cxx, (r1, r1)), (cxy, (r1, r2)), (cyy, (r2, r2)),
                        (cxz, (r1, r3)), (cyz, (r2, r3)), (czz, (r3, r3))):
        if coeff:
            prod = _mul_quadratics(*pair)
            for idx in range(5):
                quartic[idx] += coeff * prod[idx]
    raw = BinaryQuarticForm(tuple(quartic))
    cont = raw.content()
    if cont == 0:
        raise ValueError("reduction is identically zero; use the other quadratic")
    prim = BinaryQuarticForm(tuple(c // cont for c in raw.coeffs))
    instances = []
    for k in divisors(par.k_bound):
        rhs, rem = divmod(abs(target) * k * k, cont)
        if rem == 0:
            instances.append(ThueInstance(k=k, rhs=rhs))
    return ThueReduction(form=prim, instances=tuple(instances))
