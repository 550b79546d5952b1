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
the cone; the driver knows each of its points in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .indexcore import TernaryForm
from .thue import BinaryQuarticForm


class DegeneratePoint(ValueError):
    """No coordinate scheme through the point gives a parametrization."""


@dataclass(frozen=True)
class Parametrization:
    """k*(x,y,z) = C.(p^2, pq, q^2) covering the cone through base_point."""

    rows: tuple[tuple[int, int, int], ...]
    k_bound: int
    base_point: tuple[int, int, int]

    def evaluate(self, p: int, q: int) -> tuple[int, int, int]:
        return tuple(c0 * p * p + c1 * p * q + c2 * q * q
                     for c0, c1, c2 in self.rows)


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def parametrize(q0: TernaryForm, point: tuple[int, int, int]) -> Parametrization:
    """Parametrize all integer solutions of Q0 = 0 through a known point.

    The scheme attaches r to a nonzero coordinate of the point (z
    preferred, then y, then x) and the parameters (p, q) to the other
    two; the overall sign is fixed by making the first nonzero entry of
    the pivot row positive.
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
    for pivot in (2, 1, 0):
        if point[pivot] == 0:
            continue
        free = [i for i in range(3) if i != pivot]
        lam, mu = grad[free[0]], grad[free[1]]
        if lam == 0 and mu == 0:
            continue
        if pivot == 2:
            qt = (cxx, cxy, cyy)
        elif pivot == 1:
            qt = (cxx, cxz, czz)
        else:
            qt = (cyy, cyz, czz)
        rows = []
        for i in range(3):
            row = [qt[0] * point[i], qt[1] * point[i], qt[2] * point[i]]
            if i == free[0]:
                row[0] -= lam
                row[1] -= mu
            elif i == free[1]:
                row[1] -= lam
                row[2] -= mu
            rows.append(tuple(row))
        pivot_row = rows[pivot]
        lead = next((c for c in pivot_row if c != 0), 0)
        if lead < 0:
            rows = [tuple(-c for c in row) for row in rows]
        det = _det3(rows)
        if det == 0:
            continue
        g = 0
        for row in rows:
            for c in row:
                g = gcd(g, abs(c))
        return Parametrization(rows=tuple(rows), k_bound=abs(det) // (g * g),
                               base_point=tuple(point))
    raise DegeneratePoint(f"no valid scheme through {point} for {q0}")


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
    """raw_form = content * form; one instance per divisor k with integral rhs."""

    raw_form: BinaryQuarticForm
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
    return ThueReduction(raw_form=raw, form=prim, instances=tuple(instances))
