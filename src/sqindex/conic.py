"""Integer points on ternary quadratic cones and their parametrization.

`find_point` ends only when Q0 has a nonzero rational zero, its precondition.
A form with no x^2 term has the zero (1, 0, 0).  Otherwise a primitive integer
zero (x, y, z) exists, and the doubling radius scan meets one once the radius
reaches max(|y|, |z|); its scan order fixes the base point.  It visits each
(z, y) cell once, and up to three square-residue stages pass few cells on to
the exact square test.  The driver meets the precondition: the family's
case-II cones are the 108 of one table (`driver._cones`), `driver.local_sieve`
runs before any conic work, and a pinned test runs `find_point` under a time
limit on each of the 34 cones the sieve leaves open.  Each of those has x^2 coefficient v != 0 and
parametrizes, so `DegeneratePoint` is only a safety check.

Given a nontrivial integer zero P of Q0, the line scheme through P turns
every solution of Q0 = 0 into binary quadratics:  substituting
(x,y,z) = r*P + T, T carrying the free parameters (p,q), the vanishing of
Q0 is linear in r, and clearing the denominator yields

    k * (x, y, z) = C . (p^2, p*q, q^2)

with an integer matrix C and a scalar k dividing |det C| / gcd(C)^2.
Substituting the rows into one of the original quadratics then reduces
the system Q1 = +-u, Q2 = +-v to quartic Thue equations, one per divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt

import numpy as np

from .indexcore import TernaryForm
from .thue import BinaryQuarticForm

_RADIUS_START = 64
_BLOCK_CELLS = 1 << 15  # cap on the rows x |y| cells of one prefilter block

# Square-residue stages on pairwise coprime moduli: the first on the whole block,
# the others (40 KB of tables) on its survivors while _STAGE_MIN are left, as a
# numpy stage costs about 13 exact square checks (18 us vs 1.4 us, 2-core Xeon).
_QR_MODS = (720720, 17 * 19 * 23, 29 * 31 * 37)  # 720720 = 2^4*3^2*5*7*11*13
_STAGE_MIN = 12


class DegeneratePoint(ValueError):
    """No coordinate scheme through the point gives a parametrization."""


@cache
def _qr_table(m: int) -> np.ndarray:
    # x^2 = (m - x)^2 (mod m), so x <= m/2 reaches every square residue
    r = np.arange(m // 2 + 1, dtype=np.int64)
    r *= r  # in place: at m = 720720 each copy of r is 2.9 MB of peak memory
    r %= m
    table = np.zeros(m, dtype=bool)
    table[r] = True
    return table


def _square_mod(a: int, b: int, c: int, y: np.ndarray, z: np.ndarray, m: int) -> np.ndarray:
    """Whether a*y^2 + b*y*z + c*z^2 is a square mod m (y, z broadcast; terms < m^3 < 2^63)."""
    ym, zm = y % m, z % m
    return _qr_table(m)[((b % m * ym + c % m * zm % m) * zm + a % m * ym * ym % m) % m]


def _primitive(x: int, y: int, z: int) -> tuple[int, int, int]:
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    return (x // g, y // g, z // g)


def _first_row_solutions(q0: TernaryForm, z0: int, z1: int, ys: np.ndarray):
    """(z, solutions) for the first row z0 <= z < z1 in which Q0(x, y, z) = 0
    has a nonzero solution with y in ys, or None; x^2 coeff != 0.

    x is rational only if disc = A*y^2 + B*y*z + C*z^2 is a square, A =
    cxy^2 - 4cxx*cyy, B = 2cxy*cxz - 4cxx*cyz, C = cxz^2 - 4cxx*czz.  Square
    residues mod 720720 (2-D), then 17*19*23 and 29*31*37 (while _STAGE_MIN
    cells are left) are necessary; exact checks, row by row in z, decide.
    """
    cxx, cxy, cyy, cxz, cyz, czz = q0.coeffs
    form = (cxy * cxy - 4 * cxx * cyy, 2 * cxy * cxz - 4 * cxx * cyz, cxz * cxz - 4 * cxx * czz)
    zs = np.arange(z0, z1, dtype=np.int64)
    rows, cols = np.nonzero(_square_mod(*form, ys[None, :], zs[:, None], _QR_MODS[0]))
    zc, yc = zs[rows], ys[cols]
    for m in _QR_MODS[1:]:
        if len(zc) < _STAGE_MIN:
            break
        keep = _square_mod(*form, yc, zc, m)
        zc, yc = zc[keep], yc[keep]
    out, row = [], None
    for z, y in zip(zc.tolist(), yc.tolist()):
        if z != row:
            if out:
                break
            row = z
        lin = cxy * y + cxz * z
        con = cyy * y * y + cyz * y * z + czz * z * z
        disc = lin * lin - 4 * cxx * con
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for num in (-lin + s, -lin - s):
            qx, r = divmod(num, 2 * cxx)
            if r == 0 and (qx, y, z) != (0, 0, 0):
                out.append((qx, y))
    return (row, out) if out else None


def find_point(q0: TernaryForm) -> tuple[int, int, int]:
    """A primitive nonzero integer solution of Q0 = 0.

    Precondition: Q0 has a nonzero rational zero, or the scan never ends.
    The driver always meets it: `driver.local_sieve` runs first, and a
    pinned test covers the whole family (module docstring).

    A form without an x^2 term vanishes at (1, 0, 0), which is returned as is.
    Otherwise the result is that of a deterministic scan: z = 0, 1, 2, ...
    and |y| <= radius for radius = 64, 128, ..., and, in the first row
    containing solutions, the one minimising (|y|, sign, |x|, sign).
    Each (z, y) cell is visited once: a failed radius R proved that rows
    0..R hold no solution with |y| <= R, so at radius 2R they need only
    R < |y| <= 2R, ahead of rows R+1..2R at full width; so the first row
    with solutions, its solutions and the base point are those of the full
    scan.  Each part goes to `_first_row_solutions` in blocks of doubling height.
    """
    if all(c == 0 for c in q0.coeffs):
        raise ValueError("form is identically zero")
    if q0.coeffs[0] == 0:
        return (1, 0, 0)
    radius, done = _RADIUS_START, 0  # rows z < done hold no solution with |y| <= radius/2
    while True:
        ys = np.arange(-radius, radius + 1, dtype=np.int64)
        for lo, hi, cells in ((0, done, ys[np.abs(ys) > radius // 2]), (done, radius + 1, ys)):
            z0, height = lo, 1
            while z0 < hi:
                z1 = min(z0 + height, hi)
                found = _first_row_solutions(q0, z0, z1, cells)
                if found:
                    z, sols = found
                    x, y = min(sols, key=lambda s: (abs(s[1]), s[1] < 0, abs(s[0]), s[0] < 0))
                    return _primitive(x, y, z)
                z0, height = z1, min(2 * height, max(1, _BLOCK_CELLS // len(cells)))
        radius, done = 2 * radius, radius + 1


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
