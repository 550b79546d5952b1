"""Thue equations F_t(p,q) = w for the family form and the reduced quartics.

F_t(p,q) = p^4 - t p^3 q - 6 p^2 q^2 + t p q^3 + q^4.  The solution sets
for w in {+1,-1,+4,-4} are known completely; every w = +-2^e reduces to
them through two exact transforms:

    F_t(2p, 2q)      = 16 F_t(p, q)
    F_t(p-q, p+q)    = -4 F_t(p, q)

(the second is asserted symbolically in the tests), together with the
mod-8 obstruction that rules out w = +-2.  Everything else goes through
a bounded search that reports its box.  That search is the only one a
result can be bounded by, so `Rigor`, the completeness status carried
from here through the minimal-index driver to the CLI, lives here too.

The bounded search takes a form G with nonzero discriminant
(4 I^3 - J^2) / 27 and nonzero right sides, and raises ValueError
otherwise.  The program never leaves that domain: F_t has discriminant
4 (t^2 + 16)^3, every reduced form of the family's soluble case-II cones
has a nonzero one (tests/test_driver.py checks all of them), and every
right side is +-|target| k^2 / content with target != 0.  So
f(x) = G(x, 1) = a prod (x - alpha_i) has d simple roots, d = 4, or
d = 3 when c0 = 0 (then c1 != 0).

The search enumerates root windows instead of the whole box.  Take
q != 0 with |G(p, q)| <= W, let alpha be the root nearest p/q, and let S
be any set of the other roots beta.  Then

    |p - alpha q|^(1 + |S|) prod_{beta not in S} (|alpha - beta| |q| / 2) <= W / |a|.

Proof: |a| prod |p - alpha_i q| = |G(p, q)| / |q|^(4-d) <= W;
|p - beta q| >= |p - alpha q| since alpha is nearest; and
|alpha - beta| |q| <= |p - alpha q| + |p - beta q| <= 2 |p - beta q|.

S = all gives |p - alpha q| <= R = ceil((W/|a|)^(1/d)); S = {} gives
|p - alpha q| <= 8W / (|a| |q|^3 prod |alpha - beta|) for d = 4; a
non-real alpha needs |Im alpha| |q| <= R.  The windows are certified:
every root sits in a disk proven in exact arithmetic to hold exactly one
root, each p-range is widened by an explicit bound on its float64
rounding, and every candidate is re-checked with exact integers.  As
G(-p, -q) = G(p, q), only q >= 1 is scanned; the q = 0 row is solved
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np


class UnsupportedW(ValueError):
    pass


@dataclass(frozen=True)
class BinaryQuarticForm:
    """Coefficients in (p^4, p^3 q, p^2 q^2, p q^3, q^4) order."""

    coeffs: tuple[int, int, int, int, int]

    def __call__(self, p: int, q: int) -> int:
        c = self.coeffs
        return (((c[0] * p + c[1] * q) * p + c[2] * q * q) * p
                + c[3] * q ** 3) * p + c[4] * q ** 4

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def invariants(self) -> tuple[int, int]:
        """The invariants I and J of the binary quartic."""
        a, b, c, d, e = self.coeffs
        return (12 * a * e - 3 * b * d + c * c,
                72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c ** 3)

    def discriminant(self) -> int:
        """(4 I^3 - J^2) / 27: zero exactly when the form has a repeated linear factor."""
        i, j = self.invariants()
        return (4 * i ** 3 - j * j) // 27

    def reach(self, bound: int) -> int:
        """sum |c| * bound^4 >= |G(p, q)| on the box |p|, |q| <= bound."""
        return sum(abs(x) for x in self.coeffs) * bound ** 4


def family_form(t: int) -> BinaryQuarticForm:
    return BinaryQuarticForm((1, -t, -6, t, 1))


DEFAULT_THUE_BOUND = 100_000


@dataclass(frozen=True)
class Rigor:
    """Completeness status of a result (proven, or bounded by a search box)."""

    proven: bool
    bound: int | None = None

    @staticmethod
    def certain() -> "Rigor":
        return Rigor(True)

    @staticmethod
    def bounded(bound: int) -> "Rigor":
        return Rigor(False, bound)

    def label(self) -> str:
        return "Proven" if self.proven else f"BoundedSearchOnly({self.bound})"


@dataclass(frozen=True)
class SolutionSet:
    """Canonical-sign solution pairs plus their completeness status."""

    pairs: tuple[tuple[int, int], ...]
    rigor: Rigor

    @staticmethod
    def of(pairs, rigor: Rigor) -> "SolutionSet":
        canon = sorted({canonical_pair(p, q) for p, q in pairs})
        return SolutionSet(tuple(canon), rigor)

    def __contains__(self, pair) -> bool:
        return canonical_pair(*pair) in self.pairs

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def canonical_pair(p: int, q: int) -> tuple[int, int]:
    """Representative with the first nonzero coordinate positive."""
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def _check_t(t: int):
    if t <= 0 or t == 3:
        raise ValueError(f"family parameter t = {t} outside t > 0, t != 3")


# Complete solution sets for the four base right-hand sides.  The entries
# for |w| = 4 coincide with what the lifting transform produces from
# |w| = 1; both routes are kept and cross-checked in the tests.
_BASE = {
    1: {"any": [(1, 0), (0, 1)], 4: [(2, 3), (3, -2)]},
    -1: {"any": [], 1: [(1, 2), (2, -1)]},
    4: {"any": [], 1: [(3, 1), (1, -3)]},
    -4: {"any": [(1, 1), (1, -1)], 4: [(5, 1), (1, -5)]},
}


def base_solutions(t: int, w: int) -> SolutionSet:
    """All solutions of F_t(p,q) = w for w in {+1,-1,+4,-4} (complete)."""
    _check_t(t)
    if w not in _BASE:
        raise UnsupportedW(f"w = {w} has no tabulated base solutions")
    table = _BASE[w]
    pairs = list(table["any"]) + list(table.get(t, []))
    return SolutionSet.of(pairs, Rigor.certain())


@lru_cache(maxsize=None)
def solve_power_of_two(t: int, w: int) -> SolutionSet:
    """Complete solutions of F_t(p,q) = w for w = +-2^e.

    e = 0 is the tabulated base case, e = 1 is empty by the mod-8
    obstruction, and e >= 2 recurses through the doubling and lifting
    transforms (each solution of -w/4 lifts via (p,q) -> (p-q, p+q)).
    """
    _check_t(t)
    if w == 0 or abs(w) & (abs(w) - 1):
        raise UnsupportedW(f"w = {w} is not +-2^e")
    e = abs(w).bit_length() - 1
    sign = 1 if w > 0 else -1
    if e == 0:
        return base_solutions(t, sign)
    if e == 1:
        return SolutionSet.of([], Rigor.certain())
    pairs = set()
    if e >= 4:
        for p, q in solve_power_of_two(t, w // 16):
            pairs.add(canonical_pair(2 * p, 2 * q))
    for p, q in solve_power_of_two(t, -(w // 4)):
        pairs.add(canonical_pair(p - q, p + q))
    return SolutionSet.of(pairs, Rigor.certain())


# --- bounded search by root windows -------------------------------------------

_U = 2.0 ** -53           # unit roundoff of float64
_GROW = 1 + 2.0 ** -20    # covers the relative rounding of a few float64 operations
_Q_CHUNK = 1 << 16        # q values per vectorised window step
_PREC_START = 64          # bits after the binary point of the root approximations
_PREC_TRIES = 6           # precision doublings before root isolation gives up


@dataclass(frozen=True)
class _Root:
    """Certified data of one (simple) root alpha of f(x) = G(x, 1).

    |Re alpha - x| <= rho and Im alpha >= y_lo >= 0: of a conjugate pair
    only the root above the real axis is listed.  seps holds a lower
    bound on |alpha - beta| for every other root beta, conjugates included.
    """

    x: float
    rho: float
    y_lo: float
    seps: tuple[float, ...]


def _below(v: Fraction) -> float:
    return math.nextafter(float(v), -math.inf)


def _above(v: Fraction) -> float:
    return math.nextafter(float(v), math.inf)


def _eval_scaled(g: list[int], x: int, y: int, k: int):
    """2^(k n) g(z) and 2^(k (n-1)) g'(z) as Gaussian integers, z = (x + iy) / 2^k."""
    vr, vi, ur, ui = g[-1], 0, 0, 0
    scale = 1
    for c in reversed(g[:-1]):
        scale <<= k
        ur, ui = ur * x - ui * y + vr, ur * y + ui * x + vi
        vr, vi = vr * x - vi * y + c * scale, vr * y + vi * x
    return vr, vi, ur, ui


def _certify(g: list[int], zs: list[tuple[int, int]], k: int):
    """Radii (in units 2^-k) of disjoint disks each holding one root of g, or None.

    A disk |w - z| <= n |g(z) / g'(z)| holds a root of g (n = deg g), since
    g'/g = sum 1/(z - alpha_i).  n pairwise disjoint such disks hold one
    root each, so they account for every root.
    """
    n = len(g) - 1
    rad = []
    for x, y in zs:
        vr, vi, ur, ui = _eval_scaled(g, x, y, k)
        den = ur * ur + ui * ui
        if den == 0:
            return None
        rad.append(isqrt(-(-n * n * (vr * vr + vi * vi) // den)) + 1)

    def apart(z, j, r):
        return (z[0] - zs[j][0]) ** 2 + (z[1] - zs[j][1]) ** 2 > (r + rad[j]) ** 2

    for i in range(n):
        if not all(apart(zs[i], j, rad[i]) for j in range(i + 1, n)):
            return None
        # a disk meeting the real axis holds a real root when its mirror
        # image meets no other disk: the conjugate root must lie in it
        mirror = (zs[i][0], -zs[i][1])
        if abs(zs[i][1]) <= rad[i] and not all(apart(mirror, j, rad[i])
                                               for j in range(n) if j != i):
            return None
    return rad


def _isolate(g: list[int]) -> tuple[int, list[tuple[int, int, int]]]:
    """k and certified disks (x + iy, r) / 2^k, one per root of the squarefree g.

    Float roots are refined by Newton's method in exact Gaussian integers
    and certified by `_certify`; the precision k doubles, for all disks at
    once, until that succeeds.
    """
    k = _PREC_START
    zs = [(int(math.ldexp(z.real, k)), int(math.ldexp(z.imag, k)))
          for z in np.roots([float(c) for c in reversed(g)])]
    for _ in range(_PREC_TRIES):
        for _ in range(100):
            moved = False
            for i, (x, y) in enumerate(zs):
                vr, vi, ur, ui = _eval_scaled(g, x, y, k)
                den = ur * ur + ui * ui
                if den == 0:
                    continue
                dx = (2 * (vr * ur + vi * ui) + den) // (2 * den)
                dy = (2 * (vi * ur - vr * ui) + den) // (2 * den)
                zs[i] = (x - dx, y - dy)
                moved |= abs(dx) > 1 or abs(dy) > 1
            if not moved:
                break
        rad = _certify(g, zs, k)
        if rad is not None:
            return k, [(x, y, r) for (x, y), r in zip(zs, rad)]
        zs = [(x << k, y << k) for x, y in zs]
        k *= 2
    raise ArithmeticError(f"could not isolate the roots of {g}")


def _roots(f: list[int]) -> list[_Root]:
    """Certified enclosures of the roots of the squarefree f (lowest degree first)."""
    k, disks = _isolate(f)
    one = 1 << k
    roots = []
    for i, (x, y, r) in enumerate(disks):
        if y < -r:
            continue  # the conjugate of a root listed with y > r
        xf = x / one
        seps = tuple(max(_below(Fraction(isqrt((x - x2) ** 2 + (y - y2) ** 2) - r - r2, one)), 0.0)
                     for j, (x2, y2, r2) in enumerate(disks) if j != i)
        roots.append(_Root(
            x=xf,
            rho=_above(Fraction(r, one) + abs(Fraction(x, one) - Fraction(xf))),
            y_lo=max(_below(Fraction(y - r, one)), 0.0) if y > r else 0.0,
            seps=seps))
    return roots


def _iroot_ceil(n: int, d: int) -> int:
    """Least r >= 0 with r^d >= n."""
    if n <= 0:
        return 0
    r = 1 << -(-n.bit_length() // d)
    while True:
        s = ((d - 1) * r + n // r ** (d - 1)) // d
        if s >= r:
            break
        r = s
    return r if r ** d >= n else r + 1


def _fourth_root(v: int, c: int) -> int:
    """r >= 1 with c r^4 = v, or 0 when there is none."""
    if c == 0 or v % c:
        return 0
    r = _iroot_ceil(v // c, 4)
    return r if r ** 4 == v // c else 0


def _window_candidates(root: _Root, d: int, lead: int, top: int, bound: int):
    """Rows (q, lo, hi), q >= 1, whose p in lo..hi cover every |p|, |q| <= bound
    with |G(p, q)| <= top whose nearest root of f is `root`.
    """
    big_r = _iroot_ceil(-(-top // abs(lead)), d)
    qmax = bound
    if abs(root.x) > root.rho:
        qmax = min(qmax, int((bound + big_r + 2) / (abs(root.x) - root.rho)) + 1)
    if root.y_lo > 0:
        qmax = min(qmax, int(big_r / root.y_lo) + 1)
    # one window (const / q^e)^(1/(1 + |S|)) per set S of nearest other
    # roots (module docstring); S = all of them is R itself
    seps = sorted(root.seps)
    terms = []
    for k in range(len(seps)):
        rest = seps[k:]
        prod = math.prod(rest)
        if prod > 0:
            terms.append((2.0 ** len(rest) * top / abs(lead) / prod, len(rest), k + 1))
    y_lo = root.y_lo * (1 - 2.0 ** -30)
    size = (abs(root.x) + root.rho) * qmax + big_r + 2
    slack = (root.rho * qmax + 8 * _U * size) * _GROW
    for start in range(1, qmax + 1, _Q_CHUNK):
        q = np.arange(start, min(start + _Q_CHUNK, qmax + 1), dtype=np.float64)
        half = np.full_like(q, float(big_r))
        with np.errstate(over="ignore"):
            for const, e, m in terms:
                np.minimum(half, (const / q ** e) ** (1.0 / m) * _GROW, out=half)
        centre = root.x * q
        lo = np.maximum(np.ceil(centre - half - slack), -bound)
        hi = np.minimum(np.floor(centre + half + slack), bound)
        keep = lo <= hi
        if root.y_lo > 0:
            keep &= y_lo * q <= half
        yield from zip(q[keep].astype(np.int64).tolist(), lo[keep].astype(np.int64).tolist(),
                       hi[keep].astype(np.int64).tolist())


def bounded_search_multi(form: BinaryQuarticForm, targets, bound: int
                         ) -> dict[int, SolutionSet]:
    """All canonical pairs with |p|,|q| <= bound and form(p,q) = v, for each target v.

    The form must have nonzero discriminant and every target must be
    nonzero (module docstring).  Only the p allowed by the certified root
    windows are tried, row by row, and every candidate is re-checked in
    exact integer arithmetic; a pair found from two roots counts once.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if form.discriminant() == 0:
        raise ValueError(f"the form {form.coeffs} has a repeated linear factor")
    targets = sorted(set(int(v) for v in targets))
    if 0 in targets:
        raise ValueError("the right side 0 is not supported")
    c = form.coeffs
    reach = form.reach(bound)  # larger targets have no solution in the box
    top = max((abs(v) for v in targets if abs(v) <= reach), default=0)
    hits: dict[int, list[tuple[int, int]]] = {v: [] for v in targets}
    for v in targets:
        # the q = 0 row: G(p, 0) = c0 p^4 with p >= 1
        r = _fourth_root(v, c[0])
        if 1 <= r <= bound:
            hits[v].append((r, 0))
    f = list(reversed(c if c[0] else c[1:]))  # f(x) = G(x, 1), lowest degree first
    for root in _roots(f):
        for q, lo, hi in _window_candidates(root, len(f) - 1, f[-1], top, bound):
            for p in range(lo, hi + 1):
                val = form(p, q)
                if val in hits:
                    hits[val].append((p, q))
    return {v: SolutionSet.of(pairs, Rigor.bounded(bound)) for v, pairs in hits.items()}
