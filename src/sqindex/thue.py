"""Thue equations F_t(p,q) = w for the family form and the reduced quartics.

F_t(p,q) = p^4 - t p^3 q - 6 p^2 q^2 + t p q^3 + q^4.  Only F_t = +-1 is
tabulated (`_BASE`).  Its solution sets are complete by the theorem of
Lettl, Petho and Voutier (1999) on the Thue inequalities |F_t(x, y)| <= 6t + 7;
that citation could not be checked offline, and the tests cross-check the
table against the bounded search.  Every w = +-2^e follows by parity:

- a pair of mixed parity gives an odd F_t, so for e >= 1 every solution
  has p = q (mod 2) and is L(P, Q) = (P - Q, P + Q) with P = (p + q)/2,
  Q = (q - p)/2 and F_t(P, Q) = -w/4 (F_t(L(P, Q)) = -4 F_t(P, Q) is
  asserted symbolically in the tests);
- so odd e has no solution, and for e = 2h the solutions are L^h of the
  solutions of F_t = sign(w) (-1)^h;
- L(L(p, q)) = 2 (-q, p) and F_t(-q, p) = F_t(p, q), so L^h acts on a
  solution set as 2^(h//2) L^(h%2).

Everything else goes through a bounded search that reports its box.
That search is the only one a result can be bounded by, so `Rigor`, the
completeness status carried from here through the minimal-index driver
to the CLI, lives here too.

The bounded search takes a totally real form G with c0 != 0 and no
rational root, that is f(x) = G(x, 1) = a prod (x - alpha_i) with a = c0
and four distinct real irrational roots, and nonzero right sides; it
raises ValueError otherwise.  The program never leaves that domain: its
fields are totally real; F_t has discriminant 4 (t^2 + 16)^3 and
c0 = c4 = 1, so a rational root would be +-1, but F_t(+-1, 1) = -4; the
tests check every reduced form of the family's soluble case-II cones;
every right side is +-|target| k^2 / content with target != 0.

The search enumerates root windows instead of the whole box.  Take
q != 0 with |G(p, q)| <= W, let alpha be the root nearest p/q, and let S
be any set of the other roots beta.  Then

    |p - alpha q|^(1 + |S|) prod_{beta not in S} (|alpha - beta| |q| / 2) <= W / |a|.

Proof: |a| prod |p - alpha_i q| = |G(p, q)| <= W;
|p - beta q| >= |p - alpha q| since alpha is nearest; and
|alpha - beta| |q| <= |p - alpha q| + |p - beta q| <= 2 |p - beta q|.

S = all gives |p - alpha q| < R = floor((W/|a|)^(1/4)) + 1, so in the
box |q| <= qmax = (B + R) / |alpha|; S = {} gives
|p - alpha q| <= 8W / (|a| |q|^3 prod |alpha - beta|).  The windows are
certified: every root sits in an interval proven in exact arithmetic to
hold exactly one root, each p-range is widened by an explicit bound on
its float64 rounding, and every candidate is re-checked with exact
integers.  As G(-p, -q) = G(p, q), only q >= 1 is scanned; the q = 0 row
is solved directly.

Past a threshold q* the rows of a root come from a theorem instead.
S = {} reads |p - alpha q| <= C / q^3 with
C = 8 W / (|a| prod |alpha - beta|), so q^2 > 2C gives
|alpha - p/q| < 1 / (2 q^2), and by Legendre's theorem on continued
fractions p/q is then a convergent p'/q' of alpha: (p, q) = g (p', q').
q* = isqrt(floor(2C)) + 1 bounds that threshold from above, with C taken
from the separation lower bounds and widened for rounding.  The
convergents come from Euclid's algorithm run in integers on both ends
of the root's exact dyadic enclosure at once.  A partial quotient counts
only where the two ends agree and neither end is the convergent itself,
so every number in between, alpha included, shares it, and p'/q' lies
outside the enclosure: |p' - alpha q'| >= delta > 0, with delta exact
from the ends.  Then g |p' - alpha q'| = |p - alpha q| < 1 / (2 g q')
gives g^2 < 1 / (2 q' delta).  When the ends part before the
denominators pass qmax, every root is isolated again at twice the
precision, which ends: as the enclosure of the irrational alpha shrinks,
both ends share every partial quotient up to any fixed depth.  So a
search costs a scan to min(qmax, q*) plus O(log B) rows per root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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

    def totally_real(self) -> bool:
        """True exactly when c0 != 0 and f(x) = G(x, 1) has four distinct real roots.

        With (a, b, c, d, e) = coeffs and a != 0 that holds exactly when
        the discriminant (4 I^3 - J^2) / 27 is positive, P = 8ac - 3b^2 < 0
        and D = 64 a^3 e - 16 a^2 c^2 + 16 a b^2 c - 16 a^2 b d - 3 b^4 < 0
        (Rees, Amer. Math. Monthly 29, 1922).
        """
        a, b, c, d, e = self.coeffs
        return (a != 0 and self.discriminant() > 0 and 8 * a * c - 3 * b * b < 0
                and 64 * a ** 3 * e - 16 * a * a * c * c + 16 * a * b * b * c
                - 16 * a * a * b * d - 3 * b ** 4 < 0)

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


# The complete solution sets of F_t(p, q) = +-1 (module docstring): the
# pairs for every t, plus the extra pairs at t = 4 (for +1) and t = 1 (for -1).
_BASE = {
    1: {"any": [(1, 0), (0, 1)], 4: [(2, 3), (3, -2)]},
    -1: {"any": [], 1: [(1, 2), (2, -1)]},
}


def solve_power_of_two(t: int, w: int) -> SolutionSet:
    """Complete solutions of F_t(p,q) = w for w = +-2^e, in closed form.

    Odd e has none; for e = 2h they are 2^(h//2) L^(h%2) of the solutions
    of sign(w) (-1)^h, with L(p, q) = (p - q, p + q) (module docstring).
    """
    _check_t(t)
    if w == 0 or abs(w) & (abs(w) - 1):
        raise UnsupportedW(f"w = {w} is not +-2^e")
    h, odd = divmod(abs(w).bit_length() - 1, 2)
    if odd:
        return SolutionSet.of([], Rigor.certain())
    row = _BASE[(1 if w > 0 else -1) * (-1) ** h]
    pairs = row["any"] + row.get(t, [])
    if h % 2:
        pairs = [(p - q, p + q) for p, q in pairs]
    s = 1 << h // 2
    return SolutionSet.of([(s * p, s * q) for p, q in pairs], Rigor.certain())


# --- bounded search by root windows -------------------------------------------

_U = 2.0 ** -53           # unit roundoff of float64
_GROW = 1 + 2.0 ** -20    # covers the relative rounding of a few float64 operations
_Q_CHUNK = 1 << 16        # q values per vectorised window step
_PREC_START = 64          # bits after the binary point of the root approximations
_PREC_TRIES = 6           # precisions, doubling from _PREC_START, before root isolation gives up
_LEGENDRE = True          # the convergent tail; the tests switch it off to scan every row to qmax


@dataclass(frozen=True)
class _Root:
    """Certified data of one (simple, real) root alpha of f(x) = G(x, 1).

    |alpha - x| <= rho, and alpha lies in [lo, hi] / 2^k with
    enclosure = (lo, hi, k).  seps holds a lower bound on |alpha - beta|
    for every other root beta.
    """

    x: float
    rho: float
    seps: tuple[float, ...]
    enclosure: tuple[int, int, int]


def _below(v: Fraction) -> float:
    return math.nextafter(float(v), -math.inf)


def _above(v: Fraction) -> float:
    return math.nextafter(float(v), math.inf)


def _eval_scaled(g: list[int], x: int, k: int) -> tuple[int, int]:
    """2^(k n) g(z) and 2^(k (n-1)) g'(z) at z = x / 2^k, by integer Horner."""
    v, u = g[-1], 0
    scale = 1
    for c in reversed(g[:-1]):
        scale <<= k
        u = u * x + v
        v = v * x + c * scale
    return v, u


def _certify(g: list[int], xs: list[int], k: int):
    """Radii (in units 2^-k) of disjoint intervals each holding one root of g, or None.

    A disk |w - x| <= n |g(x) / g'(x)| holds a root of g (n = deg g), since
    g'/g = sum 1/(x - alpha_i).  n pairwise disjoint such disks hold one
    root each, so they account for every root.  A disk centred on the real
    line is its own mirror image, so its one root is its own conjugate:
    it is real and lies on the diameter, and the disks are disjoint
    exactly when their diameters are.
    """
    n = len(g) - 1
    rad = []
    for x in xs:
        v, u = _eval_scaled(g, x, k)
        if u == 0:
            return None
        rad.append(n * abs(v) // abs(u) + 1)
    if all(abs(xs[i] - xs[j]) > rad[i] + rad[j] for i in range(n) for j in range(i + 1, n)):
        return rad
    return None


def _roots(form: BinaryQuarticForm):
    """Certified enclosures of the roots of f(x) = G(x, 1): one list of
    `_Root`s per precision k = 64, 128, ...

    G must be totally real with c0 != 0.  The real parts of the float roots
    of f, sorted and made distinct, are refined in exact integers by
    Aberth's method, Newton's method on f(x) / prod (x - x_j) over the
    other iterates x_j: it stays on the real line and keeps the iterates
    apart where the float roots cannot tell a cluster apart.  `_certify`
    then proves the intervals.  A rational root p/q in lowest terms has
    q | c0 (Gauss), so c0 p/q is an integer: once c0 [lo, hi] / 2^k is
    shorter than 1 it holds at most one integer P, and the root is rational
    exactly when P exists and G(P, c0) = 0; that raises ValueError.  The
    precision k doubles, for all roots at once, until both steps succeed and
    whenever the caller asks for the next list; ArithmeticError after
    _PREC_TRIES precisions.
    """
    f, c0 = list(reversed(form.coeffs)), form.coeffs[0]  # f lowest degree first
    k = _PREC_START
    xs = sorted(int(math.ldexp(z.real, k)) for z in np.roots([float(c) for c in form.coeffs]))
    xs = [x + i for i, x in enumerate(xs)]
    for _ in range(_PREC_TRIES):
        for _ in range(100):
            moved = False
            for i, x in enumerate(xs):
                v, u = _eval_scaled(f, x, k)
                # Aberth's step v / (u - v sum 1 / (x - x_j)), both sides times prod (x - x_j)
                ds = [x - y for y in xs if y != x]
                prod = math.prod(ds)
                den = u * prod - v * sum(prod // d for d in ds)
                if den == 0:
                    continue
                dx = (2 * v * prod + den) // (2 * den)  # rounded
                xs[i] = x - dx
                moved |= abs(dx) > 1
            if not moved:
                break
        rad = _certify(f, xs, k)
        one = 1 << k
        if rad is not None and all(abs(c0) * 2 * r < one for r in rad):
            roots = []
            for i, (x, r) in enumerate(zip(xs, rad)):
                lo, hi = sorted((c0 * (x - r), c0 * (x + r)))
                p = -(-lo >> k)  # the least integer >= lo / 2^k
                if p << k <= hi and form(p, c0) == 0:
                    raise ValueError(f"the form {form.coeffs} has a rational root")
                xf = x / one
                seps = tuple(max(_below(Fraction(abs(x - x2) - r - r2, one)), 0.0)
                             for j, (x2, r2) in enumerate(zip(xs, rad)) if j != i)
                roots.append(_Root(
                    x=xf,
                    rho=_above(Fraction(r, one) + abs(Fraction(x, one) - Fraction(xf))),
                    seps=seps,
                    enclosure=(x - r, x + r, k)))
            yield roots
        xs = [x << k for x in xs]
        k *= 2
    raise ArithmeticError(f"could not isolate the roots of {f}")


def _fourth_root(v: int, c: int) -> int:
    """r >= 1 with c r^4 = v, or 0 when there is none (c != 0)."""
    n, rem = divmod(v, c)
    r = isqrt(isqrt(n)) if n > 0 and rem == 0 else 0  # floor(n^(1/4))
    return r if r ** 4 == n else 0


def _convergents(lo: int, hi: int, k: int, qmax: int):
    """Convergents (p, q), q <= qmax, of every number in [lo, hi] / 2^k, or None.

    Euclid runs on both ends at once; a partial quotient counts only where
    the two agree and neither end is the convergent itself (module
    docstring).  None when the ends part before the denominators pass qmax.
    """
    (n0, d0), (n1, d1) = (lo, 1 << k), (hi, 1 << k)
    p0, q0, p1, q1 = 0, 1, 1, 0  # the two previous convergents
    out = []
    while q0 + q1 <= qmax:  # the next denominator is at least q0 + q1
        a, r0 = divmod(n0, d0)
        b, r1 = divmod(n1, d1)
        if a != b or r0 == 0 or r1 == 0:
            return None
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > qmax:
            break
        out.append((p1, q1))
        n0, d0, n1, d1 = d0, r0, d1, r1
    return out


def _window_candidates(root: _Root, lead: int, top: int, bound: int):
    """Rows (q, lo, hi), q >= 1, whose p in lo..hi cover every |p|, |q| <= bound
    with |G(p, q)| <= top whose nearest root of f is `root`; None when the
    root's enclosure is too coarse to certify its convergents.

    Rows q < q* are the root windows.  Every row q >= q* is a multiple of
    a certified convergent (module docstring).
    """
    big_r = isqrt(isqrt(top // abs(lead))) + 1  # > (top / |lead|)^(1/4)
    a_lo, a_hi, k = root.enclosure
    qmax = bound  # |alpha| q <= |p| + R <= bound + R
    if a_lo > 0 or a_hi < 0:
        qmax = min(qmax, ((bound + big_r) << k) // min(abs(a_lo), abs(a_hi)) + 1)
    # one window (const / q^e)^(1/(1 + |S|)) per set S of nearest other
    # roots (module docstring); S = all of them is R itself
    seps = sorted(root.seps)
    terms = []
    for i in range(len(seps)):
        rest = seps[i:]
        terms.append((2.0 ** len(rest) * top / abs(lead) / math.prod(rest), len(rest), i + 1))
    end, tail = qmax, []
    # terms[0] is S = {}: |p - alpha q| <= C / q^3
    twice_c = 2 * terms[0][0] * _GROW
    if _LEGENDRE and twice_c < qmax * qmax:
        qstar = isqrt(math.floor(twice_c)) + 1
        tail = _convergents(a_lo, a_hi, k, qmax)
        if tail is None:
            return None
        end = qstar - 1

    def rows():
        size = (abs(root.x) + root.rho) * end + big_r + 2
        slack = (root.rho * end + 8 * _U * size) * _GROW
        for start in range(1, end + 1, _Q_CHUNK):
            q = np.arange(start, min(start + _Q_CHUNK, end + 1), dtype=np.float64)
            half = np.full_like(q, float(big_r))
            with np.errstate(over="ignore"):
                for const, e, m in terms:
                    np.minimum(half, (const / q ** e) ** (1.0 / m) * _GROW, out=half)
            centre = root.x * q
            lo = np.maximum(np.ceil(centre - half - slack), -bound)
            hi = np.minimum(np.floor(centre + half + slack), bound)
            keep = lo <= hi
            yield from zip(q[keep].astype(np.int64).tolist(), lo[keep].astype(np.int64).tolist(),
                           hi[keep].astype(np.int64).tolist())
        for p1, q1 in tail:
            # g^2 < 1 / (2 q1 delta), delta = m / 2^k <= |p1 - alpha q1|
            m = min(abs((p1 << k) - a_lo * q1), abs((p1 << k) - a_hi * q1))
            for g in range(-(-qstar // q1), min(isqrt(((1 << k) - 1) // (2 * q1 * m)),
                                                  qmax // q1) + 1):
                if abs(g * p1) <= bound:
                    yield g * q1, g * p1, g * p1

    return rows()


def bounded_search_multi(form: BinaryQuarticForm, targets, bound: int
                         ) -> dict[int, SolutionSet]:
    """All canonical pairs with |p|,|q| <= bound and form(p,q) = v, for each target v.

    The form must be totally real with c0 != 0 and no rational root and
    every target nonzero (module docstring).  Only the p allowed by the
    certified root windows are tried, row by row, and every candidate is
    re-checked in exact integers; a pair found from two roots counts once.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if form.discriminant() == 0:
        raise ValueError(f"the form {form.coeffs} has a repeated linear factor")
    if not form.totally_real():
        raise ValueError(f"the form {form.coeffs} is not totally real with c0 != 0")
    targets = sorted(set(int(v) for v in targets))
    if 0 in targets:
        raise ValueError("the right side 0 is not supported")
    c = form.coeffs
    reach = form.reach(bound)  # larger targets have no solution in the box
    top = max((abs(v) for v in targets if abs(v) <= reach), default=0)
    for roots in _roots(form):  # refined until every root's convergents are certified
        windows = [_window_candidates(root, c[0], top, bound) for root in roots]
        if None not in windows:
            break
    hits: dict[int, list[tuple[int, int]]] = {v: [] for v in targets}
    for v in targets:
        # the q = 0 row: G(p, 0) = c0 p^4 with p >= 1
        r = _fourth_root(v, c[0])
        if 1 <= r <= bound:
            hits[v].append((r, 0))
    for q, lo, hi in chain.from_iterable(windows):
        for p in range(lo, hi + 1):
            val = form(p, q)
            if val in hits:
                hits[val].append((p, q))
    return {v: SolutionSet.of(pairs, Rigor.bounded(bound)) for v, pairs in hits.items()}
