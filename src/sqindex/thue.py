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
|p - alpha q| <= 8W / (|a| |q|^3 prod |alpha - beta|).  Each window is a
bound on its own.  A row takes their least until the S = {} window is the
least; it falls like q^-3, the others like q^-1 and q^(-1/3) and R not at
all, so it stays the least, and later rows take it alone.  The windows are
certified: every root sits in an interval proven in exact arithmetic
to hold exactly one root (below), each p-range is widened by an explicit
bound on its float64 rounding, and every candidate is re-checked with
exact integers.  As G(-p, -q) = G(p, q), only q >= 1 is scanned; the q = 0 row
is solved directly.

Past a threshold q* the rows of a root come from a theorem instead.
S = {} reads |p - alpha q| <= C / q^3 with
C = 8 W / (|a| prod |alpha - beta|), so q^2 > 2C gives
|alpha - p/q| < 1 / (2 q^2), and by Legendre's theorem on continued
fractions p/q is then a convergent p_n/q_n of alpha (of |alpha|, negated,
when alpha < 0): (p, q) = g (p_n, q_n).
q* = isqrt(floor(2C)) + 1 bounds that threshold from above, with C taken
from the separation lower bounds and widened for rounding.  As
|q_n alpha - p_n| > 1 / (q_n + q_n+1), g |q_n alpha - p_n| = |p - alpha q|
< 1 / (2 g q_n) gives g^2 < (q_n + q_n+1) / (2 q_n).  So a search costs a
scan to min(qmax, q*) plus O(log B) rows per root.

The roots come from their continued fractions, expanded in integers by
the method of Vincent, Collins and Akritas.  Every Moebius image
g(y) = (q y + q')^4 f((p y + p') / (q y + q')) of f has only real roots,
and for such a polynomial Descartes' rule of signs is exact: the sign
variations of its coefficients count its positive roots.  So the floor b
of g's least positive root is the largest b at which g(x + b) keeps
every one of them, or, for a lone root, the last b where g keeps its
sign at 0.  Shifting by b and inverting gives the next partial quotient
of each root in (b, b + 1), and by Vincent's theorem the roots part
after finitely many steps.  Each expansion runs until q_n passes
max(B, |c0|).  A rational root p/q in lowest terms has q | c0 (Gauss), so
its expansion ends before that, in an exact zero of some g at an integer
tried, and is rejected there.  A root lies between its last convergent
and the mediant with the one before; these intervals are disjoint and
give the float centre, radius and separations of the windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt


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


@dataclass(frozen=True)
class _Root:
    """Exact data of one (simple, irrational, real) root alpha of f(x) = G(x, 1).

    convergents holds the convergents p_n/q_n, n = 0..N, of the continued
    fraction of |alpha|, with p_n negated when alpha < 0; q_N passes the box,
    and alpha lies strictly between p_N/q_N and (p_N + p_N-1)/(q_N + q_N-1).
    |alpha - x| <= rho, and seps holds a lower bound on |alpha - beta| for
    every other root beta.
    """

    x: float
    rho: float
    seps: tuple[float, ...]
    convergents: tuple[tuple[int, int], ...]


def _shift(g: tuple, b: int) -> tuple:
    """g(x + b) for a quartic g, coefficients lowest degree first (Taylor shift)."""
    a0, a1, a2, a3, a4 = g
    a3 += b * a4
    a2 += b * a3
    a1 += b * a2
    a0 += b * a1
    a3 += b * a4
    a2 += b * a3
    a1 += b * a2
    a3 += b * a4
    a2 += b * a3
    a3 += b * a4
    return a0, a1, a2, a3, a4


def _variations(g: tuple) -> int:
    """The sign variations of g's coefficients."""
    signs = [c > 0 for c in g if c]
    return sum(s != r for s, r in zip(signs, signs[1:]))


def _floor(ok, b: int) -> int:
    """The largest b' >= b with ok(b'), where ok holds at b and on an interval of integers."""
    step = 1
    while ok(b + step):
        b += step
        step <<= 1
    while step > 1:  # ok(b) and not ok(b + step)
        step >>= 1
        if ok(b + step):
            b += step
    return b


def _roots(form: BinaryQuarticForm, bound: int) -> list[_Root]:
    """Every root of f(x) = G(x, 1), expanded into its continued fraction up
    to a denominator past max(bound, |c0|).

    G must be totally real with c0 != 0.  A state (g, p, p', q, q') stands
    for the roots alpha = (p y + p') / (q y + q') with y > 0 a root of
    g(y) = (q y + q')^4 f(alpha), at first g = f; the negative roots are
    the positive roots of f(-x), negated.  Each state's roots are counted
    by sign variations and split at the floor b of the least one (module
    docstring).  After the convergent (p b + p') / (q b + q'), the roots in
    (b, b + 1) go on as the roots past 1 of x^4 g(b + 1 / x), taken from
    (x + 1)^4 g(b + 1 / (x + 1)) while they are several; the others go on
    as g(x + b + 1).  An exact zero of g at any integer tried is a rational
    root and raises ValueError.  A lone root takes two partial quotients at
    least, so its interval lies strictly inside the one that isolated it,
    apart from every other root's.
    """
    f = form.coeffs[::-1]  # lowest degree first
    stop = max(bound, abs(f[4]))

    def nonzero(v: int) -> int:
        if v == 0:
            raise ValueError(f"the form {form.coeffs} has a rational root")
        return v

    def expand_lone(g, p, p1, q, q1, convs):
        b, n = 0, 0
        while n < 2 or q <= stop:
            a0, a1, a2, a3, a4 = g  # g has the sign of a0 on [0, y)
            b = _floor(lambda b: nonzero((((a4 * b + a3) * b + a2) * b + a1) * b + a0) * a0 > 0, b)
            g = _shift(g, b)[::-1]
            p, p1, q, q1 = p * b + p1, p, q * b + q1, q
            convs.append((p, q))
            b, n = 1, n + 1  # the root of x^4 g(b + 1 / x) is > 1
        return convs

    def positive_roots(g):
        todo = [(g, 1, 0, 0, 1, ())]
        while todo:
            g, p, p1, q, q1, convs = todo.pop()
            k = _variations(g)
            if k == 1:
                yield expand_lone(g, p, p1, q, q1, list(convs))
            elif k > 1:
                b = _floor(lambda b: nonzero((h := _shift(g, b))[0]) and _variations(h) == k, 0)
                g1 = _shift(g, b)
                pb, qb = p * b + p1, q * b + q1
                todo.append((_shift(g1, 1), p, pb + p, q, qb + q, convs))
                todo.append((_shift(g1[::-1], 1), pb, pb + p, qb, qb + q, convs + ((pb, qb),)))

    nonzero(f[0])
    chains = list(positive_roots(f))
    chains += [[(-p, q) for p, q in convs]
               for convs in positive_roots(tuple(c * (-1) ** i for i, c in enumerate(f)))]
    ends = []  # each root's interval [lo, hi] / d, of width 1 / d
    for convs in chains:
        (p1, q1), (p, q) = convs[-2:]
        ends.append((*sorted((p * (q + q1), (p + p1) * q)), q * (q + q1)))
    roots = []
    for i, convs in enumerate(chains):
        lo, hi, d = ends[i]
        x = convs[-1][0] / convs[-1][1]
        rho = math.nextafter(math.nextafter(1 / d, math.inf) + math.ulp(x), math.inf)
        seps = tuple(math.nextafter(max(lo2 * d - hi * d2, lo * d2 - hi2 * d) / (d * d2), -math.inf)
                     for lo2, hi2, d2 in ends[:i] + ends[i + 1:])
        roots.append(_Root(x=x, rho=rho, seps=seps, convergents=tuple(convs)))
    return roots


def _fourth_root(v: int, c: int) -> int:
    """r >= 1 with c r^4 = v, or 0 when there is none (c != 0)."""
    n, rem = divmod(v, c)
    r = isqrt(isqrt(n)) if n > 0 and rem == 0 else 0  # floor(n^(1/4))
    return r if r ** 4 == n else 0


def _window_candidates(root: _Root, lead: int, top: int, bound: int):
    """Rows (q, lo, hi), q >= 1, whose p in lo..hi cover every |p|, |q| <= bound
    with |G(p, q)| <= top whose nearest root of f is `root`.

    Rows q < q* are the root windows in float64, clipped to the box, with the
    S = {} window alone once it is the least (module docstring), which keeps
    each row a superset of the all-windows row.  Every row q >= q* is a
    multiple of one of the root's convergents (module docstring).
    """
    big_r = isqrt(isqrt(top // abs(lead))) + 1  # > (top / |lead|)^(1/4)
    convs = root.convergents
    (pm, qm), (pn, qn) = convs[-2:]
    # |alpha| q <= |p| + R <= bound + R, and |alpha| > |n| / d at both ends n / d
    # of its interval
    ends = ((pn, qn), (pn + pm, qn + qm))
    qmax = min(bound, max((bound + big_r) * d // abs(n) for n, d in ends) + 1)
    # one window (const / q^e)^(1/(1 + |S|)) per set S of nearest other
    # roots (module docstring); S = all of them is R itself
    seps = sorted(root.seps)
    terms = []
    for i in range(len(seps)):
        rest = seps[i:]
        terms.append((2.0 ** len(rest) * top / abs(lead) / math.prod(rest), len(rest),
                      1.0 / (i + 1)))
    end, tail = qmax, []
    # terms[0] is S = {}: |p - alpha q| <= C / q^3
    (const, e, _), others = terms[0], terms[1:]  # m = 1 for S = {}
    twice_c = 2 * const * _GROW
    if twice_c < qmax * qmax:
        qstar = isqrt(math.floor(twice_c)) + 1
        tail = [(p1, q1, q2) for (p1, q1), (_, q2) in zip(convs, convs[1:]) if q1 <= qmax]
        end = qstar - 1

    def rows():
        x, big, ceil, floor = root.x, float(big_r), math.ceil, math.floor
        size = (abs(x) + root.rho) * end + big_r + 2
        slack = (root.rho * end + 8 * _U * size) * _GROW
        alone = False
        for q in range(1, end + 1):
            fq = float(q)
            half = const / fq ** e * _GROW  # S = {}; from `alone` on the one window
            if not alone:
                least = min([big] + [(k / fq ** j) ** m * _GROW for k, j, m in others])
                alone, half = half <= least, min(half, least)
            centre = x * fq
            lo, far = ceil(centre - half - slack), centre + half + slack
            if lo <= far:  # the integer lo is at most floor(far)
                lo, hi = max(lo, -bound), min(floor(far), bound)
                if lo <= hi:
                    yield q, lo, hi
        for p1, q1, q2 in tail:
            # g^2 < (q1 + q2) / (2 q1), as |p1 - alpha q1| > 1 / (q1 + q2)
            for g in range(-(-qstar // q1), min(isqrt((q1 + q2 - 1) // (2 * q1)), qmax // q1) + 1):
                if abs(g * p1) <= bound:
                    yield g * q1, g * p1, g * p1

    return rows()


def bounded_search_multi(form: BinaryQuarticForm, targets, bound: int
                         ) -> dict[int, SolutionSet]:
    """All canonical pairs with |p|,|q| <= bound and form(p,q) = v, for each target v.

    The form must be totally real with c0 != 0 and no rational root and
    every target nonzero (module docstring).  Only the p allowed by the
    root windows and the convergent tails are tried, row by row, and every
    candidate is re-checked in exact integers; a pair found from two roots
    counts once.
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
    c0, c1, c2, c3, c4 = form.coeffs
    reach = form.reach(bound)  # larger targets have no solution in the box
    top = max((abs(v) for v in targets if abs(v) <= reach), default=0)
    windows = [_window_candidates(root, c0, top, bound) for root in _roots(form, bound)]
    hits: dict[int, list[tuple[int, int]]] = {v: [] for v in targets}
    for v in targets:
        # the q = 0 row: G(p, 0) = c0 p^4 with p >= 1
        r = _fourth_root(v, c0)
        if 1 <= r <= bound:
            hits[v].append((r, 0))
    for q, lo, hi in chain.from_iterable(windows):
        b1, b2, b3, b4 = c1 * q, c2 * q * q, c3 * q ** 3, c4 * q ** 4
        for p in range(lo, hi + 1):
            val = (((c0 * p + b1) * p + b2) * p + b3) * p + b4  # G(p, q)
            if val in hits:
                hits[val].append((p, q))
    return {v: SolutionSet.of(pairs, Rigor.bounded(bound)) for v, pairs in hits.items()}
