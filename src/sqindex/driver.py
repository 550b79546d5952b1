"""Minimal-index computation for the quartic family.

For a given parameter t the minimal index m is found by trying
m = 1, 2, ..., n.  An element of index m has Q1 = +-u, Q2 = +-v with
F(u, v) = +-g^6 m / n, so it lies on the cone v*Q1 - u*Q2 = 0 of one
branch (u, v), and every branch runs one pipeline (`branch_candidates`):

  local sieve -> base point -> parametrization -> Thue equations -> elements

Case I (v = 0) is the one cone (2^(l/3), 0), present when
g^6 m / n = 2^l with 3 | l, through the closed-form point (-6, 0, 1).
Case II (v != 0) reads its cones from `_cones`, one exact family-wide
table (below).  A local sieve mod 32 and then mod 5 (`local_sieve`, by
exact p-adic digit lifting, one cached verdict per t mod N, 2-adic class
and (u, v) mod N) proves a branch empty before any conic work when no
integral element has Q1, Q2 = +-(u, v) mod N at its power part.  The
solver is picked from the reduced equation: the family form F_t with
right sides +-2^e goes to `solve_power_of_two`, which is complete (every
case-I cone reduces so), anything else to the bounded search.  The rigor
of a result is the first non-proven one its solvers returned, so a
branch is bounded only by a Thue box that was searched.

K is cyclic, sigma(xi) = (xi - 1)/(xi + 1) generates Gal(K/Q) and the index
is Galois-invariant, so the case-II cones come in sigma-pairs (u, v),
(-u - 4v, v); only the case-I cone and the s = u + 2v > 0 cones are searched,
and a mate takes its pair's sigma-images (each a `GaloisImage`) and rigor.

The case-II equation F(u, v) = +-g^6 m / n is solved for t once for the
whole family by `_cones` (each sum it solves is at most 2^24 + 1, whence
t <= 4095): 108 cones, all at t <= 256.  The sieve closes 74: the 22
without a rational point and 52 of the 86 soluble ones (46 mod 32, 6 mod
5).  The 34 residual cones form 17 sigma-pairs, each with its s > 0 base
point in closed form (`find_point`), and `parametrize` never fails on a
branch cone (its Hessian determinant is 2 F(u, v) != 0), so every searched
branch ends in a proof or a Thue search.

Every emitted element is re-verified against both the basis-determinant
oracle |det(1, e, e^2, e^3)| and the resolvent-form computation.  The box
oracle `brute_force_minimal` shares no step with the pipeline: it reads
that determinant, a form of degree 6, at the 120 points of order <= 7
from the box corner, takes their forward differences, and rebuilds the
form over the box from them by Newton's forward formula, exact in Z/2^64
(a ring map) and one (X2, X3) row block of <= 2^15 cells at a time: six
adds and one compare per cell, where det = +-m is a necessary congruence.
It rechecks every match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb, isqrt
from typing import NamedTuple

from .fieldmodel import (_BASIS_NUM, _CLASS_GN, FamilyParameter, V2Class, odd_square_divisor,
                         v2, v2_class)
from .elements import (AlgebraicInt, _basis_det, _mult_table, canonical_triple, index_oracle,
                       power_part, sigma, to_power_rep, triple_from_xyz)
from .indexcore import (NotInRange, TernaryForm, family_forms, index_via_forms,
                        rhs_decompositions)
from .thue import (DEFAULT_THUE_BOUND, Rigor, bounded_search_multi, family_form,
                   solve_power_of_two)
from .conic import divisors, parametrize, thue_reduction


class VerificationError(ArithmeticError):
    """A computed result failed one of its exact checks."""


class Hit(NamedTuple):
    """One Thue solution (p, q) of form = w, divisor k, that gave an element."""

    case: str
    u: int
    v: int
    k: int
    p: int
    q: int
    w: int


class GaloisImage(NamedTuple):
    """The element is sigma^power of the element `of`; it lies on the cone (u, v)."""

    case: str
    u: int
    v: int
    power: int
    of: tuple[int, int, int]


@dataclass(frozen=True)
class CaseTwoTriple:
    """A (t, u, v) candidate with its exact provenance."""

    t: int
    u: int
    v: int
    a1: int
    a2: int
    i: int
    l: int
    sign_inner: int
    sign_outer: int
    implied_m: int
    hypothesis_ok: bool


@dataclass(frozen=True)
class MinimalIndexResult:
    t: int
    m: int
    elements: tuple[tuple[int, int, int], ...]
    rigor: Rigor
    trace: dict  # canonical element -> sorted tuple of its Hits and GaloisImages
    hypothesis_ok: bool


def _sort_elements(canon_set) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(canon_set, key=lambda c: (c[2], c[1], c[0])))


@cache  # at most sum(n) = 30 keys over the family, each built on first use
def _cones(cls: V2Class, m: int) -> dict[int, dict[tuple[int, int], CaseTwoTriple]]:
    """Every case-II cone of the class at index m: t -> {(u, v): its provenance}.

    With s = u + 2v, F(u, v) = s*(s^2 - (t^2+16)*v^2) = +-g^6 m / n = +-a*2^l
    (a odd), so |s| = a1*2^i with a = a1*a2 and v^2*(t^2+16) is one of the
    sums a1^2*4^i + s'*a2*2^(l-i), s' = +-1.  Each sum is solved for t by a
    scan over the v with v^2 dividing it; then u = +-a1*2^i - 2v.  (t, u, v)
    fixes m through F, and each cone arises from one decomposition only.
    """
    g, n = _CLASS_GN[cls]
    val = g ** 6 * m // n
    l = v2(val)
    a = val >> l
    cones: dict[int, dict[tuple[int, int], CaseTwoTriple]] = {}
    for a1 in divisors(a):
        a2 = a // a1
        for i in range(l + 1):
            for s in (1, -1):
                total = a1 * a1 * (1 << (2 * i)) + s * a2 * (1 << (l - i))
                if total < 17:
                    continue
                for v in range(1, isqrt(total // 17) + 1):  # then t^2 = total/v^2 - 16 >= 1
                    if total % (v * v):
                        continue
                    tt = total // (v * v) - 16
                    t = isqrt(tt)
                    if t * t != tt or t == 3 or v2_class(t) is not cls:
                        continue
                    hypothesis_ok = odd_square_divisor(t * t + 16) is None
                    for sigma in (1, -1):
                        u = sigma * a1 * (1 << i) - 2 * v
                        cones.setdefault(t, {})[u, v] = CaseTwoTriple(
                            t=t, u=u, v=v, a1=a1, a2=a2, i=i, l=l,
                            sign_inner=s, sign_outer=sigma,
                            implied_m=m, hypothesis_ok=hypothesis_ok)
    return cones


def candidate_uv_pairs(param: FamilyParameter, m: int) -> list[tuple[int, int]]:
    """All (u, v) with v >= 1 compatible with index m, sorted: the cones of param.t in `_cones`."""
    if not 1 <= m <= param.n:
        raise NotInRange(f"m = {m} outside 1..{param.n}")
    return sorted(_cones(param.v2_class, m).get(param.t, ()))


def _check_on_cone(param: FamilyParameter, xyz, cone: tuple[int, int], what: str) -> None:
    """Raise VerificationError unless Q1, Q2 at the power part xyz are +-cone; what names it."""
    _, q1, q2 = family_forms(param.t)
    u, v = cone
    if (q1(*xyz), q2(*xyz)) not in ((u, v), (-u, -v)):
        raise VerificationError(f"{what} at t={param.t} is not on the cone {cone}")


def _collect_solution(param, par, k, p, q, w, uv, out):
    """Map a Thue solution to its element, if integral, and add its Hit to out; off uv it raises."""
    vec = par.evaluate(p, q)
    if any(c % k for c in vec):
        return
    xyz = tuple(c // k for c in vec)
    _check_on_cone(param, xyz, uv, f"the point {xyz} of the Thue solution {(p, q)} of {w}")
    trip = triple_from_xyz(*xyz, param)
    if trip is None:
        return
    hit = Hit("I" if uv[1] == 0 else "II", *uv, k, p, q, w)
    out.setdefault(canonical_triple(trip), set()).add(hit)


# Moduli p^k of `local_sieve`, in the order tried: 2^5 closes 46 of the
# family's 86 soluble cones and 5^1 closes 6 more.
_SIEVE_MODULI = ((2, 5), (5, 1))


def _power_part_form(q: TernaryForm, rows) -> TernaryForm:
    """q(power_part(X1, X2, X3, rows)) as a ternary form in X, read off six values."""
    def at(*x):
        return q(*power_part(*x, rows))
    d1, d2, d3 = at(1, 0, 0), at(0, 1, 0), at(0, 0, 1)
    return TernaryForm((d1, at(1, 1, 0) - d1 - d2, d2, at(1, 0, 1) - d1 - d3,
                        at(0, 1, 1) - d2 - d3, d3))


@cache  # one entry per (p, k, t mod p^k, class) of `local_sieve`: at most 32 + 5*4
def _lift_start(p: int, k: int, t: int, cls: V2Class):
    """(A, B, roots) of the lifting in `_reached` mod p^k at the parameter t mod p^k.

    A and B are Q1 and Q2 at the power part (`_power_part_form`), and roots
    maps (A(X0), B(X0)) mod p to its root digits X0 in (Z/p)^3.  Raises
    ArithmeticError unless k = 1 or the Hessians of A and B are 0 mod p
    (`_reached`).
    """
    rows = _BASIS_NUM[cls]
    forms = [_power_part_form(q, rows) for q in family_forms(t)[1:]]
    if k > 1 and any(c * (1 + diag) % p for f in forms
                     for c, diag in zip(f.coeffs, (1, 0, 1, 0, 0, 1))):
        raise ArithmeticError(f"a sieve form at t = {t} mod {p}^{k} has a Hessian not 0 mod {p}")
    roots: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for x in product(range(p), repeat=3):
        roots.setdefault((forms[0](*x) % p, forms[1](*x) % p), []).append(x)
    return (*forms, roots)


@cache  # keyed like the verdicts of `local_sieve`: at most 32^3 + 5*4*5^2 entries
def _reached(p: int, k: int, t: int, cls: V2Class, u: int, v: int) -> bool:
    """Whether some X in Z^3 has A(X), B(X) = u, v mod p^k, for A, B = Q1, Q2 at the power part.

    t, u and v are taken mod p^k.  X is lifted one p-adic digit at a time,
    from the root digits of `_lift_start` on.  A solution mod p^(j+1)
    reduces to one mod p^j, so keeping every lift that solves the system mod
    p^(j+1) misses none, and the search stops at the first X that reaches
    p^k.  For j >= 1,

        A(X + p^j d) = A(X) + p^j (H X) . d + p^(2j) A(d) = A(X)  (mod p^(j+1))

    when the Hessian H of A is 0 mod p: the 2 x 3 system over F_p of the
    lift then has the zero matrix, so X lifts exactly when it already solves
    the system mod p^(j+1), and then with every digit d.  Mod 2 the Hessians
    of A and B vanish in every class (their cross coefficients are even), and
    5 is never lifted past its root digit.
    """
    a, b, roots = _lift_start(p, k, t, cls)
    stack = [(x, 1) for x in roots.get((u % p, v % p), ())]
    while stack:
        (x1, x2, x3), j = stack.pop()  # a solution mod p^j
        if j == k:
            return True
        q = p ** j
        if (u - a(x1, x2, x3)) % (p * q) or (v - b(x1, x2, x3)) % (p * q):
            continue
        stack.extend(((x1 + q * d1, x2 + q * d2, x3 + q * d3), j + 1)
                     for d1, d2, d3 in product(range(p), repeat=3))
    return False


def local_sieve(param: FamilyParameter, u: int, v: int) -> int | None:
    """The closing modulus of the branch (u, v) of param, or None.

    A system with no solution mod N has no integer solution.  The result
    is the first N in (32, 5) at which no integral element has
    Q1, Q2 = +-(u, v) mod N at its power part, or None when both moduli
    leave the branch open.  `_reached` decides each sign by exact p-adic
    lifting.

    Theorem: the verdict for N is a function of (t mod N, 2-adic class,
    u mod N, v mod N), as Q1 and Q2 (`family_forms`) have integer polynomial
    coefficients in t and the power part reads only the class's basis.
    """
    for p, k in _SIEVE_MODULI:
        n = p ** k
        t, cls = param.t % n, param.v2_class
        if not (_reached(p, k, t, cls, u % n, v % n) or _reached(p, k, t, cls, -u % n, -v % n)):
            return n
    return None


def find_point(t: int, u: int, v: int) -> tuple[int, int, int]:
    """A nonzero integer point on the cone v*Q1 - u*Q2 = 0 of the family at t.

    The case-I cone v = 0 is -u*Q2 = 0, through (-6, 0, 1) as
    Q2(x, 0, 1) = -x - 6.  Otherwise, with s = u + 2v, two rules give the
    point:

      s = 2tv:  (2, 1, 0)
      s = tv:   (-(t+3), -(t-1), 1)

    Each rule is a polynomial identity on `family_forms`, in (t, u) for
    v = 0 and in (t, v) for the others (a test proves them with sympy).
    With the literal point (-11, -5, 1) of (t, u, v) = (4, 36, 10) they
    cover every cone the driver parametrizes: the case-I cones and the 17
    residual s > 0 cones (a mate, s < 0, is never parametrized).  Any other
    cone raises ValueError, and `parametrize` checks every point on its cone.
    """
    if v == 0:
        return (-6, 0, 1)
    s = u + 2 * v
    if s == 2 * t * v:
        return (2, 1, 0)
    if s == t * v:
        return (-(t + 3), -(t - 1), 1)
    if (t, u, v) == (4, 36, 10):
        return (-11, -5, 1)
    raise ValueError(f"no base point known for the cone (t, u, v) = {(t, u, v)}")


def branch_candidates(param: FamilyParameter, m: int,
                      thue_bound: int = DEFAULT_THUE_BOUND) -> tuple[dict, Rigor]:
    """Elements of index m from every branch (u, v), each with its records, and the rigor.

    The cones are the case-I cone (2^(l/3), 0) when g^6 m / n = 2^l with
    3 | l, then `candidate_uv_pairs`.  The case-I cone and each case-II cone
    with s = u + 2v > 0 are searched: a cone the local sieve closes is
    proven empty; every other one parametrizes through `find_point` into
    Thue equations, proven empty when no right side is integral.  Those of
    the family form F_t with right sides +-2^e go to the complete
    `solve_power_of_two`, the others to `bounded_search_multi` with box
    thue_bound.  The rigor is the first non-proven one returned, if any.
    Each element found carries one `Hit` per Thue solution that gave it.

    The case-II cones come in sigma-pairs: the mate of (u, v) is
    (-u - 4v, v), with s and F negated, and its elements are the sigma-images
    of the searched cone's, so the mate is neither parametrized nor searched
    and carries the rigor, and the box, of its pair: `_add_sigma_images`
    records each image as a `GaloisImage`.  A cone without its mate raises
    VerificationError.
    """
    t = param.t
    a, l = rhs_decompositions(param, m)
    cones = candidate_uv_pairs(param, m)
    if any((-u - 4 * v, v) not in cones for u, v in cones):
        raise VerificationError(f"the case-II cones of {param} at m = {m} are not sigma-pairs")
    if a == 1 and l % 3 == 0:
        cones.insert(0, (1 << l // 3, 0))
    _, q1, q2 = family_forms(t)
    out: dict = {}
    rigor = Rigor.certain()
    for u, v in cones:
        if u + 2 * v < 0 or local_sieve(param, u, v) is not None:
            continue
        par = parametrize(TernaryForm.combine(v, q1, -u, q2), find_point(t, u, v))
        qform, target = (q1, u) if u != 0 else (q2, v)
        red = thue_reduction(par, qform, target)
        if not red.instances:
            continue
        targets = {w for inst in red.instances for w in (inst.rhs, -inst.rhs)}
        if red.form == family_form(t) and not any(w & (w - 1) for w in map(abs, targets)):
            sols = {w: solve_power_of_two(t, w) for w in targets}
        else:
            sols = bounded_search_multi(red.form, targets, thue_bound)
        if rigor.proven:
            rigor = next((sol.rigor for sol in sols.values() if not sol.rigor.proven), rigor)
        found: dict = {}
        for inst in red.instances:
            for w in (inst.rhs, -inst.rhs):
                for p, q in sols[w]:
                    _collect_solution(param, par, inst.k, p, q, w, (u, v), found)
        if v:  # the case-I cone has no mate
            _add_sigma_images(param, (u, v), found, out)
        out.update(found)
    return out, rigor


def _add_sigma_images(param: FamilyParameter, cone: tuple[int, int], found: dict,
                      out: dict) -> None:
    """Add to out sigma^k(c), k = 1, 2, 3, of each element c found on the searched cone.

    sigma and sigma^3 map the cone onto its mate (-u - 4v, v).  sigma^2 keeps
    the cone, so sigma^2(c) is added only when the search did not find it (a
    box too small for a whole orbit would otherwise leave the set not
    sigma-stable).  Each image must lie on its cone (`_check_on_cone`).
    """
    u, v = cone
    for canon in found:
        e = AlgebraicInt((0, *canon))
        for power in (1, 2, 3):
            e = sigma(e, param)
            image = canonical_triple(e.triple)
            if power == 2 and image in found:
                continue
            iu, iv = (u, v) if power == 2 else (-u - 4 * v, v)
            _check_on_cone(param, power_part(*image, param.basis_num), (iu, iv),
                           f"the sigma^{power}-image {image} of {canon}")
            out.setdefault(image, set()).add(GaloisImage("sigma", iu, iv, power, canon))


def minimal_index(param: FamilyParameter,
                  thue_bound: int = DEFAULT_THUE_BOUND) -> MinimalIndexResult:
    """Minimal index of the field and every element attaining it.

    Tries m = 1, 2, ... and stops at the first m with solutions, each m
    through the one pipeline of `branch_candidates`, which searches one
    cone of each sigma-pair.  The rigor is the first non-proven one the
    solvers returned at the successful m or below it, else proven.  Every
    element is re-verified with both index computations, and the set is
    checked to be sigma-stable: the canonical sigma-image of each element
    is in it.  Either check raises VerificationError when it fails.
    """
    rigor = Rigor.certain()
    for m in range(1, param.n + 1):
        found, branch_rigor = branch_candidates(param, m, thue_bound)
        if rigor.proven:
            rigor = branch_rigor
        for canon in found:
            e = AlgebraicInt((0, *canon))
            m_oracle = index_oracle(e, param)
            m_forms = index_via_forms(to_power_rep(e, param), param)
            if m_oracle != m or m_forms != m:
                raise VerificationError(
                    f"verification failed for {canon} at t={param.t}: "
                    f"oracle={m_oracle}, forms={m_forms}, expected {m}")
            image = canonical_triple(sigma(e, param).triple)
            if image not in found:
                raise VerificationError(f"the sigma-image {image} of {canon} at t={param.t} "
                                        f"is missing from the elements of index {m}")
        if found:
            return MinimalIndexResult(
                t=param.t, m=m, elements=_sort_elements(found), rigor=rigor,
                trace={c: tuple(sorted(hits)) for c, hits in found.items()},
                hypothesis_ok=param.odd_part_squarefree)
    raise VerificationError(f"no index <= n found for t={param.t}; I(xi) = n is always attained")


def enumerate_case2_triples(t_max: int) -> list[CaseTwoTriple]:
    """All (t, u, v) candidates with t <= t_max over every class and m <= n.

    Reads the `_cones` tables.  Parameters violating the squarefree
    hypothesis are included and flagged.
    """
    return sorted((c for cls, (_, n) in _CLASS_GN.items() for m in range(1, n + 1)
                   for t, by_uv in _cones(cls, m).items() if t <= t_max
                   for c in by_uv.values()),
                  key=lambda c: (c.t, c.implied_m, c.v, -c.u))


# --- box-scan oracle -------------------------------------------------------
# The only numpy code of this module: each function imports it, so the
# minimal-index pipeline runs without loading it.

_WORD = 1 << 64  # the scan runs in Z/2^64: unsigned (uint64) overflow wraps by definition
_DEGREE = 6  # of the index form det(1, e, e^2, e^3) in (X1, X2, X3)
_PLANE_CELLS = 1 << 15  # (X2, X3) cells per row block of `_index_scan`: 7 uint64 planes, 1.8 MB


def _corner_table(param: FamilyParameter, box: int):
    """T[i, j, k] = (Delta_1^i Delta_2^j Delta_3^k f)(0, -box, -box) mod 2^64, 7 x 7 x 7 uint64.

    f = det(1, e, e^2, e^3) for e = X1*b2 + X2*b3 + X3*b4.  One `_basis_det`
    call on uint64 arrays, its table reduced mod 2^64 (a ring map, and
    `_basis_det` is a polynomial), reads f at the 120 points
    (a, b - box, c - box), a + b + c <= 7, and a difference table along each
    axis turns them into the differences of order <= 7 at the corner.  f has
    degree 6, so every order-7 difference is 0, or ArithmeticError is raised;
    entries of order > 6 are set to 0.
    """
    import numpy as np

    order = np.indices((_DEGREE + 2,) * 3).sum(axis=0)
    a, b, c = np.nonzero(order <= _DEGREE + 1)
    table = np.array(np.array(_mult_table(param), dtype=object) % _WORD, dtype=np.uint64)
    diff = np.zeros(order.shape, dtype=np.uint64)
    diff[a, b, c] = _basis_det(table, [x.astype(np.uint64) for x in (a, b - box, c - box)])
    for axis in range(3):
        view = np.moveaxis(diff, axis, 0)
        for step in range(1, _DEGREE + 2):
            view[step:] -= view[step - 1:-1]
    if diff[order == _DEGREE + 1].any():
        raise ArithmeticError(f"the index form of {param} is not of degree 6")
    diff[order > _DEGREE] = 0
    return diff[:-1, :-1, :-1]


def _index_scan(param: FamilyParameter, box: int, shift: int):
    """Yield (x1, x2s, D), x1 = 0..box, D[a, b] = f(x1, x2s[a], b - box) + shift mod 2^64.

    Per block x2s of plane rows (at most _PLANE_CELLS cells), the differences
    Delta^0..6 in X1 start at X1 = 0 as N T N^T, Newton's forward formula
    g(-box + a) = sum_j C(a, j) (Delta^j g)(-box) in X2 and X3, with
    N[a, j] = C(a, j) and T the `_corner_table`; by degree 6,
    Delta^k += Delta^(k+1), k < 6, steps X1.  D is Delta^0, which the next
    step overwrites.
    """
    import numpy as np

    corner = _corner_table(param, box)
    xs = range(-box, box + 1)
    newton = np.array([[comb(a, j) % _WORD for j in range(_DEGREE + 1)] for a in range(len(xs))],
                      dtype=np.uint64)
    rows = max(1, _PLANE_CELLS // len(xs))
    for start in range(0, len(xs), rows):
        diff = newton[start:start + rows] @ corner @ newton.T
        diff[0] += shift
        for x1 in range(box + 1):
            for k in range(_DEGREE if x1 else 0):
                diff[k] += diff[k + 1]
            yield x1, xs[start:start + rows], diff[0]


def brute_force_minimal(param: FamilyParameter, box: int
                        ) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Minimum index over all elements with |X1|,|X2|,|X3| <= box, X0 = 0.

    Independent oracle: `_index_scan` steps the index form f over the box in
    Z/2^64.  Shifted by n, one compare per cell keeps each f = k, |k| <= n, a
    necessary congruence for det = +-m; `index_oracle` rechecks each such cell
    and drops f = 0.  e and -e share the index, so canonical X1 >= 0 suffices.
    """
    import numpy as np

    if box < 1:
        raise ValueError("box must be >= 1")
    hits: dict[int, set] = {m: set() for m in range(1, param.n + 1)}
    for x1, x2s, vals in _index_scan(param, box, param.n):
        mask = vals <= 2 * param.n
        for cell in np.flatnonzero(mask) if mask.any() else ():
            a, b = divmod(int(cell), 2 * box + 1)
            cand = (x1, x2s[a], b - box)
            m = index_oracle(AlgebraicInt((0, *cand)), param)
            if m in hits:
                hits[m].add(canonical_triple(cand))
    m = min(m for m in hits if hits[m])  # xi = (1, 0, 0), of index n, is in every box
    return m, _sort_elements(hits[m])
