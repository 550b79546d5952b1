"""Minimal-index computation for the quartic family.

For a given parameter t the minimal index m is found by trying
m = 1, 2, ..., n and collecting, for each m, the elements produced by the
two branches of the reduction:

  Case I  (v = 0):  the Thue equations are the family form itself with a
                    power-of-two right side; their solution sets are known
                    completely, so this branch is rigorous.
  Case II (v != 0): finitely many (u, v) pairs survive an exact
                    divisor/perfect-square sweep; each cone without a
                    rational point (Legendre) is proven empty, the others
                    lead to a parametrization and quartic Thue equations
                    solved by bounded exhaustive search, so such a branch
                    carries a search-box flag.

Every emitted element is re-verified against both the characteristic
polynomial oracle and the resolvent-form computation.  A direct
box-scan oracle over integral coordinates is provided for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .fieldmodel import (FamilyParameter, V2Class, odd_square_divisor,
                         v2, v2_class, validate_parameter)
from .elements import (AlgebraicInt, canonical_triple, index_oracle,
                       mult_matrix, to_power_rep, triple_from_xyz)
from .indexcore import (TernaryForm, family_forms, index_via_forms,
                        rhs_decompositions)
from .thue import bounded_search_multi, family_form, solve_power_of_two
from .conic import (DegeneratePoint, divisors, find_point, parametrize,
                    thue_reduction)

DEFAULT_THUE_BOUND = 100_000
_SYSTEM_SCAN_BOX = 48  # |x|, |y|, |z| box of `_system_box_scan`

_CLASS_GN = {V2Class.V0: (2, 2), V2Class.V1: (2, 4),
             V2Class.V2: (4, 8), V2Class.V3plus: (4, 16)}


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

    def merge(self, other: "Rigor") -> "Rigor":
        if self.proven:
            return other
        if other.proven:
            return self
        return Rigor(False, min(self.bound, other.bound))

    def label(self) -> str:
        return "Proven" if self.proven else f"BoundedSearchOnly({self.bound})"


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
    trace: dict
    hypothesis_ok: bool


def _sort_elements(canon_set) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(canon_set, key=lambda c: (c[2], c[1], c[0])))


def candidate_uv_pairs(param: FamilyParameter, m: int) -> dict:
    """All (u, v) with v >= 1 compatible with index m, from the exact sweep.

    Splits the odd part a of g^6 m / n = a*2^l as a1*a2, and keeps
    (a1, a2, i, s) whenever a1^2*4^i + s*a2*2^(l-i) equals v^2*(t^2+16)
    for a positive integer v; then u = +-a1*2^i - 2v.
    """
    a, l = rhs_decompositions(param, m)
    tt16 = param.t * param.t + 16
    pairs = {}
    for a1 in divisors(a):
        a2 = a // a1
        for i in range(l + 1):
            for s in (1, -1):
                val = a1 * a1 * (1 << (2 * i)) + s * a2 * (1 << (l - i))
                if val <= 0 or val % tt16:
                    continue
                vv = val // tt16
                v = isqrt(vv)
                if v == 0 or v * v != vv:
                    continue
                for sigma in (1, -1):
                    u = sigma * a1 * (1 << i) - 2 * v
                    pairs.setdefault((u, v), (a1, a2, i, l, s, sigma))
    return pairs


def case1_candidates(param: FamilyParameter, m: int) -> tuple[dict, Rigor]:
    """Elements of index m coming from the v = 0 branch (complete).

    Nonempty only when g^6 m / n = 2^l with l in {6, 9, 12}; then
    u = 2^i, i = l/3, and the Thue equations are F_t = +-k^2/2^i over
    k | 2^i, solved by the proven power-of-two solver.
    """
    a, l = rhs_decompositions(param, m)
    if a != 1 or l not in (6, 9, 12):
        return {}, Rigor.certain()
    i = l // 3
    t = param.t
    _, q1, q2 = family_forms(t)
    q0 = q2.scaled(1 << i)
    point = find_point(q0)
    par = parametrize(q0, point)
    u = 1 << i
    red = thue_reduction(par, q1, u)
    if red.instances and red.instances[0].form != family_form(t):
        raise ArithmeticError("case I reduction did not return the family form")
    out: dict = {}
    for inst in red.instances:
        for w in (inst.rhs, -inst.rhs):
            for p, q in solve_power_of_two(t, w):
                _collect_solution(param, par, inst.k, p, q, w, (u, 0), "I", out)
    return out, Rigor.certain()


def _collect_solution(param, par, k, p, q, w, uv, case, out):
    """Map a Thue solution through the parametrization and store it."""
    vec = par.evaluate(p, q)
    if any(c % k for c in vec):
        return
    xyz = tuple(c // k for c in vec)
    if xyz == (0, 0, 0):
        return
    _, q1, q2 = family_forms(param.t)
    got = (q1(*xyz), q2(*xyz))
    u, v = uv
    if got != (u, v) and got != (-u, -v):
        return
    trip = triple_from_xyz(*xyz, param)
    if trip is None:
        return
    canon = canonical_triple(trip)
    rec = {"case": case, "u": u, "v": v, "k": k, "p": p, "q": q, "w": w}
    out.setdefault(canon, [])
    if rec not in out[canon]:
        out[canon].append(rec)


def case2_candidates(param: FamilyParameter, m: int,
                     thue_bound: int = DEFAULT_THUE_BOUND) -> tuple[dict, Rigor]:
    """Elements of index m from the v != 0 branch.

    Any solution of the system Q1 = +-u, Q2 = +-v lies on the cone
    Q0 = v*Q1 - u*Q2 = 0.  When Q0 has no rational point (a Hilbert
    symbol obstruction, see `conic`) the branch is proven empty; so is
    one whose Thue equations have no integral right side.  The result is
    bounded only by the searches that actually ran: the Thue box, or the
    direct scan box for a cone without a parametrization.
    """
    _, q1, q2 = family_forms(param.t)
    out: dict = {}
    rigor = Rigor.certain()
    for (u, v), _prov in sorted(candidate_uv_pairs(param, m).items()):
        q0 = TernaryForm.combine(v, q1, -u, q2)
        point = find_point(q0)
        if point is None:
            continue
        try:
            par = parametrize(q0, point)
            qform, target = (q1, u) if u != 0 else (q2, v)
            red = thue_reduction(par, qform, target)
        except DegeneratePoint:
            _system_box_scan(param, u, v, _SYSTEM_SCAN_BOX, out)
            rigor = rigor.merge(Rigor.bounded(_SYSTEM_SCAN_BOX))
            continue
        if not red.instances:
            continue
        targets = set()
        for inst in red.instances:
            targets.update((inst.rhs, -inst.rhs))
        sols = bounded_search_multi(red.instances[0].form, targets, thue_bound)
        rigor = rigor.merge(Rigor.bounded(thue_bound))
        for inst in red.instances:
            for w in (inst.rhs, -inst.rhs):
                for p, q in sols[w]:
                    _collect_solution(param, par, inst.k, p, q, w, (u, v), "II", out)
    return out, rigor


def _system_box_scan(param: FamilyParameter, u: int, v: int, box: int, out: dict):
    """Direct scan for Q1 = +-u, Q2 = +-v when no parametrization exists.

    Fallback for singular cones; same bounded-search semantics.
    """
    box = min(box, 48)
    _, q1, q2 = family_forms(param.t)
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            for z in range(-box, box + 1):
                if (q1(x, y, z), q2(x, y, z)) in ((u, v), (-u, -v)):
                    trip = triple_from_xyz(x, y, z, param)
                    if trip is None:
                        continue
                    canon = canonical_triple(trip)
                    rec = {"case": "II-box", "u": u, "v": v, "k": 0,
                           "p": x, "q": y, "w": z}
                    out.setdefault(canon, [])
                    if rec not in out[canon]:
                        out[canon].append(rec)


def minimal_index(param: FamilyParameter,
                  thue_bound: int = DEFAULT_THUE_BOUND) -> MinimalIndexResult:
    """Minimal index of the field and every element attaining it.

    Tries m = 1, 2, ... and stops at the first m with solutions; the
    rigor flag is the weakest one met at the successful m or below it.
    Every element is re-verified with both index computations.
    """
    rigor = Rigor.certain()
    for m in range(1, param.n + 1):
        found1, r1 = case1_candidates(param, m)
        found2, r2 = case2_candidates(param, m, thue_bound)
        rigor = rigor.merge(r1).merge(r2)
        merged: dict = {}
        for src in (found1, found2):
            for canon, recs in src.items():
                merged.setdefault(canon, [])
                merged[canon].extend(r for r in recs if r not in merged[canon])
        for canon in merged:
            e = AlgebraicInt((0, *canon))
            m_oracle = index_oracle(e, param)
            m_forms = index_via_forms(to_power_rep(e, param), param)
            if m_oracle != m or m_forms != m:
                raise ArithmeticError(
                    f"verification failed for {canon} at t={param.t}: "
                    f"oracle={m_oracle}, forms={m_forms}, expected {m}")
        if merged:
            return MinimalIndexResult(
                t=param.t, m=m, elements=_sort_elements(merged),
                rigor=rigor, trace={c: tuple(sorted(map(tuple, (r.items() for r in recs))))
                                    for c, recs in merged.items()},
                hypothesis_ok=param.odd_part_squarefree)
    raise ArithmeticError(f"no index <= n found for t={param.t}; I(xi) = n is always attained")


def minimal_index_for(t: int, allow_hypothesis_violation: bool = False,
                      **kwargs) -> MinimalIndexResult:
    return minimal_index(validate_parameter(t, allow_hypothesis_violation), **kwargs)


def enumerate_case2_triples(t_max: int) -> list[CaseTwoTriple]:
    """All (t, u, v) candidates with t <= t_max over every class and m <= n.

    Solves a1^2*4^i + s*a2*2^(l-i) = v^2*(t^2+16) exactly for every
    decomposition, extracting t by a divisor scan over v.  Parameters
    violating the squarefree hypothesis are included and flagged.
    """
    hypo_cache: dict[int, bool] = {}
    found: dict[tuple[int, int, int], CaseTwoTriple] = {}
    for cls, (g, n) in _CLASS_GN.items():
        for m in range(1, n + 1):
            val = g ** 6 * m // n
            l = v2(val)
            a = val >> l
            for a1 in divisors(a):
                a2 = a // a1
                for i in range(l + 1):
                    for s in (1, -1):
                        total = a1 * a1 * (1 << (2 * i)) + s * a2 * (1 << (l - i))
                        if total < 17:
                            continue
                        vmax = isqrt(total // 17)
                        for v in range(1, vmax + 1):
                            if total % (v * v):
                                continue
                            tt = total // (v * v) - 16
                            if tt <= 0:
                                continue
                            t = isqrt(tt)
                            if t * t != tt or t == 0 or t == 3 or t > t_max:
                                continue
                            if v2_class(t) is not cls:
                                continue
                            if t not in hypo_cache:
                                hypo_cache[t] = odd_square_divisor(t * t + 16) is None
                            for sigma in (1, -1):
                                u = sigma * a1 * (1 << i) - 2 * v
                                key = (t, u, v)
                                if key not in found:
                                    found[key] = CaseTwoTriple(
                                        t=t, u=u, v=v, a1=a1, a2=a2, i=i, l=l,
                                        sign_inner=s, sign_outer=sigma,
                                        implied_m=m, hypothesis_ok=hypo_cache[t])
    return sorted(found.values(), key=lambda c: (c.t, c.implied_m, c.v, -c.u))


# --- box-scan oracle -------------------------------------------------------

_SCAN_PRIMES = (1073741789, 1073741827, 1073741831, 1073741833)


def _disc_mod(m_entries, p):
    """disc(char_poly(M)) mod p for a 4x4 of int64 residue arrays."""
    def mul(x, y):
        return (x * y) % p

    mm = [[m_entries[i][j] % p for j in range(4)] for i in range(4)]
    e1 = (mm[0][0] + mm[1][1] + mm[2][2] + mm[3][3]) % p
    e2 = 0
    for i in range(4):
        for j in range(i + 1, 4):
            e2 = (e2 + mul(mm[i][i], mm[j][j]) - mul(mm[i][j], mm[j][i])) % p
    e3 = 0
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        t1 = mul(mm[i][i], (mul(mm[j][j], mm[k][k]) - mul(mm[j][k], mm[k][j])) % p)
        t2 = mul(mm[i][j], (mul(mm[j][i], mm[k][k]) - mul(mm[j][k], mm[k][i])) % p)
        t3 = mul(mm[i][k], (mul(mm[j][i], mm[k][j]) - mul(mm[j][j], mm[k][i])) % p)
        e3 = (e3 + t1 - t2 + t3) % p
    m01 = {}
    m23 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m01[(i, j)] = (mul(mm[0][i], mm[1][j]) - mul(mm[0][j], mm[1][i])) % p
            m23[(i, j)] = (mul(mm[2][i], mm[3][j]) - mul(mm[2][j], mm[3][i])) % p
    e4 = (mul(m01[(0, 1)], m23[(2, 3)]) - mul(m01[(0, 2)], m23[(1, 3)])
          + mul(m01[(0, 3)], m23[(1, 2)]) + mul(m01[(1, 2)], m23[(0, 3)])
          - mul(m01[(1, 3)], m23[(0, 2)]) + mul(m01[(2, 3)], m23[(0, 1)])) % p
    a, b, c, d = (-e1) % p, e2, (-e3) % p, e4
    b2 = mul(b, b)
    c2 = mul(c, c)
    d2 = mul(d, d)
    a2 = mul(a, a)
    terms = (
        mul(256 * d2 % p, d),
        -mul(192 * a % p, mul(c, d2)),
        -mul(128 * b2 % p, d2),
        mul(144 * b % p, mul(c2, d)),
        -mul(27 * c2 % p, c2),
        mul(144 * a2 % p, mul(b, d2)),
        -mul(6 * a2 % p, mul(c2, d)),
        -mul(80 * a % p, mul(b2, mul(c, d))),
        mul(18 * a % p, mul(b, mul(c2, c))),
        mul(16 * mul(b2, b2) % p, d),
        -mul(4 * mul(b2, b) % p, c2),
        -mul(27 * a2 % p, mul(a2, d2)),
        mul(18 * mul(a2, a) % p, mul(b, mul(c, d))),
        -mul(4 * mul(a2, a) % p, mul(c2, c)),
        -mul(4 * a2 % p, mul(mul(b2, b), d)),
        mul(a2, mul(b2, c2)),
    )
    out = 0
    for term in terms:
        out = (out + term) % p
    return out


def brute_force_minimal(param: FamilyParameter, box: int
                        ) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Minimum index over all elements with |X1|,|X2|,|X3| <= box, X0 = 0.

    Independent oracle: evaluates disc(char_poly) on the whole box.  The
    scan runs modulo two word-size primes and every residue match is
    re-verified in exact arithmetic, so the result is exact.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    bmats = [mult_matrix(AlgebraicInt((0, 1, 0, 0)), param),
             mult_matrix(AlgebraicInt((0, 0, 1, 0)), param),
             mult_matrix(AlgebraicInt((0, 0, 0, 1)), param)]
    primes = [p for p in _SCAN_PRIMES if param.disc_K % p][:2]
    targets = [{m: (m * m * param.disc_K) % p for m in range(1, param.n + 1)}
               for p in primes]
    xs = np.arange(-box, box + 1, dtype=np.int64)
    x2g, x3g = np.meshgrid(xs, xs, indexing="ij")
    x2f, x3f = x2g.ravel(), x3g.ravel()
    hits: dict[int, set] = {m: set() for m in range(1, param.n + 1)}
    for x1 in range(-box, box + 1):
        entries = [[x1 * bmats[0][i][j] + x2f * bmats[1][i][j] + x3f * bmats[2][i][j]
                    for j in range(4)] for i in range(4)]
        mask = None
        per_prime = [_disc_mod(entries, p) for p in primes]
        for m in range(1, param.n + 1):
            mask = (per_prime[0] == targets[0][m])
            for dvals, tgt in zip(per_prime[1:], targets[1:]):
                mask &= (dvals == tgt[m])
            for idx in np.nonzero(mask)[0]:
                cand = (x1, int(x2f[idx]), int(x3f[idx]))
                e = AlgebraicInt((0, *cand))
                if index_oracle(e, param) == m:
                    hits[m].add(canonical_triple(cand))
    for m in range(1, param.n + 1):
        if hits[m]:
            return m, _sort_elements(hits[m])
    raise ArithmeticError("box contains no generator; box >= 1 always contains xi")
