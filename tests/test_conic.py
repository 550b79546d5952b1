import functools
import random
from math import gcd, isqrt

import numpy as np
import pytest
import sympy

from sqindex.elements import triple_from_xyz
from sqindex.fieldmodel import validate_parameter
from sqindex.indexcore import TernaryForm, family_forms, rhs_decompositions
from sqindex.conic import DegeneratePoint, _det3, divisors, parametrize, thue_reduction
from sqindex.driver import (Hit, branch_candidates, candidate_uv_pairs, enumerate_case2_triples,
                            find_point, local_sieve)
from sqindex.goldens import EXCEPTIONAL_T, GENERIC_SAMPLE_T


# case-I output at t = 1, 2, 4, 8 (one t per 2-adic class):
# (t, m) -> (u, element -> its (k, p, q, w) records)
_CASE1_PINNED = {
    (1, 2): (4, {
        (0, 1, 1): [(4, 3, 1, 4)],
        (0, 3, -2): [(2, 2, -1, -1)],
        (1, 0, 0): [(2, 1, 0, 1)],
        (2, 1, -1): [(4, 1, -1, -4)],
        (3, 0, -1): [(4, 1, 1, -4)],
        (6, 1, -2): [(2, 0, 1, 1)],
        (25, 2, -8): [(2, 1, 2, -1)],
        (25, 6, -9): [(4, 1, -3, 4)],
    }),
    (2, 4): (4, {
        (1, 0, 0): [(2, 1, 0, 1)],
        (2, 3, -1): [(4, 1, -1, -4)],
        (4, 1, -1): [(4, 1, 1, -4)],
        (7, 4, -2): [(2, 0, 1, 1)],
    }),
    (4, 8): (16, {
        (1, 0, -2): [(8, 5, 1, -4)],
        (1, 0, 0): [(4, 1, 0, 1), (16, 2, 0, 16)],
        (1, 6, -2): [(8, 1, -1, -4)],
        (5, -52, 16): [(4, 3, -2, 1), (16, 6, -4, 16)],
        (5, 4, -2): [(8, 1, 1, -4)],
        (7, 10, -4): [(4, 0, 1, 1), (16, 0, 2, 16)],
        (77, 130, -50): [(8, 1, -5, -4)],
        (83, 78, -36): [(4, 2, 3, 1), (16, 4, 6, 16)],
    }),
    (8, 16): (16, {
        (1, 0, 0): [(4, 1, 0, 1), (16, 2, 0, 16)],
        (9, -20, -2): [(8, 1, -1, -4)],
        (15, -16, -2): [(8, 1, 1, -4)],
        (25, -36, -4): [(4, 0, 1, 1), (16, 0, 2, 16)],
    }),
}


def test_case1_base_point_and_records():
    # the case-I cone -u*Q2 = 0 takes (-6, 0, 1) in closed form: Q2(x, 0, 1) = -x - 6
    # for every t
    for t in (1, 2, 4, 7, 8, 12, 16, 9999):
        _, q1, q2 = family_forms(t)
        for i in (2, 3, 4):
            q0 = TernaryForm.combine(0, q1, -(1 << i), q2)
            assert find_point(t, 1 << i, 0) == (-6, 0, 1)
            assert q0(-6, 0, 1) == 0
            assert q0.coeffs[0] == 0
    # and the v = 0 cone yields the same elements and records; an element lies on
    # one cone, so none of them has a case-II record as well
    for t in (1, 2, 4, 8):
        param = validate_parameter(t)
        for m in range(1, param.n + 1):
            found, _ = branch_candidates(param, m)
            case1 = {canon: hits for canon, hits in found.items()
                     if any(h.v == 0 for h in hits)}
            u, pinned = _CASE1_PINNED.get((t, m), (None, {}))
            assert case1 == {canon: {Hit("I", u, 0, k, p, q, w) for k, p, q, w in recs}
                             for canon, recs in pinned.items()}


def test_find_point_worked_example():
    # (t, u, v) = (12, 20, 2): s = u + 2v = tv, so rule 4 gives (-(t+3), -(t-1), 1)
    _, q1, q2 = family_forms(12)
    q0 = TernaryForm.combine(2, q1, -20, q2)
    assert q0.coeffs == (2, 24, -32, 332, -360, 482)
    assert find_point(12, 20, 2) == (-15, -11, 1)
    assert q0(-15, -11, 1) == 0


def test_find_point_rules_are_identities():
    # the v = 0 rule, run on symbolic (t, u), returns (-6, 0, 1), which lies on
    # -u*Q2 = 0 for every t and u; each other rule, run on symbolic (t, v) with
    # u = s - 2v, returns its own point, and that point lies on v*Q1 - u*Q2 = 0
    # for every t and v
    t, u, v = sympy.symbols("t u v")
    _, q1, q2 = family_forms(t)
    assert find_point(t, u, 0) == (-6, 0, 1)
    assert sympy.expand(TernaryForm.combine(0, q1, -u, q2)(-6, 0, 1)) == 0
    rules = {2 * t * v: (2, 1, 0), t * v: (-(t + 3), -(t - 1), 1)}
    for s, want in rules.items():
        u = sympy.expand(s - 2 * v)
        point = find_point(t, u, v)
        assert point == want, s
        assert sympy.expand(TernaryForm.combine(v, q1, -u, q2)(*point)) == 0, s


_BRUTE_RADIUS = 15
_AXIS = np.arange(-_BRUTE_RADIUS, _BRUTE_RADIUS + 1, dtype=np.int64)
_GX, _GY, _GZ = map(np.ravel, np.meshgrid(_AXIS, _AXIS, _AXIS, indexing="ij"))
_NONZERO = (_GX != 0) | (_GY != 0) | (_GZ != 0)


def _has_small_zero(coeffs):
    """Whether Q0 has a nonzero zero with every coordinate at most _BRUTE_RADIUS."""
    values = _eval_ternary_grid(TernaryForm(coeffs), _GX, _GY, _GZ)
    return bool(np.any((values == 0) & _NONZERO))


def _find_point_by_rows(q0):
    """A reference point on a cone with a rational point, by a plain scan (x^2 coeff != 0).

    Radius 64, 128, ...; rows z = 0..radius with |y| <= radius; in the first
    row holding a nonzero zero, the one minimising (|y|, sign, |x|, sign).
    It never ends on a cone without a rational point.
    """
    cxx, cxy, cyy, cxz, cyz, czz = q0.coeffs
    radius = 64
    while True:
        for z in range(radius + 1):
            sols = []
            for y in range(-radius, radius + 1):
                lin = cxy * y + cxz * z
                disc = lin * lin - 4 * cxx * (cyy * y * y + cyz * y * z + czz * z * z)
                if disc < 0 or isqrt(disc) ** 2 != disc:
                    continue
                for num in (-lin + isqrt(disc), -lin - isqrt(disc)):
                    x, r = divmod(num, 2 * cxx)
                    if r == 0 and (x, y, z) != (0, 0, 0):
                        sols.append((x, y))
            if sols:
                x, y = min(sols, key=lambda s: (abs(s[1]), s[1] < 0, abs(s[0]), s[0] < 0))
                g = gcd(gcd(x, y), z)
                return (x // g, y // g, z // g)
        radius *= 2


# (t, m, u, v) of the 22 case-II cones of the family that have no rational
# point, all at golden t (a Hilbert symbol fails at 2, at 3 for t = 24)
_GOLDEN_OBSTRUCTED = {
    (4, 3, -32, 4), (4, 3, 16, 4), (4, 6, -130, 17), (4, 6, 62, 17),
    (4, 7, -18, 1), (4, 7, -16, 4), (4, 7, 0, 4), (4, 7, 14, 1),
    (8, 3, -14, 1), (8, 3, 10, 1), (8, 7, -34, 3), (8, 7, 22, 3),
    (12, 3, -18, 1), (12, 3, 14, 1), (16, 6, -14, 1), (16, 6, 10, 1),
    (16, 10, -22, 1), (16, 10, 18, 1), (20, 5, -18, 1), (20, 5, 14, 1),
    (24, 15, -22, 1), (24, 15, 18, 1),
}


# (t, u, v) of the searched residual cones whose closed-form base point is
# not the row scan's first point (both lie on the cone)
_MOVED_POINTS = {(8, 12, 2), (16, 28, 2), (20, 36, 2)}


def test_find_point_matches_row_by_row_reference():
    # the 34 residual cones are 17 sigma-pairs; on the 17 searched ones (s > 0) the
    # closed forms agree with the row scan but for three cones, and the scan
    # reproduces the literal point at t = 4; find_point knows no mate (s < 0)
    residual, searched, moved = 0, 0, set()
    for c in enumerate_case2_triples(256):
        param = validate_parameter(c.t, allow_hypothesis_violation=True)
        if local_sieve(param, c.u, c.v) is not None:
            continue
        residual += 1
        if c.u + 2 * c.v < 0:
            with pytest.raises(ValueError, match="no base point"):
                find_point(c.t, c.u, c.v)
            continue
        _, q1, q2 = family_forms(c.t)
        q0 = TernaryForm.combine(c.v, q1, -c.u, q2)
        point, reference = find_point(c.t, c.u, c.v), _find_point_by_rows(q0)
        assert q0(*point) == 0 == q0(*reference)
        if point != reference:
            moved.add((c.t, c.u, c.v))
        searched += 1
    assert (residual, searched) == (34, 17) and moved == _MOVED_POINTS
    _, q1, q2 = family_forms(4)
    assert _find_point_by_rows(TernaryForm.combine(10, q1, -36, q2)) == find_point(4, 36, 10)


def test_golden_obstructed_cones_close_mod_32():
    obstructed, soluble = set(), []
    for t in sorted(set(EXCEPTIONAL_T) | set(GENERIC_SAMPLE_T)):
        param = validate_parameter(t, allow_hypothesis_violation=True)
        _, q1, q2 = family_forms(t)
        for m in range(1, param.n + 1):
            for u, v in candidate_uv_pairs(param, m):
                q0 = TernaryForm.combine(v, q1, -u, q2)
                if (t, m, u, v) in _GOLDEN_OBSTRUCTED:
                    obstructed.add((t, m, u, v))
                    # the sieve proves the branch empty before any conic work
                    assert local_sieve(param, u, v) == 32, (t, m, u, v)
                    assert not _has_small_zero(q0.coeffs), (t, m, u, v)
                else:
                    soluble.append(q0)
    assert obstructed == _GOLDEN_OBSTRUCTED
    assert len(soluble) == 72
    for q0 in soluble:
        assert q0(*_find_point_by_rows(q0)) == 0


def test_parametrize_case1_rows():
    for t in (5, 7):
        _, q1, q2 = family_forms(t)
        for i in (2, 3, 4):
            s = 1 << i
            par = parametrize(TernaryForm.combine(0, q1, -s, q2), (-6, 0, 1))
            assert par.rows == ((s, -s * t, -6 * s), (0, s, -s * t), (0, 0, s))
            assert par.k_bound == s


def test_parametrize_worked_example_rows():
    q0 = TernaryForm((2, 24, -32, 332, -360, 482))
    par = parametrize(q0, (-15, -11, 1))
    assert par.rows == ((-38, -344, 480), (-22, -272, 368), (2, 24, -32))
    assert par.k_bound == 384
    assert par.evaluate(1, 0) == (-38, -22, 2)
    # same matrix from the negated base point
    par2 = parametrize(q0, (15, 11, -1))
    assert par2.rows == par.rows


def test_parametrize_requires_point_on_cone():
    q0 = TernaryForm((2, 24, -32, 332, -360, 482))
    with pytest.raises(ValueError):
        parametrize(q0, (1, 1, 1))
    with pytest.raises(ValueError):
        parametrize(q0, (0, 0, 0))


def test_parametrized_triples_lie_on_cone():
    cones = []
    _, q1, q2 = family_forms(7)
    cones.append((TernaryForm.combine(0, q1, -4, q2), (-6, 0, 1)))
    cones.append((TernaryForm((2, 24, -32, 332, -360, 482)), (-15, -11, 1)))
    _, q1b, q2b = family_forms(2)
    q0b = TernaryForm.combine(1, q1b, -2, q2b)
    cones.append((q0b, find_point(2, 2, 1)))
    for q0, pt in cones:
        par = parametrize(q0, pt)
        for p in range(-30, 31):
            for q in range(-30, 31):
                assert q0(*par.evaluate(p, q)) == 0


def test_thue_reduction_case1():
    from sqindex.thue import family_form
    t = 7
    _, q1, q2 = family_forms(t)
    par = parametrize(TernaryForm.combine(0, q1, -4, q2), (-6, 0, 1))
    red = thue_reduction(par, q1, 4)
    assert red.form == family_form(t)
    # rhs * content = 4 * k^2 for each instance: the quartic is 16 * F_t
    assert [(inst.k, inst.rhs) for inst in red.instances] == [(2, 1), (4, 4)]


def test_thue_reduction_case1_i3_infeasible_or_unsolvable():
    from sqindex.thue import solve_power_of_two
    t = 4
    _, q1, q2 = family_forms(t)
    par = parametrize(TernaryForm.combine(0, q1, -8, q2), (-6, 0, 1))
    red = thue_reduction(par, q1, 8)
    assert [(inst.k, inst.rhs) for inst in red.instances] == [(4, 2), (8, 8)]
    for inst in red.instances:
        for w in (inst.rhs, -inst.rhs):
            assert len(solve_power_of_two(t, w)) == 0


def test_thue_reduction_worked_example():
    q0 = TernaryForm((2, 24, -32, 332, -360, 482))
    par = parametrize(q0, (-15, -11, 1))
    _, q1, q2 = family_forms(12)
    # rhs * content = |target| * k^2: the quartics are 8 and 80 times the form, so
    # both keep the even k | 384 with rhs = k^2 / 4 (k = 1 gives 20/80, not an integer)
    even = [(k, k * k // 4) for k in divisors(384) if k % 2 == 0]
    for qform, target in ((q2, 2), (q1, 20)):
        red = thue_reduction(par, qform, target)
        assert red.form.coeffs == (1, 16, 16, -384, 416)
        assert [(inst.k, inst.rhs) for inst in red.instances] == even


def test_sign_symmetry_of_uv_candidates():
    param = validate_parameter(12)
    pairs = candidate_uv_pairs(param, 3)
    assert set(pairs) == {(20, 2), (-28, 2), (14, 1), (-18, 1)}
    # opposite-sign systems have exactly the negated solutions; on the level
    # of cones, (u,v) and (-u,-v) give the same parametrization rows
    _, q1, q2 = family_forms(12)
    for (u, v) in pairs:
        modulus = local_sieve(param, u, v)
        assert local_sieve(param, -u, -v) == modulus
        if modulus is not None:
            continue  # (14,1), (-18,1): no rational point, the sieve closes them
        qa = TernaryForm.combine(v, q1, -u, q2)
        qb = TernaryForm.combine(-v, q1, u, q2)  # the negated form, same cone
        if u + 2 * v > 0:  # the searched cone of the sigma-pair
            pa = find_point(12, u, v)
            assert find_point(12, -u, -v) == pa
        else:
            pa = _find_point_by_rows(qa)
        assert qb(*pa) == 0
        assert parametrize(qa, pa).rows == parametrize(qb, pa).rows


def _eval_ternary_grid(form, xs, ys, zs):
    import numpy as np
    cxx, cxy, cyy, cxz, cyz, czz = form.coeffs
    return (cxx * xs * xs + cxy * xs * ys + cyy * ys * ys
            + cxz * xs * zs + cyz * ys * zs + czz * zs * zs)


def test_small_instance_completeness():
    # every box solution of the system is reproduced by some (p, q, k)
    import numpy as np
    axis = np.arange(-40, 41, dtype=np.int64)
    xs, ys, zs = map(np.ravel, np.meshgrid(axis, axis, axis, indexing="ij"))
    ps, qs = map(np.ravel, np.meshgrid(np.arange(-100, 101, dtype=np.int64),
                                       np.arange(-100, 101, dtype=np.int64),
                                       indexing="ij"))
    for t, m in ((2, 1), (4, 1), (7, 2), (12, 3)):
        param = validate_parameter(t)
        _, q1, q2 = family_forms(t)
        g1 = _eval_ternary_grid(q1, xs, ys, zs)
        g2 = _eval_ternary_grid(q2, xs, ys, zs)
        for (u, v) in candidate_uv_pairs(param, m):
            mask = ((g1 == u) & (g2 == v)) | ((g1 == -u) & (g2 == -v))
            brute = {(int(xs[i]), int(ys[i]), int(zs[i]))
                     for i in np.nonzero(mask)[0]}
            closed = local_sieve(param, u, v) is not None
            if closed:
                # differential: the sieve against the box, on the admissible points
                assert not [p for p in brute if triple_from_xyz(*p, param) is not None]
            if (t, m, u, v) in _GOLDEN_OBSTRUCTED:
                assert not brute
                continue
            q0 = TernaryForm.combine(v, q1, -u, q2)
            # the driver's base point where it runs, the reference on the cones the sieve
            # closes and on the mates (s < 0), which take sigma-images instead
            searched = not closed and u + 2 * v > 0
            par = parametrize(q0, find_point(t, u, v) if searched else _find_point_by_rows(q0))
            vecs = [c0 * ps * ps + c1 * ps * qs + c2 * qs * qs
                    for c0, c1, c2 in par.rows]
            reproduced = set()
            for k in divisors(par.k_bound):
                ok = (vecs[0] % k == 0) & (vecs[1] % k == 0) & (vecs[2] % k == 0)
                for i in np.nonzero(ok)[0]:
                    cand = (int(vecs[0][i]) // k, int(vecs[1][i]) // k,
                            int(vecs[2][i]) // k)
                    reproduced.add(cand)
                    reproduced.add((-cand[0], -cand[1], -cand[2]))
            assert brute <= reproduced, (t, m, u, v, brute - reproduced)


def test_divisors():
    assert divisors(384) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 384]
    assert divisors(1) == [1]


def test_degenerate_point_raises():
    # cone x*z = 0 with singular point (0, 1, 0): gradient vanishes there
    q0 = TernaryForm((0, 0, 0, 1, 0, 0))
    with pytest.raises(DegeneratePoint):
        parametrize(q0, (0, 1, 0))


def _hessian_det(q0):
    a, b, c, d, e, f = q0.coeffs
    return _det3(((2 * a, b, d), (b, 2 * c, e), (d, e, 2 * f)))


_X, _Y, _Z, _P, _Q = sympy.symbols("x y z p q")
_COEFFS, _POINT = sympy.symbols("a b c d e f"), sympy.symbols("X Y Z")


@functools.cache
def _generic_line_scheme(r):
    """The rows of the scheme with pivot r from its definition, before any sign choice,
    as a function of the coefficients of Q0 and of the point P.

    T puts (p, q) on the two coordinates other than r.  On the line
    (x, y, z) = s*P + T, Q0 = 0 reads s*L + Q0(T) = 0 with L = grad Q0(P).T, so
    L*(x, y, z) = -(Q0(T)*P - L*T), and the rows are the coefficients of
    Q0(T)*P - L*T in (p^2, pq, q^2).
    """
    f0, f1 = (i for i in range(3) if i != r)
    T = [0, 0, 0]
    T[f0], T[f1] = _P, _Q
    q0 = TernaryForm(_COEFFS)
    xyz = (_X, _Y, _Z)
    at_point = dict(zip(xyz, _POINT))
    lin = sum(sympy.diff(q0(*xyz), w).subs(at_point) * T[i] for i, w in enumerate(xyz))
    rows = [sympy.Poly(sympy.expand(q0(*T) * _POINT[i] - lin * T[i]), _P, _Q)
            for i in range(3)]
    entries = [[row.coeff_monomial(m) for m in (_P * _P, _P * _Q, _Q * _Q)] for row in rows]
    return sympy.lambdify((_COEFFS, _POINT), entries, modules=[])


def _line_scheme(q0, point):
    """The unnormalized rows of the scheme at the first nonzero coordinate r of the
    point in the order z, y, x, and r."""
    r = next(i for i in (2, 1, 0) if point[i] != 0)
    return [tuple(row) for row in _generic_line_scheme(r)(q0.coeffs, point)], r


def test_cone_hessian_determinant_is_twice_the_resolvent():
    # det H(v*Q1 - u*Q2) = 2 F(u, v) in Z[t, u, v]: a branch cone, F(u, v) = +-g^6 m / n,
    # is never singular
    t, u, v = sympy.symbols("t u v")
    f, q1, q2 = family_forms(t)
    assert sympy.expand(_hessian_det(TernaryForm.combine(v, q1, -u, q2)) - 2 * f(u, v)) == 0


def test_scheme_determinant_is_the_hessian_determinant_times_the_pivot_cubed():
    # with generic coefficients, one of them solved from Q0(P) = 0 so that P is on the
    # cone: det C = -+P_r^3 det H / 2 for each pivot r (the sign of the raw scheme;
    # the sign normalization may flip it), so a scheme fails exactly on a singular cone
    coeffs = sympy.symbols("a b c d e f")
    x, y, z = sympy.symbols("X Y Z")
    for point, solved, sign in (((x, y, z), 5, -1), ((x, y, 0), 2, 1), ((x, 0, 0), 0, -1)):
        generic = list(coeffs)
        generic[solved] = sympy.solve(TernaryForm(coeffs)(*point), coeffs[solved])[0]
        q0 = TernaryForm(tuple(generic))
        assert sympy.cancel(q0(*point)) == 0
        rows, r = _line_scheme(q0, point)
        assert r == {5: 2, 2: 1, 0: 0}[solved]
        assert sympy.cancel(_det3(rows) - sign * point[r] ** 3 * _hessian_det(q0) / 2) == 0


def _random_cone_through(rng, point, radius):
    """A random integer cone through the point: a sum of L*M with L(point) = 0."""
    a, b, c = point
    coeffs = [0] * 6
    for l0, l1, l2 in ((b, -a, 0), (c, 0, -a), (0, c, -b)):
        k = rng.randint(-2, 2)
        m0, m1, m2 = (rng.randint(-radius, radius) for _ in range(3))
        l0, l1, l2 = k * l0, k * l1, k * l2
        for j, term in enumerate((l0 * m0, l0 * m1 + l1 * m0, l1 * m1, l0 * m2 + l2 * m0,
                                  l1 * m2 + l2 * m1, l2 * m2)):
            coeffs[j] += term
    return TernaryForm(tuple(coeffs))


def test_parametrize_is_the_normalized_line_scheme():
    # parametrize against the scheme's definition on seeded cones through points with
    # each pivot, singular ones among them: the same rows once the pivot row leads with
    # a positive entry, k_bound * content(C)^2 = |P_r|^3 |det H| / 2, and
    # DegeneratePoint exactly when det H = 0
    rng = random.Random(43)
    seen = {(r, singular): 0 for r in range(3) for singular in (False, True)}
    for i in range(600):
        pivot = i % 3  # coordinates after the pivot are 0, so it comes first in z, y, x
        point = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) if j == pivot
                      else rng.randint(-4, 4) if j < pivot else 0 for j in range(3))
        q0 = _random_cone_through(rng, point, rng.choice((1, 5)))
        rows, r = _line_scheme(q0, point)
        det_h = _hessian_det(q0)
        seen[r, det_h == 0] += 1
        if det_h == 0:
            with pytest.raises(DegeneratePoint):
                parametrize(q0, point)
            continue
        lead = next(c for c in rows[r] if c != 0)
        want = tuple(tuple(int(c) if lead > 0 else -int(c) for c in row) for row in rows)
        par = parametrize(q0, point)
        content = gcd(*par.rows[0], *par.rows[1], *par.rows[2])
        assert par.rows == want, (q0, point)
        assert par.k_bound * content ** 2 == abs(point[r]) ** 3 * abs(det_h) // 2
    assert min(seen.values()) >= 5, seen


def _parametrized_cones():
    """(t, u, v) of every cone the driver parametrizes: the case-I cones of the
    24 golden t and the 17 residual cones with s > 0."""
    cones = []
    for t in sorted(set(EXCEPTIONAL_T) | set(GENERIC_SAMPLE_T)):
        param = validate_parameter(t, allow_hypothesis_violation=True)
        for m in range(1, param.n + 1):
            a, l = rhs_decompositions(param, m)
            if a == 1 and l % 3 == 0:
                cones.append((t, 1 << l // 3, 0))
    for c in enumerate_case2_triples(256):
        param = validate_parameter(c.t, allow_hypothesis_violation=True)
        if c.u + 2 * c.v > 0 and local_sieve(param, c.u, c.v) is None:
            cones.append((c.t, c.u, c.v))
    return cones


def test_k_bound_times_content_squared_is_the_pivot_cubed_times_the_resolvent():
    # |det C| = |P_r|^3 |det H| / 2 = |P_r|^3 |F(u, v)| on every parametrized cone,
    # and F(u, v) != 0 there, so none raises DegeneratePoint.  Two cones pivot on y,
    # both through (2, 1, 0); minimal_index reaches only (u, v) = (2, 1) at t = 2, as
    # (14, 1) at t = 8 has m = 11, above that field's minimal index 4
    cones = _parametrized_cones()
    assert len(set(cones)) == len(cones) == 43 + 17  # 43 case-I cones, 17 residual ones
    y_pivots = []
    for t, u, v in cones:
        f, q1, q2 = family_forms(t)
        point = find_point(t, u, v)
        r = next(i for i in (2, 1, 0) if point[i] != 0)
        if r != 2:
            y_pivots.append((t, u, v, point, r))
        par = parametrize(TernaryForm.combine(v, q1, -u, q2), point)
        content = gcd(*par.rows[0], *par.rows[1], *par.rows[2])
        assert f(u, v) != 0
        assert par.k_bound * content ** 2 == abs(point[r]) ** 3 * abs(f(u, v)), (t, u, v)
    assert y_pivots == [(2, 2, 1, (2, 1, 0), 1), (8, 14, 1, (2, 1, 0), 1)]
