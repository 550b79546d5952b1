import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import chain, cycle, repeat
from math import ceil, floor, isqrt, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqindex import thue
from sqindex.conic import parametrize, thue_reduction
from sqindex.indexcore import family_forms
from sqindex.driver import find_point
from sqindex.thue import (BinaryQuarticForm, Rigor, SolutionSet, UnsupportedW, _roots,
                          _window_candidates, bounded_search_multi, canonical_pair, family_form,
                          solve_power_of_two)
from sqindex.goldens import thue_base_golden
from test_conic import _find_point_by_rows
from test_driver import _soluble_cones


def canon(pairs):
    return tuple(sorted(canonical_pair(p, q) for p, q in pairs))


def test_base_solutions_table():
    assert solve_power_of_two(7, 1).pairs == canon([(1, 0), (0, 1)])
    assert solve_power_of_two(4, 1).pairs == canon([(1, 0), (0, 1), (2, 3), (3, -2)])
    assert solve_power_of_two(1, -1).pairs == canon([(1, 2), (2, -1)])
    assert solve_power_of_two(5, -1).pairs == ()
    assert solve_power_of_two(1, 4).pairs == canon([(3, 1), (1, -3)])
    assert solve_power_of_two(4, -4).pairs == canon([(1, 1), (1, -1), (5, 1), (1, -5)])
    with pytest.raises(ValueError):
        solve_power_of_two(3, 1)


def test_base_solutions_match_golden_fixture():
    golden = thue_base_golden()
    for w_str, table in golden.items():
        w = int(w_str)
        for t in (1, 2, 4, 5, 7, 10):
            want = [tuple(p) for p in table["any"]]
            want += [tuple(p) for p in table.get(str(t), [])]
            assert solve_power_of_two(t, w).pairs == canon(want)


def test_base_pairs_evaluate_to_w():
    for w in (1, -1, 4, -4):
        for t in (1, 2, 4, 5, 7):
            f = family_form(t)
            for p, q in solve_power_of_two(t, w):
                assert f(p, q) == w


def test_solve_power_of_two_examples():
    assert solve_power_of_two(5, -4).pairs == canon([(1, 1), (1, -1)])
    assert solve_power_of_two(5, 2).pairs == ()
    assert solve_power_of_two(5, -2).pairs == ()
    assert solve_power_of_two(5, 16).pairs == canon([(2, 0), (0, 2)])
    assert solve_power_of_two(1, 4).pairs == canon([(3, 1), (1, -3)])
    with pytest.raises(UnsupportedW):
        solve_power_of_two(5, 12)
    with pytest.raises(UnsupportedW):
        solve_power_of_two(5, 0)
    # closed form: nothing grows with e (a recursion once died at 2^2100)
    big = 2 ** 525
    assert solve_power_of_two(5, 2 ** 2100).pairs == ((0, big), (big, 0))
    assert solve_power_of_two(5, 2 ** 2101).pairs == ()
    assert solve_power_of_two(5, -2 ** 2102).pairs == ((big, -big), (big, big))
    assert family_form(5)(big, big) == -2 ** 2102


def test_transform_identity_symbolic():
    p, q, t = sympy.symbols("p q t")
    f = p ** 4 - t * p ** 3 * q - 6 * p * p * q * q + t * p * q ** 3 + q ** 4
    lifted = f.subs({p: p - q, q: p + q}, simultaneous=True)
    assert sympy.expand(lifted + 4 * f) == 0


def test_transform_identity_random():
    rng = random.Random(17)

    def ft(t, a, b):
        return a ** 4 - t * a ** 3 * b - 6 * a * a * b * b + t * a * b ** 3 + b ** 4

    for _ in range(100_000):
        t = rng.randint(-50, 50)
        p = rng.randint(-50, 50)
        q = rng.randint(-50, 50)
        assert ft(t, p - q, p + q) == -4 * ft(t, p, q)


def test_same_parity_when_divisible_by_four():
    for t_par in range(2):
        for p in range(2):
            for q in range(2):
                val = (p ** 4 - t_par * p ** 3 * q - 6 * p * p * q * q
                       + t_par * p * q ** 3 + q ** 4) % 4
                if val % 4 == 0 and (p + q) % 2 == 1:
                    # mixed parity values are odd, never divisible by 4
                    raise AssertionError((t_par, p, q))


def test_mod8_obstruction_exhaustive():
    seen = set()
    for t in range(8):
        for p in range(8):
            for q in range(8):
                seen.add((p ** 4 - t * p ** 3 * q - 6 * p * p * q * q
                          + t * p * q ** 3 + q ** 4) % 8)
    assert 2 not in seen and 6 not in seen


@settings(max_examples=100, deadline=None)
@given(t=st.integers(1, 60).filter(lambda v: v != 3),
       p=st.integers(-30, 30), q=st.integers(-30, 30), c=st.integers(-5, 5))
def test_scaling(t, p, q, c):
    f = family_form(t)
    assert f(c * p, c * q) == c ** 4 * f(p, q)


def test_solver_vs_box_small():
    # cross-checks the +-1 table and the lift against the root-window search
    ws = [s * 2 ** e for e in range(7) for s in (1, -1)]
    for t in (t for t in range(1, 257) if t != 3):
        box = bounded_search_multi(family_form(t), ws, 1000)
        for w in ws:
            proven = solve_power_of_two(t, w)
            want = tuple(p for p in proven.pairs if max(abs(p[0]), abs(p[1])) <= 1000)
            assert box[w].pairs == want, (t, w)
            assert box[w].rigor == Rigor.bounded(1000)
            assert proven.rigor == Rigor.certain()


def test_bounded_search_examples():
    f = family_form(4)
    assert bounded_search_multi(f, [1], 10)[1].pairs == canon([(1, 0), (0, 1), (2, 3), (3, -2)])
    g = family_form(9)
    assert (1, 0) in bounded_search_multi(g, [g(1, 0)], 1)[g(1, 0)]


def test_bounded_search_worked_example_form():
    # quartic from the t=12 reduction; right sides 2k^2 over k | 384
    from sqindex.thue import BinaryQuarticForm
    from sqindex.conic import divisors
    f = BinaryQuarticForm((8, 128, 128, -3072, 3328))
    targets = set()
    for k in divisors(384):
        targets.update((2 * k * k, -2 * k * k))
    sols = bounded_search_multi(f, targets, 100)
    found = set().union(*[s.pairs for s in sols.values()])
    # the published primitive pairs (plus their integer multiples)
    assert {(1, 0), (2, 1), (10, -1)} <= found
    assert all(f(p, q) in targets for p, q in found)
    assert f(1, 0) == 2 * 2 * 2 and abs(f(2, 1)) == 2 * 24 * 24


def test_bounded_search_huge_coefficients_fallback():
    # (10^15 x^2 - 1)(x^2 - 10^15): coefficients and values exceed int64 and the
    # float mantissa, so only the exact recheck tells the solutions apart
    big = 10 ** 15
    f = BinaryQuarticForm((big, 0, -big * big - 1, 0, big))
    rhs = f(7, 3)
    sols = bounded_search_multi(f, [rhs], 50)[rhs]
    assert (7, 3) in sols


def test_bounded_search_targets_beyond_the_box():
    # |G| <= sum |c| * B^4 in the box, with equality at G(3, 3) = 55 * 3^4 for
    # (p^2 + 3pq + q^2)(p^2 + 5pq + 5q^2): that pair is still found, and right
    # sides past float range are answered (empty) instead of overflowing
    g = BinaryQuarticForm((1, 8, 21, 20, 5))
    assert g.reach(3) == g(3, 3) == 4455
    got = bounded_search_multi(g, [4455, 4456, 10 ** 400, -10 ** 400], 3)
    assert got[4455].pairs == ((3, 3),)
    assert got[4456].pairs == got[10 ** 400].pairs == got[-10 ** 400].pairs == ()
    assert got[10 ** 400].rigor == Rigor.bounded(3)


def test_solution_set_canonical_storage():
    s = SolutionSet.of([(1, 2), (-1, -2), (0, -3)], Rigor.certain())
    assert s.pairs == ((0, 3), (1, 2))
    assert (-1, -2) in s


def grid_search(form, targets, bound):
    """Reference for bounded_search_multi: every canonical pair of the box."""
    hits = {v: [] for v in targets}
    for p in range(bound + 1):
        for q in range(-bound if p else 1, bound + 1):
            val = form(p, q)
            if val in hits:
                hits[val].append((p, q))
    return {v: tuple(sorted(pairs)) for v, pairs in hits.items()}


def form_product(*factors):
    """Coefficients of a product of binary forms, highest power of p first."""
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if k - i < len(f) and k >= i)
               for k in range(len(out) + len(f) - 1)]
    return tuple(out)


def form_image(coeffs, m):
    """Coefficients of G(a p + b q, c p + d q) for m = ((a, b), (c, d))."""
    (a, b), (c, d) = m
    terms = [form_product(*[(a, b)] * (4 - i), *[(c, d)] * i) for i in range(5)]
    return tuple(sum(ci * term[j] for ci, term in zip(coeffs, terms)) for j in range(5))


def _unimodular(swap_and_steps):
    """A product of elementary matrices of GL_2(Z), after an optional swap."""
    swap, steps = swap_and_steps
    (a, b), (c, d) = ((0, 1), (1, 0)) if swap else ((1, 0), (0, 1))
    for lower, k in steps:
        if lower:
            a, c = a + k * b, c + k * d
        else:
            b, d = b + k * a, d + k * c
    return (a, b), (c, d)


@cache
def family_cones():
    """Reduced form and right sides of every soluble case-II cone of the family
    (tests/test_driver.py pins the family's 108 cones, 86 of them soluble)."""
    cones = []
    for c, _, q0, modulus in _soluble_cones():
        _, q1, q2 = family_forms(c.t)
        qform, target = (q1, c.u) if c.u != 0 else (q2, c.v)
        # the driver's base point where it runs, the reference on the cones the sieve
        # closes and on the mates (s < 0), which take sigma-images instead
        searched = modulus is None and c.u + 2 * c.v > 0
        point = find_point(c.t, c.u, c.v) if searched else _find_point_by_rows(q0)
        red = thue_reduction(parametrize(q0, point), qform, target)
        targets = {s * inst.rhs for inst in red.instances for s in (1, -1)}
        if targets:
            cones.append((red.form, targets))
    return cones


_any_linear = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
_linear = st.tuples(st.integers(-5, 5).filter(bool), st.integers(-5, 5))  # c0 != 0
_quadratic = st.tuples(st.integers(-6, 6), st.integers(-9, 9), st.integers(-6, 6))
_definite = _quadratic.filter(lambda f: f[1] ** 2 < 4 * f[0] * f[2])
_indefinite = _quadratic.filter(lambda f: f[0] and f[1] ** 2 > 4 * f[0] * f[2])
# irreducible over Q: a discriminant that is no square
_real_quadratic = _indefinite.filter(lambda f: isqrt(f[1] ** 2 - 4 * f[0] * f[2]) ** 2
                                     != f[1] ** 2 - 4 * f[0] * f[2])
_gl2 = st.tuples(st.booleans(), st.lists(st.tuples(st.booleans(), st.integers(-3, 3)),
                                         max_size=3)).map(_unimodular)
# the bounded search's domain: totally real with c0 != 0 and no rational root
_forms = st.one_of(
    # two real quadratics, irreducible over Q
    st.tuples(_real_quadratic, _real_quadratic).map(lambda fs: form_product(*fs)),
    # irreducible: F_t and the family's reduced forms under GL_2(Z), which keeps
    # both properties (c0 = G(a, c) != 0 without a rational root)
    st.tuples(st.integers(1, 300).filter(lambda t: t != 3), _gl2).map(
        lambda a: form_image(family_form(a[0]).coeffs, a[1])),
    st.tuples(st.integers(0, 85), _gl2).map(
        lambda a: form_image(family_cones()[a[0]][0].coeffs, a[1])),
    # two roots 3.5 * 10^-7 apart
    st.just(form_product((1, 0, -2), (10 ** 6, 0, -2000001))),
).filter(lambda c: BinaryQuarticForm(c).discriminant() != 0)
# shapes that may have a rational root: four linear factors, two real
# quadratics whose discriminants may be squares, and a linear factor times a cubic
_split = st.one_of(
    st.tuples(_linear, _linear, _linear, _linear).map(lambda fs: form_product(*fs)),
    st.tuples(_indefinite, _indefinite).map(lambda fs: form_product(*fs)),
    st.tuples(_linear, st.tuples(*[st.integers(-20, 20)] * 4)).map(
        lambda fs: form_product(*fs)),
)
# every shape of quartic: the domain, rational roots, two real roots, none,
# c0 = 0, c0 = c4 = 0, a repeated factor, and no structure at all
_quartics = st.one_of(
    _forms,
    _split,
    st.tuples(_indefinite, _definite).map(lambda fs: form_product(*fs)),
    st.tuples(_definite, _definite).map(lambda fs: form_product(*fs)),
    st.tuples(_any_linear, _quadratic).map(lambda fs: form_product((0, 1), *fs)),
    st.tuples(_any_linear, _any_linear).map(lambda fs: form_product((1, 0), (0, 1), *fs)),
    st.tuples(_any_linear, _quadratic).map(lambda fs: form_product(fs[0], *fs)),
    st.tuples(*[st.integers(-20, 20)] * 5),
)

_golden_t256 = (1, 1024, 327664, 33677344, 32448496)
_golden_t256_targets = [s * 2 * 4 ** i for i in range(12) for s in (1, -1)]


@settings(max_examples=300, deadline=None)
@given(coeffs=_forms, bound=st.integers(1, 60),
       points=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=3),
       extra=st.lists(st.integers(-3000, 3000), max_size=3))
@example(coeffs=_golden_t256, bound=60, points=[], extra=_golden_t256_targets)
# its image with three roots within 10^-5, two of them 4 * 10^-10 apart
@example(coeffs=form_image(_golden_t256, ((10, 3), (-17, -5))), bound=60,
         points=[(1, 0), (2, -7)], extra=[])
@example(coeffs=(8, 128, 128, -3072, 3328), bound=60, points=[(2, 1), (10, -1)],
         extra=[2 * k * k for k in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)])
@example(coeffs=(-11, 32, 16, -32, -16), bound=60, points=[],
         extra=[s * 4 ** i for i in range(8) for s in (1, -1)])
def test_bounded_search_matches_grid(coeffs, bound, points, extra):
    form = BinaryQuarticForm(coeffs)
    targets = ({form(p, q) for p, q in points} | set(extra)) - {0}
    got = bounded_search_multi(form, targets, bound)
    want = grid_search(form, targets, bound)
    assert {v: s.pairs for v, s in got.items()} == want
    assert all(s.rigor == Rigor.bounded(bound) for s in got.values())


@pytest.mark.parametrize("coeffs", [
    form_product((1, -1), (1, -1), (1, 0, 1)),  # (x - 1)^2 (x^2 + 1)
    form_product((1, -1), (1, -1), (1, -1), (1, -1)),  # (x - 1)^4
    (0, 0, 0, 0, 3),  # 3 q^4
    (0, 2, 0, 0, 0),  # 2 p^3 q
    (0, 0, 0, 0, 0),
])
def test_bounded_search_rejects_repeated_factors(coeffs):
    form = BinaryQuarticForm(coeffs)
    assert form.discriminant() == 0
    with pytest.raises(ValueError, match="repeated linear factor"):
        bounded_search_multi(form, [1], 10)


@pytest.mark.parametrize("coeffs", [
    form_product((1, 0, 1), (1, 0, -2)),  # two real roots
    form_product((1, 0, 1), (1, 0, 2)),  # none
    (10 ** 15, 0, -1, 0, 10 ** 15),  # none, with coefficients past int64
    form_product((0, 1), (1, 2), (1, 0, 1)),  # c0 = 0
    form_product((1, 0), (0, 1), (1, -1), (2, 3)),  # c0 = c4 = 0, four real linear factors
])
def test_bounded_search_rejects_forms_outside_the_domain(coeffs):
    form = BinaryQuarticForm(coeffs)
    assert form.discriminant() != 0 and not form.totally_real()
    with pytest.raises(ValueError, match="not totally real"):
        bounded_search_multi(form, [1], 10)


@settings(max_examples=300, deadline=None)
@given(coeffs=_quartics)
def test_totally_real_matches_sympy(coeffs):
    # the reference: G(x, 1) has degree 4, no repeated root, and four real roots
    f = sympy.Poly(list(coeffs), sympy.symbols("x"))
    want = f.degree() == 4 and f.is_sqf and f.count_roots() == 4
    assert BinaryQuarticForm(coeffs).totally_real() == want


def test_bounded_search_rejects_the_right_side_zero():
    with pytest.raises(ValueError, match="right side 0"):
        bounded_search_multi(family_form(5), [12, 0], 10)


def test_family_form_discriminant():
    assert family_form(1).invariants() == (51, 0)
    for t in (1, 2, 5, 12, 28, 256, 10 ** 6):
        assert family_form(t).discriminant() == 4 * (t * t + 16) ** 3
        assert family_form(t).totally_real()
        # no rational root: c0 = c4 = 1 leaves +-1, and F_t(+-1, 1) = -4
        assert family_form(t)(1, 1) == family_form(t)(-1, 1) == -4
        assert bounded_search_multi(family_form(t), [1], 1)[1].pairs == ((0, 1), (1, 0))


@pytest.mark.parametrize("coeffs", [
    # 101/201 = [0; 1, 1, 100], with c0 = 201
    form_product((201, -101), (1, -3), (1, 0, -2)),
    form_product((1, -1), (1, 2), (2, -3), (1, 1)),
    form_product((1, 1), (1, 2), (1, 3), (1, 4)),  # (p + q)(p + 2q)(p + 3q)(p + 4q)
    form_product((2, -1), (1, 0, -3, 1)),  # 1/2 and the roots of x^3 - 3x + 1
    # 5/1002 = [0; 200, 2, 2], whose expansion passes the box two quotients before it ends
    form_product((1002, -5), (1, 0, -3, 1)),
])
def test_bounded_search_rejects_rational_roots(coeffs):
    form = BinaryQuarticForm(coeffs)
    assert form.totally_real()
    with pytest.raises(ValueError, match="has a rational root"):
        bounded_search_multi(form, [1], 150)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.one_of(_forms, _split).filter(lambda c: BinaryQuarticForm(c).totally_real()))
# roots within 2^-69 of the integers 2^70 and 0: a partial quotient near 2^70 is
# tried exactly, and only a nonzero value there shows that the roots are irrational
@example(coeffs=family_form(2 ** 70).coeffs)
def test_rational_root_guard_matches_sympy(coeffs):
    x = sympy.symbols("x")
    linear = any(f.degree() == 1 for f, _ in sympy.Poly(list(coeffs), x).factor_list()[1])
    form = BinaryQuarticForm(coeffs)
    if linear:
        with pytest.raises(ValueError, match="has a rational root"):
            bounded_search_multi(form, [1], 10)
    else:
        assert (1, 0) in bounded_search_multi(form, [1, coeffs[0]], 10)[coeffs[0]]


def test_bounded_search_streams_its_candidates():
    # a right side attainable at every q: each window spans the whole p-range,
    # so memory must not grow with the number of candidates
    tracemalloc.start()
    try:
        bounded_search_multi(family_form(5), [10 ** 8], 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def classical_convergents(quotients, qmax):
    """The convergents p/q, q <= qmax, of the continued fraction [a0; a1, ...]."""
    p, q, p1, q1 = 1, 0, 0, 1
    out = []
    for a in quotients:
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
        if q > qmax:
            return out
        out.append((p, q))


def test_roots_expand_into_the_classical_continued_fractions():
    # (x^2 - 2)(x^2 - 3): sqrt 2 = [1; 2, 2, ...] and sqrt 3 = [1; 1, 2, 1, 2, ...],
    # negated for the negative roots
    sqrt2 = classical_convergents(chain([1], repeat(2)), 10 ** 6)
    sqrt3 = classical_convergents(chain([1], cycle([1, 2])), 10 ** 6)
    assert sqrt2[:3] == [(1, 1), (3, 2), (7, 5)] and sqrt3[:4] == [(1, 1), (2, 1), (5, 3), (7, 4)]
    roots = sorted(_roots(BinaryQuarticForm(form_product((1, 0, -2), (1, 0, -3))), 10 ** 6),
                   key=lambda root: root.x)
    for root, (sign, want) in zip(roots, [(-1, sqrt3), (-1, sqrt2), (1, sqrt2), (1, sqrt3)]):
        assert [(p, q) for p, q in root.convergents if q <= 10 ** 6] == [(sign * p, q)
                                                                         for p, q in want]
        assert root.convergents[-1][1] > 10 ** 6


@pytest.mark.parametrize("bound", [1, 10 ** 5])
def test_root_intervals_are_disjoint_and_hold_one_root_each(bound):
    # each root lies strictly between its last convergent and the mediant with the
    # one before: f changes sign there, the four intervals are disjoint, x is
    # within rho of the whole interval, and each sep is a positive lower bound
    forms = [family_form(t) for t in range(1, 301) if t != 3] + [f for f, _ in family_cones()]
    for form in forms:
        roots = _roots(form, bound)
        ends = []
        for root in roots:
            (p1, q1), (p, q) = root.convergents[-2:]
            lo, hi = sorted((Fraction(p, q), Fraction(p + p1, q + q1)))
            assert form(lo.numerator, lo.denominator) * form(hi.numerator, hi.denominator) < 0
            assert max(hi - Fraction(root.x), Fraction(root.x) - lo) <= root.rho
            ends.append((lo, hi))
        assert len(roots) == 4, form
        for i, root in enumerate(roots):
            (lo, hi), others = ends[i], ends[:i] + ends[i + 1:]
            for sep, (lo2, hi2) in zip(root.seps, others, strict=True):
                assert 0 < sep <= max(lo2 - hi, lo - hi2), form


def windows(root, lead, top, bound):
    """R, qmax, the windows (const, e, m) and the last window row (q* - 1, or
    qmax) of `_window_candidates`, recomputed from the module docstring."""
    big_r = isqrt(isqrt(top // abs(lead))) + 1
    (pm, qm), (pn, qn) = root.convergents[-2:]
    ends = ((pn, qn), (pn + pm, qn + qm))
    qmax = min(bound, max((bound + big_r) * d // abs(n) for n, d in ends) + 1)
    seps = sorted(root.seps)
    terms = [(2.0 ** len(seps[i:]) * top / abs(lead) / prod(seps[i:]), len(seps[i:]), i + 1)
             for i in range(len(seps))]
    twice_c = 2 * terms[0][0] * thue._GROW
    return big_r, qmax, terms, isqrt(floor(twice_c)) if twice_c < qmax * qmax else qmax


def slack(root, big_r, end):
    size = (abs(root.x) + root.rho) * end + big_r + 2
    return (root.rho * end + 8 * thue._U * size) * thue._GROW


def all_windows_rows(root, lead, top, bound):
    """Reference for the rows q < q* of `_window_candidates`: the least of every
    window at every q, with its rounding slack and clipping."""
    big_r, _, terms, end = windows(root, lead, top, bound)
    eps = slack(root, big_r, end)
    for q in range(1, end + 1):
        half = min([float(big_r)] + [(c / float(q) ** e) ** (1.0 / m) * thue._GROW
                                     for c, e, m in terms])
        lo = max(ceil(root.x * q - half - eps), -bound)
        hi = min(floor(root.x * q + half + eps), bound)
        if lo <= hi:
            yield q, lo, hi


def scan_rows(root, lead, top, bound):
    """Reference for the convergent tail: the least of every window at every
    q = 1..qmax, with no tail, vectorised in numpy to reach boxes of 10^7."""
    big_r, qmax, terms, _ = windows(root, lead, top, bound)
    eps = slack(root, big_r, qmax)
    for start in range(1, qmax + 1, 1 << 16):
        q = np.arange(start, min(start + (1 << 16), qmax + 1), dtype=np.float64)
        half = np.full_like(q, float(big_r))
        for c, e, m in terms:
            np.minimum(half, (c / q ** e) ** (1.0 / m) * thue._GROW, out=half)
        lo = np.maximum(np.ceil(root.x * q - half - eps), -bound)
        hi = np.minimum(np.floor(root.x * q + half + eps), bound)
        keep = lo <= hi
        yield from zip(q[keep].astype(np.int64).tolist(), lo[keep].astype(np.int64).tolist(),
                       hi[keep].astype(np.int64).tolist())


def tail_and_scan(form, targets, bound):
    """The search with its convergent tail, the search with `scan_rows` in place
    of its rows, and each root that `_roots` expanded for them, with its
    convergents."""
    calls = []

    def spy(form, bound):
        roots = real(form, bound)
        calls.extend((root, root.convergents) for root in roots)
        return roots

    real = thue._roots
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thue, "_roots", spy)
        tail = bounded_search_multi(form, targets, bound)
        patch.setattr(thue, "_window_candidates", scan_rows)
        scan = bounded_search_multi(form, targets, bound)
    return tail, scan, calls


def test_convergent_tail_matches_the_scan_on_the_family_cones():
    tails = []
    for form, targets in family_cones():
        tail, scan, taken = tail_and_scan(form, targets, 100_000)
        assert tail == scan, form
        tails += [got for _, got in taken]
    assert len(family_cones()) == 86
    assert tails and None not in tails


@settings(max_examples=100, deadline=None)
@given(coeffs=_forms, bound=st.integers(10 ** 3, 10 ** 4),
       points=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4),
       extra=st.lists(st.integers(-50, 50), max_size=4))
def test_convergent_tail_matches_the_scan(coeffs, bound, points, extra):
    form = BinaryQuarticForm(coeffs)
    targets = {v for v in {form(p, q) for p, q in points} | set(extra) if 0 < abs(v) <= 50}
    tail, scan, _ = tail_and_scan(form, targets, bound)
    assert tail == scan


@pytest.mark.parametrize("coeffs, targets", [
    # at t = 130 the root near 1 has q* = 2, so (2, 2) = 2 * (1, 1) is only
    # reached as a multiple of the convergent 1/1
    (family_form(130).coeffs, [-64, -4, 1, 16]),
    # (x^2 - 7)(2 x^2 - 3): (2, -1) lies below q* = 3 of its root -sqrt 7, and
    # -2/1 is no convergent of -sqrt 7: a threshold half as large misses it
    (form_product((1, 0, -7), (2, 0, -3)), [2, -15]),
])
def test_convergent_tail_matches_the_grid(coeffs, targets):
    form = BinaryQuarticForm(coeffs)
    got, _, calls = tail_and_scan(form, targets, 150)
    assert any(tail for _, tail in calls)
    assert {v: s.pairs for v, s in got.items()} == grid_search(form, targets, 150)


def test_bounded_search_takes_any_box():
    # the expansion reaches any box, and only the rows of the convergent tail grow
    # with it
    pairs = {b: {v: s.pairs for v, s in bounded_search_multi(family_form(2), [12, 16, -4],
                                                               b).items()}
             for b in (10 ** 30, 10 ** 500)}
    assert pairs[10 ** 500] == pairs[10 ** 30] and pairs[10 ** 30][16]


def test_a_root_window_past_int64_is_searched():
    # F_5 moved by 2^62: G(p, q) = F_5(p - 2^62 q, q) = 23 at (1 + 2^63, 2), whose
    # row lies past int64; the rows are Python ints clipped at the box, so a box
    # that holds it finds it
    t = 2 ** 62
    form = BinaryQuarticForm(form_image(family_form(5).coeffs, ((1, -t), (0, 1))))
    assert form(1 + 2 * t, 2) == form(t - 2, 1) == 23
    assert bounded_search_multi(form, [23], t)[23].pairs == ((t - 2, 1),)
    assert bounded_search_multi(form, [23], 4 * t)[23].pairs == ((t - 2, 1), (1 + 2 * t, 2))


def test_convergent_tail_matches_the_scan_at_t_4095():
    # large partial quotients: the roots of F_4095 are near 4095, -1/4095 and +-1
    targets = [s * 2 ** e for e in range(7) for s in (1, -1)] + [12, -4095]
    tail, scan, _ = tail_and_scan(family_form(4095), targets, 10 ** 7)
    assert tail == scan


@pytest.mark.parametrize("case", ["family cones", "F_1 at +-10^8"])
def test_one_window_rows_hold_the_all_windows_rows(case):
    # past the switch to the S = {} window alone, each row still holds the row
    # that the least of every window gives (C / q^3 stays the least once it is)
    if case == "family cones":
        searches = [(form, max(map(abs, targets)), 10 ** 5) for form, targets in family_cones()]
    else:
        searches = [(family_form(1), 10 ** 8, 10 ** 30)]
    checked = 0
    for form, top, bound in searches:
        for root in _roots(form, bound):
            rows = {}
            for q, lo, hi in _window_candidates(root, form.coeffs[0], top, bound):
                rows.setdefault(q, []).append((lo, hi))
            for q, lo, hi in all_windows_rows(root, form.coeffs[0], top, bound):
                assert any(a <= lo and hi <= b for a, b in rows.get(q, ())), (form, q)
                checked += 1
    assert checked > 1000


def nearest_roots(roots, p, q):
    """The indices of the roots that may be nearest to p/q: each root's exact
    interval, between its last convergent and the mediant with the one before,
    decides all but ties."""
    x, spans = Fraction(p, q), []
    for root in roots:
        (p1, q1), (pn, qn) = root.convergents[-2:]
        lo, hi = sorted((Fraction(pn, qn), Fraction(pn + p1, qn + q1)))
        spans.append((max(lo - x, x - hi, 0), max(abs(lo - x), abs(hi - x))))
    closest = min(far for _, far in spans)
    return [i for i, (near, _) in enumerate(spans) if near <= closest]


@settings(max_examples=100, deadline=None)
@given(coeffs=_forms, bound=st.integers(1, 40), top=st.integers(1, 3000))
@example(coeffs=family_form(2).coeffs, bound=40, top=1000)
def test_every_small_value_lies_in_a_row_of_its_nearest_root(coeffs, bound, top):
    form = BinaryQuarticForm(coeffs)
    roots = _roots(form, bound)
    rows = [{} for _ in roots]
    for got, root in zip(rows, roots):
        for q, lo, hi in _window_candidates(root, coeffs[0], top, bound):
            got.setdefault(q, []).append((lo, hi))
    for p in range(-bound, bound + 1):
        for q in range(1, bound + 1):
            if abs(form(p, q)) <= top:
                assert any(a <= p <= b for i in nearest_roots(roots, p, q)
                           for a, b in rows[i].get(q, ())), (p, q)
