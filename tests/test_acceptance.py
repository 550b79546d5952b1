"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Box-search rigor caveats are reported by the library
itself through its rigor flags.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import sqindex as sq
from sqindex.fieldmodel import odd_square_divisor, validate_parameter
from sqindex.elements import AlgebraicInt, index_oracle, mult_matrix, to_power_rep
from sqindex.indexcore import TernaryForm, family_forms, index_via_forms
from sqindex.thue import bounded_search_multi, family_form, solve_power_of_two
from sqindex.conic import parametrize, thue_reduction
from sqindex.driver import brute_force_minimal, enumerate_case2_triples, find_point, minimal_index
from sqindex.goldens import expected_minimal, case2_golden


@contextmanager
def criterion(number, description, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def valid_t(limit):
    return [t for t in range(1, limit + 1)
            if t != 3 and odd_square_divisor(t * t + 16) is None]


def test_criterion_1_integral_bases_and_xi_index():
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    rows_by_class = {
        "V0": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (h, 0, 0, h)),
        "V1": ((1, 0, 0, 0), (0, 1, 0, 0), (h, 0, h, 0), (0, h, 0, h)),
        "V2": ((1, 0, 0, 0), (0, 1, 0, 0), (h, 0, h, 0), (q, q, q, q)),
        "V3plus": ((1, 0, 0, 0), (0, 1, 0, 0), (q, 2 * q, -q, 0), (q, q, q, q)),
    }
    n_by_class = {"V0": 2, "V1": 4, "V2": 8, "V3plus": 16}
    with criterion(1, "integral bases and xi-index for ten parameters", 1.0):
        for t in (1, 2, 4, 5, 6, 8, 10, 12, 36, 40):
            param = validate_parameter(t)
            basis = tuple(tuple(Fraction(c, param.g) for c in row)
                          for row in param.basis_num)
            want = tuple(tuple(Fraction(c) for c in row)
                         for row in rows_by_class[param.v2_class.name])
            assert basis == want
            assert index_oracle(AlgebraicInt((0, 1, 0, 0)), param) == \
                n_by_class[param.v2_class.name] == param.n


def test_criterion_2_power_integral_bases():
    for t in (2, 4):
        with criterion(2, f"power integral basis generators for t={t}", 60.0):
            param = validate_parameter(t)
            res = minimal_index(param)
            want_m, want_elems = expected_minimal(param)
            assert res.m == 1 == want_m
            assert res.elements == want_elems


def test_criterion_3_exceptional_rows():
    want_m = {8: 4, 12: 3, 16: 8, 20: 5, 24: 12, 32: 16}
    for t, m in want_m.items():
        with criterion(3, f"exceptional row t={t} (m={m})", 120.0):
            param = validate_parameter(t)
            res = minimal_index(param)
            gold_m, gold_elems = expected_minimal(param)
            assert res.m == m == gold_m
            assert res.elements == gold_elems
            if t == 32:
                assert len(res.elements) == 10  # 4 generic + 6 extra
    with criterion(3, "exceptional row t=28 requires the override flag", 120.0):
        try:
            validate_parameter(28)
            raise AssertionError("t=28 must be rejected without the override")
        except sq.OddSquareFactor:
            pass
        param = validate_parameter(28, allow_hypothesis_violation=True)
        res = minimal_index(param)
        gold_m, gold_elems = expected_minimal(param)
        assert res.m == 7 == gold_m and res.elements == gold_elems
        assert not res.hypothesis_ok


def test_criterion_4_generic_rows():
    for t in (1, 5, 6, 10, 36, 40, 48, 64, 80, 96, 112, 128, 144, 240, 256):
        with criterion(4, f"generic row t={t}", 120.0):
            override = odd_square_divisor(t * t + 16) is not None
            param = validate_parameter(t, allow_hypothesis_violation=override)
            res = minimal_index(param)
            gold_m, gold_elems = expected_minimal(param)
            assert res.m == gold_m == param.n
            assert res.elements == gold_elems


def test_criterion_5_brute_force_agreement():
    with criterion(5, "box oracle agreement at box t + 40 for every valid t <= 64", 600.0):
        for t in valid_t(64):
            param = validate_parameter(t)
            res = minimal_index(param)
            bm, belems = brute_force_minimal(param, t + 40)
            # for t >= 24 some minimal-index elements lie outside the box
            inside = tuple(e for e in res.elements if max(map(abs, e)) <= t + 40)
            assert (bm, belems) == (res.m, inside), t


def test_criterion_6_index_identity_suite(quartic_disc, char_poly):
    with criterion(6, "dual-oracle identity on 10^4 random elements", 300.0):
        rng = random.Random(20260810)
        checked = 0
        for t in (1, 2, 12, 40):
            param = validate_parameter(t)
            for _ in range(2500):
                e = AlgebraicInt((rng.randint(-6, 6), rng.randint(-14, 14),
                                  rng.randint(-14, 14), rng.randint(-14, 14)))
                m_oracle = index_oracle(e, param)
                m_forms = index_via_forms(to_power_rep(e, param), param)
                assert m_oracle == m_forms
                disc = quartic_disc(char_poly(mult_matrix(e, param)))
                if m_oracle is None:
                    assert disc == 0
                else:
                    assert disc == m_oracle * m_oracle * param.disc_K
                checked += 1
        assert checked >= 10_000


def test_criterion_7_thue_family():
    with criterion(7, "power-of-two Thue sets vs box 1000 for t <= 100", 600.0):
        ws = (1, -1, 2, -2, 4, -4, 8, -8, 16, -16)
        for t in range(1, 101):
            if t == 3:
                continue
            box = bounded_search_multi(family_form(t), ws, 1000)
            for w in ws:
                proven = solve_power_of_two(t, w)
                assert proven.rigor.proven
                want = tuple(p for p in proven.pairs
                             if max(abs(p[0]), abs(p[1])) <= 1000)
                assert box[w].pairs == want, (t, w)
                if abs(w) == 2:
                    assert want == ()
        # mod-8 exhaustion over all residue combinations
        residues = {(p ** 4 - t * p ** 3 * q - 6 * p * p * q * q
                     + t * p * q ** 3 + q ** 4) % 8
                    for t in range(8) for p in range(8) for q in range(8)}
        assert residues.isdisjoint({2, 6})
        # lifting identity, symbolically as polynomial coefficients
        import sympy
        p, q, t = sympy.symbols("p q t")
        f = p ** 4 - t * p ** 3 * q - 6 * p * p * q * q + t * p * q ** 3 + q ** 4
        lifted = f.subs({p: p - q, q: p + q}, simultaneous=True)
        assert sympy.expand(lifted + 4 * f) == 0


def test_criterion_8_case2_enumeration():
    with criterion(8, "all 78 published (t,u,v) candidates enumerated", 60.0):
        triples = {(c.t, c.u, c.v): c for c in enumerate_case2_triples(256)}
        golden = case2_golden()
        assert len(golden) == 78
        for t, u, v in golden:
            c = triples.get((t, u, v)) or triples.get((t, -u, -v))
            assert c is not None, (t, u, v)
            lhs = c.a1 ** 2 * 4 ** c.i + c.sign_inner * c.a2 * 2 ** (c.l - c.i)
            assert lhs == c.v * c.v * (c.t * c.t + 16)


def test_criterion_9_worked_example_regression():
    with criterion(9, "full pipeline regression for (t,u,v) = (12,20,2)", 30.0):
        t, u, v = 12, 20, 2
        _, q1, q2 = family_forms(t)
        q0 = TernaryForm.combine(v, q1, -u, q2)
        assert q0.coeffs == (2, 24, -32, 332, -360, 482)
        point = find_point(t, u, v)
        assert point in ((15, 11, -1), (-15, -11, 1))
        par = parametrize(q0, point)
        assert par.rows == ((-38, -344, 480), (-22, -272, 368), (2, 24, -32))
        assert par.k_bound == 384
        red = thue_reduction(par, q2, v)
        # the quartic is 8 * form, so rhs = 2 * k^2 / 8 for the even k | 384
        assert red.form.coeffs == (1, 16, 16, -384, 416)
        assert all(inst.rhs * 8 == 2 * inst.k ** 2 for inst in red.instances)
        assert [inst.k for inst in red.instances] == [k for k in range(2, 385, 2) if 384 % k == 0]
        targets = set()
        for inst in red.instances:
            targets.update((inst.rhs, -inst.rhs))
        sols = bounded_search_multi(red.form, targets, 100)
        table = set()
        for inst in red.instances:
            for w in (inst.rhs, -inst.rhs):
                for p, q in sols[w]:
                    vec = par.evaluate(p, q)
                    if any(c % inst.k for c in vec):
                        continue
                    xyz = tuple(c // inst.k for c in vec)
                    if (q1(*xyz), q2(*xyz)) in ((u, v), (-u, -v)):
                        table.add(min(xyz, tuple(-c for c in xyz)))
        want = {min(r, tuple(-c for c in r))
                for r in ((19, 11, -1), (15, 11, -1), (-5, -37, 3))}
        assert table == want
