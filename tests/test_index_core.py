import random

import pytest
import sympy

from sqindex.fieldmodel import validate_parameter
from sqindex.elements import AlgebraicInt, index_oracle, to_power_rep
from sqindex.indexcore import (NotInRange, family_forms, index_via_forms,
                               rhs_decompositions)


def test_family_forms_match_known_expansion():
    tsym = sympy.symbols("t")
    u, v = sympy.symbols("u v")
    f, q1, q2 = family_forms(tsym)
    factored = sympy.expand((u + 2 * v) * (u * u + 4 * u * v - v * v * (tsym ** 2 + 12)))
    built = sum(c * m for c, m in zip(f.coeffs, (u ** 3, u * u * v, u * v * v, v ** 3)))
    assert sympy.expand(built - factored) == 0
    assert q2.coeffs == (0, 0, 1, -1, tsym, -6)
    # q1 = x^2 + t*x*y - 6y^2 + (t^2+12)xz - 5t*yz + (t^2+37)z^2
    assert q1.coeffs[0] == 1
    assert q1.coeffs[1] == tsym
    assert q1.coeffs[2] == -6
    assert sympy.expand(q1.coeffs[3] - (tsym ** 2 + 12)) == 0
    assert sympy.expand(q1.coeffs[4] + 5 * tsym) == 0
    assert sympy.expand(q1.coeffs[5] - (tsym ** 2 + 37)) == 0


def test_family_factorization_numeric():
    for t in range(1, 101):
        f, _, _ = family_forms(t)
        assert f.coeffs == (1, 6, -(t * t + 4), -(2 * t * t + 24))
        for u, v in ((3, 2), (-5, 1), (7, -4)):
            assert f(u, v) == (u + 2 * v) * (u * u + 4 * u * v - v * v * (t * t + 12))


def test_index_via_forms_xi():
    for t in (1, 2, 4, 8, 12):
        param = validate_parameter(t)
        rep = to_power_rep(AlgebraicInt((0, 1, 0, 0)), param)
        assert index_via_forms(rep, param) == param.n


def test_worked_example_uv_values():
    _, q1, q2 = family_forms(12)
    assert (q1(19, 11, -1), q2(19, 11, -1)) == (20, 2)
    assert (abs(q1(15, 11, -1)), abs(q2(15, 11, -1))) == (20, 2)


def test_cross_oracle_random():
    rng = random.Random(5)
    for t in (1, 2, 12, 40):
        param = validate_parameter(t)
        for _ in range(250):
            e = AlgebraicInt((rng.randint(-8, 8), rng.randint(-12, 12),
                              rng.randint(-12, 12), rng.randint(-12, 12)))
            m1 = index_oracle(e, param)
            m2 = index_via_forms(to_power_rep(e, param), param)
            assert m1 == m2


def test_rhs_decompositions():
    cases = {
        (1, 2): (1, 6),    # v2(t)=0, m=2: 64*2/2 = 2^6
        (2, 3): (3, 4),    # v2(t)=1, m=3: 64*3/4 = 3*2^4
        (8, 16): (1, 12),  # v2(t)>=3, m=16: 4096*16/16 = 2^12
        (4, 1): (1, 9),    # v2(t)=2, m=1: 4096/8 = 2^9
    }
    for (t, m), want in cases.items():
        param = validate_parameter(t)
        assert rhs_decompositions(param, m) == want
    param = validate_parameter(1)
    with pytest.raises(NotInRange):
        rhs_decompositions(param, 3)
    with pytest.raises(NotInRange):
        rhs_decompositions(param, 0)


def test_rhs_decomposition_ranges():
    for t in (1, 2, 4, 8):
        param = validate_parameter(t)
        for m in range(1, param.n + 1):
            a, l = rhs_decompositions(param, m)
            assert a % 2 == 1 and 1 <= a <= 15
            assert 4 <= l <= 12
            assert a * 2 ** l == param.g ** 6 * m // param.n


def test_forms_value_divisibility_in_box():
    # n*|F(Q1,Q2)| / g^6 is a nonnegative integer whenever (x,y,z)/g is the
    # power part of an algebraic integer
    from sqindex.elements import triple_from_xyz
    for t in (1, 2, 4, 5, 8, 12, 16, 20):
        param = validate_parameter(t)
        f, q1, q2 = family_forms(t)
        d6 = param.g ** 6
        checked = 0
        for x in range(-10, 11):
            for y in range(-10, 11):
                for z in range(-10, 11):
                    if triple_from_xyz(x, y, z, param) is None:
                        continue
                    fv = f(q1(x, y, z), q2(x, y, z))
                    assert (param.n * abs(fv)) % d6 == 0
                    checked += 1
        assert checked > 0


def test_case1_base_point_on_q2():
    for t in range(1, 101):
        _, _, q2 = family_forms(t)
        assert q2(-6, 0, 1) == 0
