from fractions import Fraction

import mpmath
import pytest
import sympy

from sqindex.fieldmodel import (ExcludedParameter, NonPositiveParameter,
                                OddSquareFactor, V2Class, disc_quartic_monic,
                                odd_square_divisor, validate_parameter)


def valid_t(limit):
    out = []
    for t in range(1, limit + 1):
        if t == 3:
            continue
        if odd_square_divisor(t * t + 16) is None:
            out.append(t)
    return out


def test_validate_examples():
    p = validate_parameter(2)
    assert (p.v2_class, p.n, p.g) == (V2Class.V1, 4, 2)
    with pytest.raises(ExcludedParameter):
        validate_parameter(3)
    with pytest.raises(NonPositiveParameter):
        validate_parameter(0)
    with pytest.raises(NonPositiveParameter):
        validate_parameter(-7)
    with pytest.raises(OddSquareFactor) as exc:
        validate_parameter(22)  # 22^2 + 16 = 500 = 2^2 * 5^3
    assert exc.value.factor == 25
    p = validate_parameter(12)  # 12^2 + 16 = 160 = 2^5 * 5
    assert p.v2_class is V2Class.V2


def test_validate_is_pure():
    assert validate_parameter(8) == validate_parameter(8)


def test_hypothesis_override():
    with pytest.raises(OddSquareFactor):
        validate_parameter(28)
    p = validate_parameter(28, allow_hypothesis_violation=True)
    assert not p.odd_part_squarefree
    assert p.v2_class is V2Class.V2


def test_basis_rows_match_known_cases():
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    expected = {
        1: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (h, 0, 0, h)),
        2: ((1, 0, 0, 0), (0, 1, 0, 0), (h, 0, h, 0), (0, h, 0, h)),
        4: ((1, 0, 0, 0), (0, 1, 0, 0), (h, 0, h, 0), (q, q, q, q)),
        8: ((1, 0, 0, 0), (0, 1, 0, 0), (q, 2 * q, -q, 0), (q, q, q, q)),
    }
    for t, rows in expected.items():
        param = validate_parameter(t)
        basis = tuple(tuple(Fraction(c, param.g) for c in row) for row in param.basis_num)
        assert basis == tuple(tuple(Fraction(c) for c in r) for r in rows)
        assert basis[0] == (1, 0, 0, 0)
        assert max(c.denominator for row in basis for c in row) == param.g


def test_basis_determinant_is_inverse_index():
    for t in valid_t(500):
        p = validate_parameter(t)
        rows = [[Fraction(c, p.g) for c in row] for row in p.basis_num]
        det = (rows[0][0] * rows[1][1] * rows[2][2] * rows[3][3])  # lower triangular
        assert abs(det) == Fraction(1, p.n)


def test_family_discriminant_against_float_roots():
    # independent 200-bit computation: product of squared root differences
    mpmath.mp.prec = 200
    for t in (1, 2, 5, 12):
        exact = validate_parameter(t).disc_P
        roots = mpmath.polyroots([1, -t, -6, t, 1], maxsteps=200)
        prod = mpmath.mpf(1)
        for i in range(4):
            for j in range(i + 1, 4):
                prod *= (roots[i] - roots[j]) ** 2
        assert int(mpmath.nint(prod.real)) == exact


def test_resultant_and_closed_form_agree_with_sympy():
    # disc_quartic_monic against sympy's discriminant and against sympy's
    # resultant(f, f'), which equals the discriminant for a monic quartic
    import random
    rng = random.Random(1)
    x = sympy.symbols("x")
    cases = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(40)]
    for c in cases:
        poly = x ** 4 + c[3] * x ** 3 + c[2] * x ** 2 + c[1] * x + c[0]
        want = sympy.discriminant(poly, x)
        assert sympy.resultant(poly, sympy.diff(poly, x), x) == want
        assert disc_quartic_monic(c[3], c[2], c[1], c[0]) == want


def test_poly_discriminant_degenerate():
    # repeated roots: the quartic discriminant vanishes
    assert disc_quartic_monic(0, 0, 0, 0) == 0  # x^4
    assert disc_quartic_monic(0, -2, 0, 1) == 0  # (x^2-1)^2
    assert disc_quartic_monic(-2, -3, 4, 4) == 0  # (x-2)^2 (x+1)^2


def test_disc_ratio_and_formula_for_all_small_t():
    for t in valid_t(500):
        p = validate_parameter(t)
        assert p.disc_P == p.n * p.n * p.disc_K
        assert p.disc_K != 0
        # the family discriminant has the closed form 4*(t^2+16)^3
        assert p.disc_P == 4 * (t * t + 16) ** 3
