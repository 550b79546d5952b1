import dataclasses
import math
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqindex.fieldmodel import odd_square_divisor, validate_parameter
from sqindex.indexcore import index_via_forms
from sqindex.elements import (AlgebraicInt, NotIntegral, PowerRep,
                              _mult_table, canonical_triple,
                              coords_from_power, from_power_rep,
                              index_oracle, mult_matrix, multiply, power_part, sigma,
                              to_power_rep, triple_from_xyz)

XI = AlgebraicInt((0, 1, 0, 0))


def test_to_power_rep_minimal_index_elements():
    for t in (1, 5, 7):
        param = validate_parameter(t)
        rep = to_power_rep(AlgebraicInt((0, 6, t, -2)), param)
        assert rep == PowerRep(-1, 6, t, -1, 1)
    # same element written in the v2(t)=2 basis carries constant t, not -1
    for t in (4, 12):
        param = validate_parameter(t)
        rep = to_power_rep(AlgebraicInt((0, 7, 2 + 2 * t, -4)), param)
        assert rep == PowerRep(t, 6, t, -1, 1)


def test_to_power_rep_xi_every_class():
    for t in (1, 2, 4, 8):
        param = validate_parameter(t)
        assert to_power_rep(XI, param) == PowerRep(0, 1, 0, 0, 1)


def test_from_power_rep_examples():
    param = validate_parameter(2)
    assert from_power_rep(PowerRep.reduced(0, 2, 0, 0, 2), param).coords == (0, 1, 0, 0)
    t = 5
    param = validate_parameter(t)
    # over d = 2 the constant must match the parity of the xi^3 coefficient
    e = from_power_rep(PowerRep(1, 5 + t, -1 + t, -1, 2), param)
    assert e.coords[1:] == ((5 + t) // 2, (-1 + t) // 2, -1)
    with pytest.raises(NotIntegral):
        from_power_rep(PowerRep(0, 5 + t, -1 + t, -1, 2), param)
    with pytest.raises(NotIntegral):
        from_power_rep(PowerRep(1, 0, 0, 0, 2), param)


def test_round_trip_random():
    rng = random.Random(7)
    for t in (1, 2, 4, 8, 12, 40):
        param = validate_parameter(t)
        for _ in range(50):
            e = AlgebraicInt(tuple(rng.randint(-40, 40) for _ in range(4)))
            assert from_power_rep(to_power_rep(e, param), param) == e


def test_multiply_reduction_rule():
    for t in (1, 2, 5, 12):
        param = validate_parameter(t)
        xi3 = from_power_rep(PowerRep(0, 0, 0, 1, 1), param)
        prod = multiply(XI, xi3, param)
        # xi^4 = t*xi^3 + 6*xi^2 - t*xi - 1
        assert to_power_rep(prod, param) == PowerRep.reduced(-1, -t, 6, t, 1)


def test_multiply_identity_and_closure():
    one = AlgebraicInt((1, 0, 0, 0))
    rng = random.Random(11)
    for t in (2, 7, 44, 199):
        param = validate_parameter(t)
        for _ in range(25):
            e = AlgebraicInt(tuple(rng.randint(-15, 15) for _ in range(4)))
            f = AlgebraicInt(tuple(rng.randint(-15, 15) for _ in range(4)))
            assert multiply(e, one, param) == e
            multiply(e, f, param)  # raises NotIntegral on any closure failure


def test_basis_square_integral_t2():
    param = validate_parameter(2)
    b4 = AlgebraicInt((0, 0, 0, 1))  # (xi + xi^3)/2
    sq = multiply(b4, b4, param)
    assert all(isinstance(c, int) for c in sq.coords)


def test_char_poly_examples(quartic_disc, char_poly):
    for t in (1, 2, 12):
        param = validate_parameter(t)
        assert char_poly(mult_matrix(XI, param)) == (1, t, -6, -t, 1)
        c = 5
        assert char_poly(mult_matrix(AlgebraicInt((c, 0, 0, 0)), param)) == \
            (c ** 4, -4 * c ** 3, 6 * c * c, -4 * c, 1)
    param = validate_parameter(1)
    cp = char_poly(mult_matrix(AlgebraicInt((0, 6, 1, -2)), param))
    assert quartic_disc(cp) == 4 * param.disc_K


def test_index_oracle_examples():
    param = validate_parameter(5)
    assert index_oracle(XI, param) == 2
    assert index_oracle(AlgebraicInt((7, 0, 0, 0)), param) is None
    param = validate_parameter(2)
    assert index_oracle(AlgebraicInt((0, 1, 1, 0)), param) == 1


def test_disc_identity_random(quartic_disc, char_poly):
    rng = random.Random(3)
    for t in (1, 2, 12, 40):
        param = validate_parameter(t)
        for _ in range(40):
            e = AlgebraicInt((0, rng.randint(-9, 9), rng.randint(-9, 9),
                              rng.randint(-9, 9)))
            m = index_oracle(e, param)
            disc = quartic_disc(char_poly(mult_matrix(e, param)))
            if m is None:
                assert disc == 0
            else:
                assert disc == m * m * param.disc_K


@settings(max_examples=60, deadline=None)
@given(x1=st.integers(-25, 25), x2=st.integers(-25, 25), x3=st.integers(-25, 25),
       c=st.integers(-10, 10), sign=st.sampled_from((1, -1)))
def test_index_translation_and_sign_invariance(x1, x2, x3, c, sign):
    param = validate_parameter(12)
    e = AlgebraicInt((0, x1, x2, x3))
    shifted = AlgebraicInt((c, sign * x1, sign * x2, sign * x3))
    assert index_oracle(e, param) == index_oracle(shifted, param)


# valid t <= 10^4 of each 2-adic class (v2(t) = 0, 1, 2, >= 3), and the
# hypothesis-violating t = 28 and 128
_TABLE_T = st.one_of(
    st.one_of(
        st.integers(0, 4999).map(lambda k: 2 * k + 1),
        st.integers(0, 2499).map(lambda k: 2 * (2 * k + 1)),
        st.integers(0, 1249).map(lambda k: 4 * (2 * k + 1)),
        st.integers(1, 1250).map(lambda k: 8 * k),
    ).filter(lambda t: t != 3 and odd_square_divisor(t * t + 16) is None),
    st.sampled_from((28, 128)))
_COORDS = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4)


@settings(max_examples=100, deadline=None)
@given(t=_TABLE_T, u=_COORDS, v=_COORDS)
@example(t=1, u=(0, 1, 0, 0), v=(0, 0, 0, 1))
@example(t=2, u=(0, 0, 0, 1), v=(0, 0, 0, 1))
@example(t=4, u=(0, 0, 1, 0), v=(0, 0, 0, 1))
@example(t=8, u=(0, 0, 1, 1), v=(0, 0, 1, 0))
@example(t=128, u=(10 ** 6, -10 ** 6, 10 ** 6, -10 ** 6), v=(1, 2, 3, 4))
def test_mult_table_against_resultant(t, u, v):
    # the multiplication table, checked against a route that does not use it:
    # for e = (a + x*xi + y*xi^2 + z*xi^3)/d the characteristic polynomial is
    # Res_Y(P_t(Y), d*X - (a + x*Y + y*Y^2 + z*Y^3)) / d^4
    import sympy
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    e, f = AlgebraicInt(u), AlgebraicInt(v)
    rep = to_power_rep(e, param)
    X, Y = sympy.symbols("X Y")
    res = sympy.resultant(Y ** 4 - t * Y ** 3 - 6 * Y ** 2 + t * Y + 1,
                          rep.d * X - (rep.a + rep.x * Y + rep.y * Y ** 2 + rep.z * Y ** 3), Y)
    want = sympy.Poly(res, X).all_coeffs()
    me, mf = sympy.Matrix(mult_matrix(e, param)), sympy.Matrix(mult_matrix(f, param))
    assert [c * rep.d ** 4 for c in me.charpoly().all_coeffs()] == want
    assert me * mf == sympy.Matrix(mult_matrix(multiply(e, f, param), param))


@settings(max_examples=150, deadline=None)
@given(t=_TABLE_T, u=_COORDS)
@example(t=9_999, u=(10 ** 6, -10 ** 6, 10 ** 6, -10 ** 6))
@example(t=8, u=(-10 ** 6, 0, 0, 0))
@example(t=28, u=(3, 0, 0, 0))
def test_index_oracle_at_benchmark_scale(quartic_disc, char_poly, t, u):
    # the determinant against sympy's discriminant of the characteristic
    # polynomial, at the coordinate and parameter sizes of the benchmark
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    e = AlgebraicInt(u)
    m = index_oracle(e, param)
    disc = quartic_disc(char_poly(mult_matrix(e, param)))
    assert (m is None) == (disc == 0)
    assert disc == (m or 0) ** 2 * param.disc_K


@settings(max_examples=150, deadline=None)
@given(t=_TABLE_T, u=_COORDS)
@example(t=9_999, u=(10 ** 6, -10 ** 6, 10 ** 6, -10 ** 6))
@example(t=4, u=(-7, 0, 1, 0))
@example(t=128, u=(10 ** 6, 0, 0, 0))
@example(t=1, u=(3, 1, -2, 0))
def test_index_oracle_triple_path_against_definition(t, u):
    # the triple path drops X0 and column 0 of M'; the definition keeps both:
    # (1, e, e^2, e^3) on the integral basis, the powers formed by the full M(e),
    # the determinant by sympy
    import sympy
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    e = AlgebraicInt(u)
    e2 = multiply(e, e, param)
    e3 = multiply(e2, e, param)
    det = sympy.Matrix([[1, 0, 0, 0], e.coords, e2.coords, e3.coords]).det()
    m = index_oracle(e, param)
    assert (m is None) == (det == 0)
    assert m == (abs(det) or None)


def _reference_table(param):
    # 16 products b(j+1)*b(k+1) over the power basis, reduced by
    # xi^4 = t*xi^3 + 6*xi^2 - t*xi - 1, each solved for integral-basis
    # coordinates by exact rational back substitution
    t, g, rows = param.t, param.g, param.basis_num
    table = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for j in range(4):
        for k in range(4):
            prod = [Fraction(0)] * 7
            for a in range(4):
                for b in range(4):
                    prod[a + b] += Fraction(rows[j][a] * rows[k][b], g * g)
            for deg in range(6, 3, -1):
                c = prod[deg]
                prod[deg] = 0
                for shift, r in enumerate((-1, -t, 6, t)):
                    prod[deg - 4 + shift] += c * r
            coords = [Fraction(0)] * 4
            for i in range(3, -1, -1):
                rest = prod[i] - sum(coords[l] * Fraction(rows[l][i], g) for l in range(i + 1, 4))
                coords[i] = rest / Fraction(rows[i][i], g)
            assert all(c.denominator == 1 for c in coords), (t, j, k, coords)
            for i in range(4):
                table[i][j][k] = int(coords[i])  # entry (i, j) of B_k
    return tuple(tuple(tuple(entry) for entry in row) for row in table)


@pytest.mark.parametrize("t", (1, 2, 4, 8, 28, 128))
def test_mult_table_six_products_against_sixteen(t):
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    table = _mult_table(param)
    assert table == _reference_table(param)
    for i in range(4):
        for j in range(4):
            assert table[i][j][0] == int(i == j)  # B0 = id
            for k in range(4):
                assert table[i][j][k] == table[i][k][j]  # Bk[i][j] = Bj[i][k]


def _polynomial_at(e, param):
    """P_t(e) = e^4 - t*e^3 - 6*e^2 + t*e + 1 in coordinates, through `multiply`."""
    t, acc = param.t, AlgebraicInt((1, 0, 0, 0))
    for c in (-t, -6, t, 1):  # Horner: acc = acc*e + c
        prod = multiply(acc, e, param).coords
        acc = AlgebraicInt((prod[0] + c, *prod[1:]))
    return acc


# one t per 2-adic class, larger ones, and the hypothesis violators 28 and 128
@pytest.mark.parametrize("t", (1, 2, 4, 8, 5, 12, 40, 28, 128, 9_999, 10 ** 6))
def test_sigma_is_a_galois_generator(t):
    # sigma(xi) = (xi - 1)/(xi + 1) is a root of P_t, sigma^4 = id, and sigma^2 is not id:
    # it generates the cyclic group Gal(K/Q) of order 4
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    s = sigma(XI, param)
    assert s != XI and _polynomial_at(s, param) == AlgebraicInt((0, 0, 0, 0))
    # (xi + 1) sigma(xi) = xi - 1
    assert multiply(AlgebraicInt((1, 1, 0, 0)), s, param) == AlgebraicInt((-1, 1, 0, 0))
    assert sigma(s, param) != XI
    for i in range(4):
        b = AlgebraicInt(tuple(int(k == i) for k in range(4)))
        image = b
        for _ in range(4):
            image = sigma(image, param)
        assert image == b, (t, i)


@settings(max_examples=100, deadline=None)
@given(t=_TABLE_T, u=_COORDS, v=_COORDS)
@example(t=1, u=(0, 1, 0, 0), v=(0, 1, 0, 0))
@example(t=2, u=(0, 0, 0, 1), v=(0, 0, 1, 0))
@example(t=4, u=(0, 0, 1, 0), v=(0, 0, 0, 1))
@example(t=8, u=(0, 0, 1, 1), v=(0, 0, 0, 1))
@example(t=28, u=(0, 0, 0, 1), v=(3, 0, 0, 1))
@example(t=128, u=(10 ** 6, -10 ** 6, 10 ** 6, -10 ** 6), v=(1, 2, 3, 4))
def test_sigma_is_a_ring_automorphism_preserving_the_index(t, u, v):
    # also on the hypothesis violators: the basis lattice is sigma-stable
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    u, v = AlgebraicInt(u), AlgebraicInt(v)
    assert sigma(multiply(u, v, param), param) == \
        multiply(sigma(u, param), sigma(v, param), param)
    assert index_oracle(sigma(u, param), param) == index_oracle(u, param)
    # sigma fixes Q, so it commutes with translation
    shifted = AlgebraicInt((u.coords[0] + 7, *u.triple))
    assert sigma(shifted, param).triple == sigma(u, param).triple


@settings(max_examples=150, deadline=None)
@given(t=_TABLE_T, u=_COORDS)
@example(t=1, u=(0, 0, 0, 0))
@example(t=8, u=(0, 0, 0, 0))
@example(t=2, u=(-3, -5, -1, -7))
@example(t=4, u=(-4, 0, -2, 0))
@example(t=128, u=(-10 ** 6, 10 ** 6, -10 ** 6, 10 ** 6))
def test_to_power_rep_against_generic_product(t, u):
    # g*e = sum over i of X_i * basis_num[i], the generic 4x4 row product;
    # to_power_rep is that vector over g in lowest form
    param = validate_parameter(t, allow_hypothesis_violation=t in (28, 128))
    g = param.g
    num = [sum(u[i] * param.basis_num[i][j] for i in range(4)) for j in range(4)]
    rep = to_power_rep(AlgebraicInt(u), param)
    assert g % rep.d == 0
    assert math.gcd(*rep.vec, rep.d) == 1
    assert [c * (g // rep.d) for c in rep.vec] == num
    if u == (0, 0, 0, 0):
        assert rep == PowerRep(0, 0, 0, 0, 1)


def test_algebraic_int_rejects_non_integers():
    import sympy
    for bad in ((1.5, 0, 0, 2.9), (Fraction(7, 2), 0, 0, 0), ("3", 0, 0, 0), (1.0, 0, 0, 0)):
        with pytest.raises(TypeError):
            AlgebraicInt(bad)
    e = AlgebraicInt((np.int64(3), sympy.Integer(-2), True, 5))
    assert e.coords == (3, -2, 1, 5)
    assert all(type(c) is int for c in e.coords)


@pytest.mark.parametrize("coords", [(), (1, 2, 3), (1, 2, 3, 4, 5)])
def test_algebraic_int_needs_four_coordinates(coords):
    with pytest.raises(ValueError, match="4 coordinates"):
        AlgebraicInt(coords)


@pytest.mark.parametrize("t", (1, 2, 12, 40))
def test_quadratic_subfield_elements_are_degenerate(t):
    # 1/xi = -xi^3 + t*xi^2 + 6*xi - t, so xi - 1/xi = xi^3 - t*xi^2 - 5*xi + t;
    # it is fixed by xi -> -1/xi and lies in the quadratic subfield
    param = validate_parameter(t)
    e = from_power_rep(PowerRep.reduced(t, -5, -t, 1, 1), param)
    assert e.triple != (0, 0, 0)
    for c in (0, 1, -7):
        for k in (1, -1, 3):
            f = AlgebraicInt((k * e.coords[0] + c, *(k * x for x in e.triple)))
            assert index_oracle(f, param) is None
            assert index_via_forms(to_power_rep(f, param), param) is None


def test_mult_table_check_rejects_wrong_n():
    for t in (1, 2, 4, 8):
        param = validate_parameter(t)
        assert index_oracle(XI, param) == param.n
        bad = dataclasses.replace(param, n=2 * param.n)
        with pytest.raises(ArithmeticError):
            index_oracle(XI, bad)
        with pytest.raises(ArithmeticError):
            mult_matrix(XI, bad)


def test_triple_from_xyz_filters_non_integral():
    param = validate_parameter(1)  # v2(t)=0 needs x, y even over d=2
    assert triple_from_xyz(2, 0, 0, param) == (1, 0, 0)
    assert triple_from_xyz(1, 0, 0, param) is None


@pytest.mark.parametrize("t", (1, 2, 4, 8))  # v2(t) = 0, 1, 2, >= 3
def test_coordinate_solve_against_sympy_inverse(t):
    # the triangular solve, checked against sympy's exact inverse of
    # basis_num / g: (vec)/d has coordinates (vec/d) * (basis_num / g)^-1
    import sympy
    param = validate_parameter(t)
    g, basis = param.g, param.basis_num
    inv = [[Fraction(int(c.p), int(c.q)) for c in row]
           for row in (sympy.Matrix(basis) / g).inv().tolist()]
    rng = random.Random(t)

    def expected(vec, d):
        xs = [sum(v * inv[i][j] for i, v in enumerate(vec)) / d for j in range(4)]
        return tuple(int(x) for x in xs) if all(x.denominator == 1 for x in xs) else None

    def solved(vec, d):
        try:
            return coords_from_power(vec, d, param)
        except NotIntegral:
            return None

    def element(d):  # d times a random integral element, when that is integral
        xs = [rng.randint(-30, 30) for _ in range(4)]
        vec = [Fraction(d * sum(x * basis[i][j] for i, x in enumerate(xs)), g) for j in range(4)]
        return tuple(int(v) for v in vec) if all(v.denominator == 1 for v in vec) else None

    seen = {True: 0, False: 0}
    for d in range(1, 17):
        for _ in range(40):
            vecs = [tuple(rng.randint(-60, 60) for _ in range(4))]
            vec = element(d)
            if vec is not None:  # and a near miss in each coordinate
                vecs += [vec] + [vec[:j] + (vec[j] + 1,) + vec[j + 1:] for j in range(4)]
            for vec in vecs:
                want = expected(vec, d)
                assert solved(vec, d) == want, (vec, d)
                seen[want is None] += 1
    assert min(seen.values()) > 100, seen

    # triple_from_xyz is the same solve over g, without the constant term:
    # X0 = (a - const)/g, so some a in 0..g-1 makes the value integral or none does
    for _ in range(400):
        vec = element(g) if rng.random() < 0.5 else None
        x, y, z = vec[1:] if vec else (rng.randint(-60, 60) for _ in range(3))
        a = next((a for a in range(g) if expected((a, x, y, z), g) is not None), None)
        want = None if a is None else coords_from_power((a, x, y, z), g, param)[1:]
        assert triple_from_xyz(x, y, z, param) == want, (x, y, z)

    # power_part is the forward map that triple_from_xyz inverts, on ints and on
    # int32 arrays alike
    triples = [tuple(rng.randint(-60, 60) for _ in range(3)) for _ in range(400)]
    for triple in triples:
        assert triple_from_xyz(*power_part(*triple, basis), param) == triple, triple
    arrays = power_part(*np.array(triples, dtype=np.int32).T, basis)
    assert all(a.dtype == np.int32 for a in arrays)
    assert [tuple(map(int, xyz)) for xyz in zip(*arrays)] == \
        [power_part(*triple, basis) for triple in triples]


def test_canonical_triple_rule():
    assert canonical_triple((-2, 7, -1)) == (2, -7, 1)
    assert canonical_triple((0, -3, 2)) == (0, 3, -2)
    assert canonical_triple((0, 0, -5)) == (0, 0, 5)
    assert canonical_triple((0, 0, 0)) == (0, 0, 0)
    assert canonical_triple((4, 2, -1)) == (4, 2, -1)
