from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from sqindex.fieldmodel import (ExcludedParameter, NonPositiveParameter,
                                OddSquareFactor, ParameterError, V2Class, odd_square_divisor,
                                validate_parameter)


def valid_t(limit):
    out = []
    for t in range(1, limit + 1):
        if t == 3:
            continue
        if odd_square_divisor(t * t + 16) is None:
            out.append(t)
    return out


def _odd_primes_to(limit):
    """The odd primes p <= limit, by the sieve of Eratosthenes."""
    is_prime = bytearray([1]) * (limit + 1)
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(3, limit + 1) if is_prime[p]]


def _least_odd_prime_squares_to(limit):
    """s[n] = the least square p^2 of an odd prime p dividing n, or None, for 0 <= n <= limit.

    A sieve: each p^2 marks its multiples in increasing p, so the first mark
    stands; s[0] stays None, as odd_square_divisor(0) is.
    """
    s = [None] * (limit + 1)
    for p in _odd_primes_to(isqrt(limit)):
        for n in range(p * p, limit + 1, p * p):
            if s[n] is None:
                s[n] = p * p
    return s


def _odd_square_by_primes(n, primes):
    """The least odd prime square dividing n > 0, by trial division by primes.

    primes holds every odd prime up to the square root of n.  Each prime is
    divided out once; the cofactor left when p^2 exceeds it is 1 or a prime.
    """
    m = n >> (n & -n).bit_length() - 1
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return p * p
    return None


def test_odd_square_divisor_to_the_cube_root_matches_trial_division_to_the_root():
    n_max, t_max = 2 * 10 ** 5, 2 * 10 ** 4
    least = _least_odd_prime_squares_to(n_max)
    for n in range(-10, n_max + 1):
        assert odd_square_divisor(n) == least[abs(n)], n
    primes = _odd_primes_to(isqrt(t_max ** 2 + 16))
    for t in range(1, t_max + 1):
        n = t * t + 16
        assert odd_square_divisor(n) == _odd_square_by_primes(n, primes), t
    # the cofactor left past the cube root is a prime square, or a square of the smallest prime
    assert [odd_square_divisor(n) for n in (9, 25 * 7, 3 * 101 ** 2, 2 ** 5 * 997 ** 2,
                                            101 * 103, 5 ** 3)] == \
        [9, 25, 101 ** 2, 997 ** 2, None, 25]


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


@pytest.mark.parametrize("t", [12.9, 12.0, Fraction(12), "12", None])
def test_validate_rejects_a_non_integral_t(t):
    # t goes through operator.index: 12.9 is refused, not truncated to 12
    with pytest.raises(ParameterError, match="must be an integer"):
        validate_parameter(t)


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


def test_disc_ratio_and_formula_for_all_small_t():
    for t in valid_t(500):
        p = validate_parameter(t)
        assert p.disc_P == p.n * p.n * p.disc_K
        assert p.disc_K != 0
        # the family discriminant has the closed form 4*(t^2+16)^3
        assert p.disc_P == 4 * (t * t + 16) ** 3
