import pytest
import sympy
from sympy.polys.matrices import DomainMatrix


@pytest.fixture(scope="session")
def quartic_disc():
    """Discriminant of a monic quartic given ascending (c0, c1, c2, c3, 1).

    Built once from sympy's discriminant of the generic monic quartic, so
    it shares no step with the library, which has no discriminant formula.
    """
    x, *c = sympy.symbols("x c0:4")
    generic = sympy.discriminant(x ** 4 + c[3] * x ** 3 + c[2] * x ** 2 + c[1] * x + c[0], x)
    disc = sympy.lambdify(c, sympy.expand(generic), modules=[])

    def quartic_disc(coeffs):
        assert len(coeffs) == 5 and coeffs[4] == 1, coeffs
        return disc(*coeffs[:4])

    return quartic_disc


@pytest.fixture(scope="session")
def char_poly():
    """Ascending coefficients (c0, c1, c2, c3, 1) of det(xI - M) for an integer matrix M.

    sympy's exact characteristic polynomial over ZZ (the one behind
    `Matrix.charpoly`), so it shares no step with the library.
    """
    return lambda m: tuple(reversed(DomainMatrix.from_list(m, sympy.ZZ).charpoly()))
