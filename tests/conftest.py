import itertools

import pytest

from charp import parse_ring


@pytest.fixture
def R2xy():
    return parse_ring("F_2[x,y]")


@pytest.fixture
def R2xyz():
    return parse_ring("F_2[x,y,z]")


@pytest.fixture
def R3xy():
    return parse_ring("F_3[x,y]")


@pytest.fixture
def cusp2():
    """The non-F-pure hypersurface quotient at p = 2."""
    return parse_ring("F_2[x,y,z]/(x^2 + y*z^2)")


@pytest.fixture
def cusp3():
    """The non-F-pure hypersurface quotient at p = 3."""
    return parse_ring("F_3[x,y,z]/(x^3 - y*z^3)")


@pytest.fixture
def dense_poly():
    """make(ring, rng, deg, terms): `terms` distinct monomials of degree
    <= deg with nonzero coefficients, for tests that need many-term
    polynomials (verify.random_poly mostly draws zero or a monomial)."""
    def make(ring, rng, deg, terms):
        monos = [e for e in itertools.product(range(deg + 1), repeat=ring.nvars)
                 if sum(e) <= deg]
        return ring.from_dict({m: rng.randrange(1, ring.p)
                               for m in rng.sample(monos, min(terms, len(monos)))})
    return make
