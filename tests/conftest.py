import itertools
import os
import pathlib

import pytest

import charp
from charp import parse_ring


@pytest.fixture
def subprocess_env():
    """os.environ with the directory that holds the imported charp package
    put first on PYTHONPATH, so a child interpreter imports the same charp
    without an install."""
    env = dict(os.environ)
    package_root = str(pathlib.Path(charp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


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
def depth_repro():
    """J = (x, y) ∩ (x^2, y, z + 1) ∩ the six maximal ideals of the F_2
    points off the z-axis, by its reduced basis over F_2[x,y,z].  Every
    linear form vanishes at one of those points, so none is regular on S/J,
    but z is regular on S_m/J_m = S_m/(x, y): depth 1 at the origin."""
    return ("(y^2 + y, y*z^2 + y*z, x*z^2 + x*z, x^2*z + x^2 + x*z + x, "
            "x^2*y + x*y, x^3 + x^2)")


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
