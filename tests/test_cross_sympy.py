"""Cross-validation against an independent engine.  sympy implements its
own Buchberger over GF(p); reduced bases are unique per (ideal, order), so
the two engines must emit identical sets.  Colons, intersections and
eliminations are compared as ideals."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from charp import (Ideal, Lex, colon_ideal, eliminate, groebner_basis,
                   intersect, parse_ring)
from charp.verify import random_poly


def to_sympy(poly, gens):
    expr = 0
    for exps, c in poly.terms:
        term = sympy.Integer(c)
        for g, e in zip(gens, exps):
            if e:
                term *= g ** e
        expr += term
    return expr


def from_sympy_basis(gb, ring, gens):
    out = set()
    for expr in gb.exprs:
        p = sympy.Poly(expr, *gens, modulus=ring.p)
        d = {}
        for exps, c in p.terms():
            d[tuple(int(e) for e in exps)] = int(c) % ring.p
        out.add(ring.from_dict(d).monic())
    return out


def compare(ring, gens_text, order_name):
    I = Ideal(ring, gens_text)
    if not I.gens:
        return
    sym_gens = sympy.symbols(" ".join(ring.variables))
    if ring.nvars == 1:
        sym_gens = (sym_gens,)
    order = Lex() if order_name == "lex" else None
    # polynomial equality and hashing ignore the ambient term order, so the
    # two bases compare as sets regardless of which ring carries them
    mine = set(groebner_basis(I, order))
    theirs = sympy.groebner([to_sympy(g, sym_gens) for g in I.gens],
                            *sym_gens, modulus=ring.p, order=order_name)
    assert mine == from_sympy_basis(theirs, ring.free(), sym_gens), \
        f"{gens_text} over {ring!r} ({order_name})"


def test_worked_examples():
    R = parse_ring("F_2[x,y]")
    compare(R, ["x^2 + y", "x*y + 1"], "lex")
    compare(R, ["x^2 + y", "x*y + 1"], "grevlex")
    S = parse_ring("F_3[x,y,z]")
    compare(S, ["x^2 - y*z", "x*y - z^2", "x*z - y^2"], "grevlex")


@pytest.mark.parametrize("ring_text,order_name", [
    ("F_2[x,y]", "grevlex"), ("F_2[x,y,z]", "grevlex"),
    ("F_3[x,y]", "grevlex"), ("F_5[x,y]", "grevlex"),
    ("F_2[x,y]", "lex"), ("F_3[x,y]", "lex"),
])
def test_random_ideals_match(ring_text, order_name):
    ring = parse_ring(ring_text)
    rng = random.Random(f"cross/{ring_text}/{order_name}")
    for _ in range(6):
        gens = [random_poly(ring, rng, max_deg=3, max_terms=3)
                for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        compare(ring, gens, order_name)


# ---------------------------------------------------------------------------
# ideal operations: sympy's module-theoretic quotient and intersection, and
# the variable-free part of its lex basis for elimination

def to_charp_ideal(exprs, ring, gens):
    polys = []
    for expr in exprs:
        p = sympy.Poly(expr, *gens, modulus=ring.p)
        polys.append(ring.from_dict({tuple(int(e) for e in exps): int(c) % ring.p
                                     for exps, c in p.terms()}))
    return Ideal(ring, polys)


def random_pairs(ring_text, count, rng, dense_poly):
    """I = (u1*v1, u2*v2) and J = (u1, u2 or a random linear form), so that
    (I : J) is a proper ideal that each generator of J cuts down."""
    ring = parse_ring(ring_text)
    sym_gens = sympy.symbols(" ".join(ring.variables))
    out = []
    for _ in range(count):
        u = [dense_poly(ring, rng, 1, 2) for _ in range(2)]
        v = [dense_poly(ring, rng, 2, 3) for _ in range(2)]
        I = Ideal(ring, [a * b for a, b in zip(u, v)])
        J = Ideal(ring, [u[0], rng.choice([u[1], dense_poly(ring, rng, 1, 2)])])
        out.append((ring, sym_gens, I, J))
    return out


def sympy_ideal(R, ideal, sym_gens):
    return R.ideal(*[to_sympy(g, sym_gens) for g in ideal.gens])


@pytest.mark.parametrize("ring_text", ["F_2[x,y,z]", "F_3[x,y]", "F_5[x,y,z]"])
def test_colon_and_intersection_match(ring_text, dense_poly):
    rng = random.Random(f"cross-colon/{ring_text}")
    for ring, sym_gens, I, J in random_pairs(ring_text, 5, rng, dense_poly):
        R = sympy.FF(ring.p).old_poly_ring(*sym_gens)
        sI, sJ = sympy_ideal(R, I, sym_gens), sympy_ideal(R, J, sym_gens)
        want = to_charp_ideal([R.to_sympy(g) for g in sI.quotient(sJ).gens],
                              ring, sym_gens)
        assert colon_ideal(I, J).equal(want), f"({I!r} : {J!r})"
        want = to_charp_ideal([R.to_sympy(g) for g in sI.intersect(sJ).gens],
                              ring, sym_gens)
        assert intersect(I, J).equal(want), f"{I!r} cap {J!r}"


@pytest.mark.parametrize("ring_text,k", [("F_2[x,y,z]", 1), ("F_3[x,y,z]", 2),
                                         ("F_5[x,y]", 1)])
def test_elimination_matches_the_lex_basis(ring_text, k, dense_poly):
    rng = random.Random(f"cross-elim/{ring_text}")
    for ring, sym_gens, I, _ in random_pairs(ring_text, 5, rng, dense_poly):
        lex = sympy.groebner([to_sympy(g, sym_gens) for g in I.gens],
                             *sym_gens, modulus=ring.p, order="lex")
        dropped = set(sym_gens[:k])
        kept = [e for e in lex.exprs if not (e.free_symbols & dropped)]
        want = to_charp_ideal(kept, ring, sym_gens)
        assert eliminate(I, k).equal(want), f"{I!r}, k = {k}"
