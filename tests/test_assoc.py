"""Associated primes: monomial Ass, point tests, unions along chains.

Ass and the minimal primes come from one irreducible decomposition; they
are cross-checked against the independent enumerations they replaced (every
monomial in the box below the lcm, every vertex cover of the generators),
the witnesses against brute-force monomial colons (enumerate (I : b)
directly from exponent arithmetic), and the components against the
Groebner intersection.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp import (Budget, BudgetExceeded, FSequence, Ideal,
                   InternalInvariantError, ass_monomial, frobenius_power,
                   intersect, maximal_in_ass, minimal_primes_monomial,
                   parse_ring, union_ass_fseq)
from charp import assoc
from charp.assoc import KIND_ASS, SIDE_BASE, SIDE_EXTENSION


def brute_monomial_colon_is_prime(ring, gens, b):
    """(I : b) for monomial data, straight from exponents; returns the
    variable set when the colon is a variable-generated prime, else None."""
    colon = [tuple(max(g - e, 0) for g, e in zip(m, b)) for m in gens]
    keep = []
    for m in sorted(colon):
        if not any(all(k[i] <= m[i] for i in range(len(m))) for k in keep):
            keep.append(m)
    vars_ = set()
    for m in keep:
        nz = [i for i, e in enumerate(m) if e]
        if len(nz) != 1 or m[nz[0]] != 1:
            return None
        vars_.add(nz[0])
    return frozenset(vars_) if keep else None


def box_ass(gens, n):
    """Ass(S/I) by visiting every monomial b below the lcm and keeping the
    colons (I : b) that are variable-generated primes."""
    bounds = [max(g[i] for g in gens) for i in range(n)]
    found = set()
    for b in itertools.product(*(range(t + 1) for t in bounds)):
        if not any(all(g[i] <= b[i] for i in range(n)) for g in gens):
            prime = brute_monomial_colon_is_prime(None, gens, b)
            if prime is not None:
                found.add(prime)
    return found


def cover_primes(gens, n):
    """Minimal primes as the minimal vertex covers: one supporting variable
    from each generator."""
    covers = {frozenset()}
    for g in gens:
        covers = {c | {i} for c in covers for i in range(n) if g[i]}
    return {c for c in covers if not any(k < c for k in covers)}


def random_gens(rng, n, emax=4, most=6):
    return [tuple(rng.randrange(emax + 1) for _ in range(n))
            for _ in range(rng.randrange(1, most + 1))]


def prime_sets(ring, names):
    return {frozenset(ring.var_index(v) for v in vs) for vs in names}


RINGS = [parse_ring(t) for t in ("F_2[x,y]", "F_3[x,y,z]", "F_2[x,y,z,w]")]


class TestAssMonomial:
    def test_primary_ideal(self, R2xy):
        recs = ass_monomial(Ideal(R2xy, ["x", "y^4"]))
        assert [r.variables for r in recs] == [("x", "y")]

    def test_two_planes(self, R2xyz):
        recs = ass_monomial(Ideal(R2xyz, ["x*y", "x*z"]))
        assert [r.variables for r in recs] == [("x",), ("y", "z")]
        # the witnesses really produce the primes
        gens = [(1, 1, 0), (1, 0, 1)]
        for r in recs:
            b = r.witness.lm()
            want = frozenset(R2xyz.var_index(v) for v in r.variables)
            assert brute_monomial_colon_is_prime(R2xyz, gens, b) == want

    def test_zero_ideal_is_prime(self, R2xy):
        recs = ass_monomial(Ideal(R2xy, []))
        assert [r.variables for r in recs] == [()]

    def test_unit_ideal_empty(self, R2xy):
        assert ass_monomial(Ideal(R2xy, ["1"])) == ()

    def test_rejects_non_monomial(self, R2xy):
        with pytest.raises(ValueError):
            ass_monomial(Ideal(R2xy, ["x + y"]))

    def test_brute_force_full_agreement(self):
        # the box oracle on seeded ideals in 2-4 variables, and every
        # witness through a brute-force colon
        rng = random.Random("assbrute")
        for k in range(240):
            ring = RINGS[k % 3]
            n = ring.nvars
            gens = [g for g in random_gens(rng, n, emax=4 if n < 4 else 3)
                    if any(g)]
            if not gens:
                continue
            recs = ass_monomial(Ideal(ring, [ring.monomial(g) for g in gens]))
            got = prime_sets(ring, (r.variables for r in recs))
            assert got == box_ass(gens, n), gens
            for r in recs:
                want = frozenset(ring.var_index(v) for v in r.variables)
                assert brute_monomial_colon_is_prime(
                    ring, gens, r.witness.lm()) == want, (gens, r)


class TestMaximalInAss:
    def test_embedded_at_origin(self, R2xy):
        assert maximal_in_ass(Ideal(R2xy, ["x^2", "x*y"]), (0, 0)) is True

    def test_hyperplane_has_depth(self, R2xy):
        assert maximal_in_ass(Ideal(R2xy, ["x"]), (0, 0)) is False

    def test_residue_field(self, R2xy):
        assert maximal_in_ass(Ideal(R2xy, ["x", "y"]), (0, 0)) is True

    def test_point_off_variety_rejected(self, R2xy):
        with pytest.raises(ValueError, match="not on"):
            maximal_in_ass(Ideal(R2xy, ["x"]), (1, 0))

    def test_translated_point(self, R3xy):
        # (x - 1, y) is maximal at the point (1, 0)
        I = Ideal(R3xy, ["x - 1", "y"])
        assert maximal_in_ass(I, (1, 0)) is True

    def test_matches_full_ass_at_origin(self, R2xy):
        rng = random.Random("origin")
        for _ in range(8):
            gens = [R2xy.monomial((rng.randrange(3), rng.randrange(3)))
                    for _ in range(2)]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            I = Ideal(R2xy, gens)
            via_point = maximal_in_ass(I, (0, 0))
            via_full = ("x", "y") in {r.variables for r in ass_monomial(I)}
            assert via_point == via_full


class TestUnionAlongChains:
    def test_bracket_chain_union(self, R2xy):
        seq = FSequence.bracket_chain(Ideal(R2xy, ["x", "y"]), 4)
        recs = union_ass_fseq(seq)
        base = [r for r in recs if r.side == SIDE_BASE]
        assert [(r.variables, r.first_seen) for r in base] == [(("x", "y"), 0)]

    def test_extension_side_tags(self, R2xy):
        seq = FSequence.bracket_chain(Ideal(R2xy, ["x", "y"]), 3)
        recs = union_ass_fseq(seq)
        ext = [r for r in recs if r.side == SIDE_EXTENSION]
        assert {r.kind for r in ext} == {"wAss", "sK"}
        # the identification never claims plain Ass over the extension
        assert all(r.kind != KIND_ASS for r in ext)
        # extension records mirror the base union exactly
        base_vars = {r.variables for r in recs if r.side == SIDE_BASE}
        assert {r.variables for r in ext} == base_vars

    def test_constant_chain_union(self, R2xyz):
        seq = FSequence.constant_chain(Ideal(R2xyz, ["x*y", "x*z"]), 2)
        recs = union_ass_fseq(seq)
        base = [r for r in recs if r.side == SIDE_BASE]
        assert [r.variables for r in base] == [("x",), ("y", "z")]

    def test_monotone_growth_on_random_chains(self, R2xyz):
        rng = random.Random("growth")
        for _ in range(10):
            gens = [R2xyz.monomial(tuple(rng.randrange(3) for _ in range(3)))
                    for _ in range(rng.randrange(1, 4))]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            seq = FSequence.bracket_chain(Ideal(R2xyz, gens), 3)
            prev = set()
            for J in seq.terms:
                cur = {r.variables for r in ass_monomial(J)}
                assert prev <= cur
                prev = cur


class TestMinimalPrimes:
    def test_two_planes(self, R2xyz):
        mins = minimal_primes_monomial(Ideal(R2xyz, ["x*y", "x*z"]))
        assert set(mins) == {("x",), ("y", "z")}

    def test_subset_of_ass(self, R2xyz):
        rng = random.Random("minass")
        for _ in range(8):
            gens = [R2xyz.monomial(tuple(rng.randrange(3) for _ in range(3)))
                    for _ in range(2)]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            I = Ideal(R2xyz, gens)
            assert set(minimal_primes_monomial(I)) <= \
                {r.variables for r in ass_monomial(I)}

    def test_match_the_covers(self):
        rng = random.Random("covers")
        for k in range(150):
            ring = RINGS[k % 3]
            gens = [g for g in random_gens(rng, ring.nvars) if any(g)]
            if not gens:
                continue
            I = Ideal(ring, [ring.monomial(g) for g in gens])
            got = minimal_primes_monomial(I)
            assert prime_sets(ring, got) == cover_primes(gens, ring.nvars)
            assert list(got) == sorted(got, key=lambda vs: (
                len(vs), [ring.var_index(v) for v in vs]))


class TestDecomposition:
    def test_components_intersect_back_to_the_ideal(self):
        rng = random.Random("intersect")
        for k in range(24):
            ring = RINGS[k % 3]
            gens = [g for g in random_gens(rng, ring.nvars, emax=3, most=4)
                    if any(g)]
            if not gens:
                continue
            I = Ideal(ring, [ring.monomial(g) for g in gens])
            _, _, comps = assoc._decompose(I, Budget())
            ideals = [Ideal(ring, [ring.monomial(
                [a if j == i else 0 for j in range(ring.nvars)])
                for i, a in enumerate(c) if a]) for c in comps]
            assert functools.reduce(intersect, ideals).equal(I), gens
            # irredundant: no component contains another
            for c, d in itertools.permutations(ideals, 2):
                assert not c.contains_ideal(d)

    def test_runaway_guard(self):
        # (x, y, z)^16: 153 generators and 136 components
        R = parse_ring("F_2[x,y,z]")
        I = Ideal(R, [R.monomial((a, b, 16 - a - b))
                      for a in range(17) for b in range(17 - a)])
        recs = ass_monomial(I, Budget(50_000))
        assert [r.variables for r in recs] == [("x", "y", "z")]

    def test_steps_charge_the_budget(self):
        R = parse_ring("F_2[x,y,z]")
        budget = Budget()
        ass_monomial(Ideal(R, ["x*y", "x*z"]), budget)
        assert budget.used == 3  # one step per (generator, component) pair
        with pytest.raises(BudgetExceeded):
            ass_monomial(Ideal(R, ["x*y", "x*z"]), Budget(2))

    def test_failed_witness_raises(self, R2xyz, monkeypatch):
        # a redundant component (x^2) gives the witness x*y*z, which lies
        # in I, and the colon certificate must catch it
        real = assoc._components
        monkeypatch.setattr(assoc, "_components",
                            lambda *a: real(*a) + [(2, 0, 0)])
        with pytest.raises(InternalInvariantError):
            ass_monomial(Ideal(R2xyz, ["x*y", "x*z"]))


_RING = parse_ring("F_2[x,y,z]")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=5),
       st.integers(1, 3))
def test_ass_is_stable_under_bracket_powers(gens, e):
    """Ass(S/I^[q]) = Ass(S/I): Frobenius is flat over a regular ring
    (Kunz 1969)."""
    I = Ideal(_RING, [_RING.monomial(g) for g in gens])
    assert ([r.variables for r in ass_monomial(frobenius_power(I, e))]
            == [r.variables for r in ass_monomial(I)])
