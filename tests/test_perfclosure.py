"""Perfect-closure truncations: root elements, contractions, spectra."""

import pytest

from charp import (Budget, FSequence, Ideal, PerfectClosureIdeal,
                   RootElement, Unresolved, extended_ideal_membership,
                   frobenius_closure, fseq_to_perfect_ideal, gamma_fseq,
                   Polynomial, parse_ring, parse_root,
                   prime_extension_check, principal_variable_obstruction,
                   root_equal, zero_closure_cyclic)


@pytest.fixture
def R1():
    return parse_ring("F_2[x]")


class TestRootElements:
    def test_canonicalization_strips_roots(self, R1):
        r = RootElement(R1, 1, R1.poly("x^2"))
        assert r.level == 0 and str(r.body) == "x"

    def test_square_root_of_square_is_identity(self, R1):
        assert root_equal(RootElement(R1, 1, R1.poly("x^2")),
                          RootElement(R1, 0, R1.poly("x")))

    def test_genuine_root_differs(self, R1):
        assert not root_equal(RootElement(R1, 1, R1.poly("x")),
                              RootElement(R1, 0, R1.poly("x")))

    def test_quotient_identity(self, cusp2):
        # (y*z^2)^(1/2) = x in R = F_2[x,y,z]/(x^2 + y*z^2)
        assert root_equal(RootElement(cusp2, 1, cusp2.free().poly("y*z^2")),
                          RootElement(cusp2, 0, cusp2.free().poly("x")))

    def test_equivalence_and_level_raising(self, R2xy):
        f = R2xy.poly("x + y^2")
        a = RootElement(R2xy, 1, f.frobenius(1))
        b = RootElement(R2xy, 0, f)
        c = RootElement(R2xy, 2, f.frobenius(2))
        assert root_equal(a, b) and root_equal(b, c) and root_equal(a, c)
        raised = RootElement(R2xy, a.level + 3, a.body.frobenius(3))
        assert root_equal(raised, b)

    def test_constant_body_is_level_zero(self, R2xy, monkeypatch):
        calls = []
        pth_root = Polynomial.pth_root

        def counted(self, e):
            calls.append(e)
            if len(calls) > 64:
                raise AssertionError("one p-th root per level")
            return pth_root(self, e)

        monkeypatch.setattr(Polynomial, "pth_root", counted)
        for body in ("1", "0"):
            r = RootElement(R2xy, 10 ** 12, body)
            assert r.level == 0 and r.body == R2xy.poly(body)
        # a non-constant body stops once it has no p-th root
        r = RootElement(R2xy, 10 ** 12, "x^8 + y^4")
        assert r.level == 10 ** 12 - 2 and r.body == R2xy.poly("x^2 + y")
        assert len(calls) == 3

    def test_parse_root_syntax(self, R2xy):
        r = parse_root("root(2, x + y)", R2xy)
        assert r.level == 2 and r.body == R2xy.poly("x + y")
        plain = parse_root("x*y", R2xy)
        assert plain.level == 0


class TestExtendedMembership:
    def test_closure_witness(self, cusp3):
        got = extended_ideal_membership(cusp3.free().poly("x"),
                                        Ideal(cusp3, ["z"]), 3)
        assert got is True

    def test_never_captured(self, R1):
        got = extended_ideal_membership(R1.poly("x"), Ideal(R1, ["x^2"]), 4)
        assert got is False

    def test_level_zero_membership(self, R2xy):
        I = Ideal(R2xy, ["x", "y^2"])
        assert extended_ideal_membership(R2xy.poly("x"), I, 2) is True

    def test_agrees_with_closure(self, R2xy):
        I = Ideal(R2xy, ["x^2", "x*y"])
        f = R2xy.poly("x + y")
        via = extended_ideal_membership(f, I, 4)
        assert via == frobenius_closure(I, 4).closure.contains(f)


class TestGamma:
    def test_level_zero_generators_give_bracket_chain(self, R2xy):
        rep = gamma_fseq(PerfectClosureIdeal(R2xy, ["x", "y"]), 3)
        want = FSequence.bracket_chain(Ideal(R2xy, ["x", "y"]), 3)
        assert rep.verified
        assert all(a.equal(b) for a, b in zip(rep.sequence.terms, want.terms))

    def test_root_tower_gives_mixed_chain(self, R2xy):
        J = PerfectClosureIdeal(R2xy, ["root(5, x)", "y"])
        rep = gamma_fseq(J, 3, lift_cap=6)
        assert rep.verified
        for e, term in enumerate(rep.sequence.terms):
            assert term.equal(Ideal(R2xy, ["x", f"y^{2 ** e}"]))

    def test_prime_tower_gives_constant_chain(self, R1):
        J = PerfectClosureIdeal(R1, ["root(5, x)"])
        rep = gamma_fseq(J, 3, lift_cap=6)
        assert all(t.equal(Ideal(R1, ["x"])) for t in rep.sequence.terms)

    def test_round_trip_on_prefixes(self, R2xy):
        for terms in ([Ideal(R2xy, [f"x^{2 ** e}", f"y^{2 ** e}"]) for e in range(4)],
                      [Ideal(R2xy, ["x", f"y^{2 ** e}"]) for e in range(4)]):
            seq = FSequence.explicit(R2xy, terms)
            J = fseq_to_perfect_ideal(seq)
            rep = gamma_fseq(J, seq.top_index, lift_cap=6)
            assert all(a.equal(b) for a, b in zip(rep.sequence.terms, seq.terms))

    def test_level_zero_term_is_the_closure(self, cusp3):
        # Gamma of the extension starts at the Frobenius closure
        J = PerfectClosureIdeal(cusp3, [(0, cusp3.free().poly("z"))])
        rep = gamma_fseq(J, 1, lift_cap=5)
        closure = frobenius_closure(Ideal(cusp3, ["z"]), 4).closure
        assert rep.sequence.terms[0].equal(closure)

    def test_lift_cap_exhaustion_raises(self, R1):
        with pytest.raises(Unresolved):
            gamma_fseq(PerfectClosureIdeal(R1, ["root(5, x)"]), 3, lift_cap=2)


class TestPrimeCheck:
    @pytest.mark.parametrize("gens", [[], ["x"], ["y"], ["x", "y"]])
    def test_monomial_primes_pass(self, R2xy, gens):
        P = Ideal(R2xy, gens)
        assert prime_extension_check(P, 3).passed

    def test_linear_prime_accepted(self, R3xy):
        P = Ideal(R3xy, ["x + y"])
        assert prime_extension_check(P, 2).passed

    def test_non_prime_rejected(self, R2xy):
        with pytest.raises(ValueError):
            prime_extension_check(Ideal(R2xy, ["x^2"]), 2)

    @pytest.mark.parametrize("gens", [["x + y", "2*x + 2*y"], ["x + 1"]])
    def test_dependent_or_affine_forms_rejected(self, R3xy, gens):
        # dependent linear forms are not independent generators, and x + 1
        # is not a form: neither is certified
        with pytest.raises(ValueError):
            prime_extension_check(Ideal(R3xy, gens), 2)

    def test_quotient_ring_rejected(self):
        R = parse_ring("F_2[x,y]/(1)")
        with pytest.raises(ValueError, match="free ring"):
            prime_extension_check(Ideal(R, ["x"]), 2)

    def test_certification_charges_the_budget(self, R3xy):
        P = Ideal(R3xy, ["x + y", "x + 2*y"])
        used = Budget()
        assert prime_extension_check(P, 1, used).passed
        assert used.used > 0


class TestObstruction:
    def test_all_levels_pass(self, R1):
        results = principal_variable_obstruction(R1, 4)
        assert results == [(e, True) for e in range(5)]

    def test_larger_characteristic(self):
        R = parse_ring("F_3[t]")
        results = principal_variable_obstruction(R, 3)
        assert all(ok for _, ok in results)


class TestZeroClosure:
    def test_level_zero_contains_witness(self, cusp3):
        zc = zero_closure_cyclic(Ideal(cusp3, ["z"]), 0, 4)
        assert zc.contains(cusp3.free().poly("x"))

    def test_level_one_contains_image(self, cusp3):
        zc = zero_closure_cyclic(Ideal(cusp3, ["z"]), 1, 4)
        assert zc.contains(cusp3.free().poly("x") ** 3)

    def test_f_pure_bracket_unchanged(self, R2xy):
        I = Ideal(R2xy, ["x^2", "x*y"])
        zc = zero_closure_cyclic(I, 1, 3)
        from charp import frobenius_power
        assert zc.equal(frobenius_power(I, 1))

    def test_zero_ideal(self, R2xy):
        zc = zero_closure_cyclic(Ideal(R2xy, []), 2, 3)
        assert zc.is_zero
