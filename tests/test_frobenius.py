"""Frobenius operators: powers, preimages, closures, F-purity, f-sequences.

Derived expectations carry their independent checks inline: preimages are
compared against brute-force monomial enumeration, closures against direct
power membership.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp import (FSequence, Ideal, fedder_f_pure, frobenius_closure,
                   frobenius_power, frobenius_preimage,
                   fseq_radical_stabilize, fseq_verify, is_frobenius_closed,
                   parse_ring)


class TestFrobeniusPower:
    def test_bracket_of_variables(self, R2xy):
        P = frobenius_power(Ideal(R2xy, ["x", "y"]), 2)
        assert P.equal(Ideal(R2xy, ["x^4", "y^4"]))

    def test_zero_ideal(self, R2xy):
        assert frobenius_power(Ideal(R2xy, []), 3).is_zero

    def test_binomial(self, R3xy):
        P = frobenius_power(Ideal(R3xy, ["x + y"]), 1)
        assert P.equal(Ideal(R3xy, ["x^3 + y^3"]))


class TestFrobeniusPreimage:
    def test_mixed_chain_step(self, R2xy):
        pre = frobenius_preimage(Ideal(R2xy, ["x", "y^4"]), 1)
        assert pre.equal(Ideal(R2xy, ["x", "y^2"]))

    def test_principal_square(self):
        R = parse_ring("F_2[x]")
        pre = frobenius_preimage(Ideal(R, ["x^2"]), 1)
        assert pre.equal(Ideal(R, ["x"]))
        # brute force: r^2 in (x^2) exactly when x | r, over monomials of
        # degree <= 4
        for a in range(5):
            r = R.monomial((a,))
            assert pre.contains(r) == Ideal(R, ["x^2"]).contains(r ** 2)

    def test_unit_ideal(self):
        R = parse_ring("F_2[x]")
        assert frobenius_preimage(Ideal(R, ["1"]), 2).is_unit

    def test_brute_force_agreement_nonmonomial(self, R2xy):
        J = Ideal(R2xy, ["x^2 + x*y^2"])
        pre = frobenius_preimage(J, 1)
        for ea, eb in itertools.product(range(4), repeat=2):
            for extra in (R2xy.zero(), R2xy.one()):
                r = R2xy.monomial((ea, eb)) + extra
                assert pre.contains(r) == J.contains(r.frobenius(1))


class TestFrobeniusClosure:
    def test_witness_in_quotient(self, cusp3):
        res = frobenius_closure(Ideal(cusp3, ["z"]), 3)
        assert res.closure.contains(cusp3.free().poly("x"))
        assert res.stabilized_at is not None and res.stabilized_at <= 2

    def test_monomial_ideal_closed_immediately(self, R2xy):
        res = frobenius_closure(Ideal(R2xy, ["x^2", "x*y"]), 2)
        assert res.stabilized_at == 0
        assert res.closure.equal(Ideal(R2xy, ["x^2", "x*y"]))

    def test_zero_ideal_closed(self, R2xy):
        assert is_frobenius_closed(Ideal(R2xy, []), 2) is True

    def test_closedness_answers(self, cusp3, R2xy):
        assert is_frobenius_closed(Ideal(cusp3, ["z"]), 3) is False
        assert is_frobenius_closed(Ideal(R2xy, ["x^4", "y^4"]), 3) is True
        assert is_frobenius_closed(Ideal(R2xy, ["1"]), 1) is True

    def test_closure_idempotent(self, cusp3):
        res = frobenius_closure(Ideal(cusp3, ["z"]), 3)
        again = frobenius_closure(res.closure, 3)
        assert again.closure.equal(res.closure)


class TestFedder:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hypersurface_family_not_f_pure(self, p):
        ring = parse_ring(f"F_{p}[x,y,z]/(x^{p} - y*z^{p})")
        assert not fedder_f_pure(ring).is_f_pure

    @pytest.mark.parametrize("p", [2, 3])
    def test_coordinate_cross_f_pure(self, p):
        ring = parse_ring(f"F_{p}[x,y]/(x*y)")
        rep = fedder_f_pure(ring)
        assert rep.is_f_pure
        assert rep.witness is not None
        # the witness multiplies the quotient ideal into its bracket power
        I = Ideal(ring.free(), ring.quotient)
        Ip = frobenius_power(I, 1)
        for g in I.gens:
            assert Ip.contains(rep.witness * g)
        m_p = frobenius_power(Ideal(ring.free(), ring.free().gens()), 1)
        assert not m_p.contains(rep.witness)

    def test_regular_ring_f_pure(self, R2xy):
        assert fedder_f_pure(R2xy).is_f_pure

    def test_point_off_the_variety_rejected(self):
        # x - 1 does not vanish at the origin, so the origin is not on V(I)
        ring = parse_ring("F_2[x,y]/(x - 1)")
        with pytest.raises(ValueError, match="not on V"):
            fedder_f_pure(ring)
        # the maximal ideal of the point (1, 0) does contain x - 1
        m = Ideal(ring.free(), ["x - 1", "y"])
        assert fedder_f_pure(ring, m).is_f_pure

    @pytest.mark.parametrize("gens", [["x*y"], ["1"], ["x"], ["x^2 + x + 1", "y"],
                                      ["x^2", "y"]])
    def test_non_point_maximal_ideal_rejected(self, gens):
        # m must be (x - a, y - b): not a proper subideal, not the unit
        # ideal, not a maximal ideal without an F_2-rational point
        ring = parse_ring("F_2[x,y]/(x*y)")
        with pytest.raises(ValueError, match="rational point"):
            fedder_f_pure(ring, Ideal(ring.free(), gens))

    def test_point_given_by_other_generators(self):
        # (x + y, y) is the origin written with a redundant-looking basis
        ring = parse_ring("F_2[x,y]/(x*y)")
        assert fedder_f_pure(ring, Ideal(ring.free(), ["x + y", "y"])).is_f_pure

    def test_colon_value_for_hypersurface(self):
        # (I^[2] : I) = (f) for the p = 2 hypersurface, and f lies inside
        # the bracket of the maximal ideal, which is the failure route
        ring = parse_ring("F_2[x,y,z]/(x^2 + y*z^2)")
        rep = fedder_f_pure(ring)
        f = ring.quotient[0]
        assert rep.colon.equal(Ideal(ring.free(), [f]))


class TestFSequences:
    def test_bracket_chain_verifies(self, R2xy):
        seq = FSequence.bracket_chain(Ideal(R2xy, ["x", "y"]), 4)
        assert fseq_verify(seq) == (True, None)

    def test_tower_chain_verifies(self, R2xy):
        terms = [Ideal(R2xy, ["x", f"y^{2 ** e}"]) for e in range(5)]
        assert fseq_verify(FSequence.explicit(R2xy, terms)) == (True, None)

    def test_constant_prime_verifies(self, R2xy):
        seq = FSequence.constant_chain(Ideal(R2xy, ["x"]), 4)
        assert fseq_verify(seq) == (True, None)

    def test_broken_chain_fails_at_zero(self, R2xy):
        # f^{-1}((x^3)) = (x^2) != (x)
        seq = FSequence.explicit(R2xy, [Ideal(R2xy, ["x"]), Ideal(R2xy, ["x^3"])])
        assert fseq_verify(seq) == (False, 0)

    def test_rule_extension(self, R2xy):
        seq = FSequence.bracket_chain(Ideal(R2xy, ["x", "y"]), 2)
        ext = seq.extended(4)
        assert len(ext) == 5
        assert ext.terms[4].equal(Ideal(R2xy, ["x^16", "y^16"]))

    def test_radical_of_bracket_chain(self, R2xy):
        seq = FSequence.bracket_chain(Ideal(R2xy, ["x", "y"]), 4)
        assert fseq_radical_stabilize(seq).equal(Ideal(R2xy, ["x", "y"]))

    def test_radical_of_tower_chain(self, R2xy):
        terms = [Ideal(R2xy, ["x", f"y^{2 ** e}"]) for e in range(5)]
        seq = FSequence.explicit(R2xy, terms)
        assert fseq_radical_stabilize(seq).equal(Ideal(R2xy, ["x", "y"]))

    def test_radical_of_constant_prime(self, R2xy):
        seq = FSequence.constant_chain(Ideal(R2xy, ["x"]), 3)
        assert fseq_radical_stabilize(seq).equal(Ideal(R2xy, ["x"]))

    def test_empty_prefix_is_rejected(self, R2xy):
        with pytest.raises(ValueError, match="at least one term"):
            fseq_radical_stabilize(FSequence.explicit(R2xy, []))

    def test_radical_agreement_is_checked(self, R2xy):
        # radicals agree along the chain, generator by generator
        seq = FSequence.bracket_chain(Ideal(R2xy, ["x^2", "y"]), 3)
        rad = fseq_radical_stabilize(seq)
        assert rad.equal(Ideal(R2xy, ["x", "y"]))


class TestInvariants:
    def test_preimage_of_power_contains(self, R2xy):
        for gens in (["x"], ["x^2", "y"], ["x*y"]):
            I = Ideal(R2xy, gens)
            for e in (1, 2):
                pre = frobenius_preimage(frobenius_power(I, e), e)
                assert pre.contains_ideal(I)
                # free rings are F-pure: equality holds
                assert Ideal(R2xy, I.gens).contains_ideal(pre)

    def test_bracket_distributes_over_sums(self, R3xy):
        J = Ideal(R3xy, ["x^2"])
        K = Ideal(R3xy, ["y", "x*y"])
        lhs = frobenius_power(J.plus(K), 1)
        rhs = frobenius_power(J, 1).plus(frobenius_power(K, 1))
        assert lhs.equal(rhs)

    def test_preimage_monotone(self, R2xy):
        J = Ideal(R2xy, ["x^2"])
        K = Ideal(R2xy, ["x^2", "y^2"])
        assert frobenius_preimage(K, 1).contains_ideal(frobenius_preimage(J, 1))


def _ideal_strategy(ring):
    mono = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    poly = st.dictionaries(mono, st.integers(1, ring.p - 1), min_size=1,
                           max_size=3).map(ring.from_dict)
    return st.lists(poly, min_size=1, max_size=3).map(
        lambda gens: Ideal(ring, gens))


PR2 = parse_ring("F_2[x,y]")
PR3 = parse_ring("F_3[x,y]")


@settings(max_examples=12, deadline=None)
@given(st.one_of(_ideal_strategy(PR2), _ideal_strategy(PR3)))
def test_preimage_sandwich(J):
    # f^{-1}(J)^[p] is inside J (definition), J inside f^{-1}(J) (j^p in J)
    pre = frobenius_preimage(J, 1)
    assert J.contains_ideal(frobenius_power(pre, 1))
    assert pre.contains_ideal(J)
