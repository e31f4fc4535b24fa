"""Groebner engine: bases, normal forms, colon, elimination, radicals.

Expected values for the derived cases were computed independently: the lex
eliminant below is the Sylvester resultant of the two generators (worked by
hand over F_2), memberships are re-checked against cofactor linear algebra,
and preimage/colon identities against brute-force enumeration.
"""

import random

import pytest

from charp import (Block, Budget, BudgetExceeded, GRevLex, Ideal, Lex, Ring,
                   colon_ideal, eliminate, groebner_basis, intersect,
                   parse_poly, parse_ring, radical_membership)
from charp.groebner import _nf_dict, _reducer_table
from charp.ring import POT, mono_div, mono_divides, mono_mul
from charp.verify import brute_force_member, random_poly

ORDERS = [Lex(), GRevLex(), Block(1), Block(2), POT(2, GRevLex()),
          POT(3, Lex())]


class TestBasis:
    def test_principal_is_its_own_basis(self, R2xy):
        I = Ideal(R2xy, ["x"])
        assert [str(g) for g in I.groebner_basis()] == ["x"]

    def test_lex_eliminant_is_the_resultant(self, R2xy):
        # Res_x(x^2+y, x*y+1) = y^3 + 1 over F_2 (Sylvester determinant)
        I = Ideal(R2xy, ["x^2 + y", "x*y + 1"])
        basis = groebner_basis(I, Lex())
        strs = [str(g) for g in basis]
        assert "y^3 + 1" in strs
        assert brute_force_member(parse_poly("y^3 + 1", R2xy), I.gens, 4)

    def test_zero_ideal(self, R2xy):
        assert Ideal(R2xy, []).groebner_basis() == ()

    def test_deterministic_repeat(self, R2xyz):
        gens = ["x^2*y + z", "y^2 + x*z", "x*y*z + z^2"]
        a = Ideal(R2xyz, gens).groebner_basis()
        b = Ideal(R2xyz, gens).groebner_basis()
        assert tuple(map(str, a)) == tuple(map(str, b))

    def test_budget_exceeded_is_distinguished(self, R2xyz):
        I = Ideal(R2xyz, ["x^2*y + z", "y^2*z + x", "x*z^2 + y"])
        with pytest.raises(BudgetExceeded):
            I.groebner_basis(Budget(3))


class TestNormalForm:
    def test_membership(self, R2xy):
        I = Ideal(R2xy, ["x"])
        assert I.normal_form(parse_poly("x^2", R2xy)).is_zero

    def test_remainder(self, R2xy):
        I = Ideal(R2xy, ["x"])
        assert str(I.normal_form(parse_poly("x + 1", R2xy))) == "1"

    def test_closure_witness_membership(self, cusp2):
        # x^2 = y*z^2 falls inside (z^2) once the quotient relation is added
        I = Ideal(cusp2, ["z^2"])
        assert I.normal_form(cusp2.free().poly("x^2")).is_zero


class TestIdealEquality:
    def test_reordered_generators(self, R2xy):
        assert Ideal(R2xy, ["x", "y"]).equal(Ideal(R2xy, ["y", "x + y"]))

    def test_strict_containment(self, R2xy):
        assert not Ideal(R2xy, ["x"]).equal(Ideal(R2xy, ["x^2"]))

    def test_char_two_square_identity(self, R2xy):
        assert Ideal(R2xy, ["(x+y)^2", "x^2"]).equal(Ideal(R2xy, ["x^2", "y^2"]))

    def test_independent_of_the_monomial_order(self, R2xy):
        # the same reduced basis, listed in a different order under each
        gens = ["x^2 + y", "x*y + y^2"]
        grevlex, lex = Ideal(R2xy, gens), Ideal(R2xy.with_order(Lex()), gens)
        assert grevlex.equal(lex) and lex.equal(grevlex)
        assert grevlex == lex
        assert not lex.equal(Ideal(R2xy, ["x^2 + y"]))


class TestColon:
    def test_hypersurface_square(self, R2xyz):
        f = "x^2 + y*z^2"
        C = colon_ideal(Ideal(R2xyz, ["x^4 + y^2*z^4"]), Ideal(R2xyz, [f]))
        assert C.equal(Ideal(R2xyz, [f]))

    def test_two_planes(self, R2xyz):
        C = colon_ideal(Ideal(R2xyz, ["x*y", "x*z"]), Ideal(R2xyz, ["x"]))
        assert C.equal(Ideal(R2xyz, ["y", "z"]))

    def test_colon_by_unit(self, R2xy):
        I = Ideal(R2xy, ["x^2", "x*y"])
        assert colon_ideal(I, Ideal(R2xy, ["1"])).equal(I)

    def test_colon_by_zero_rejected(self, R2xy):
        with pytest.raises(ValueError):
            colon_ideal(Ideal(R2xy, ["x"]), Ideal(R2xy, []))

    def test_soundness_on_random_monomials(self, R2xyz):
        rng = random.Random("colon")
        for _ in range(10):
            gens = [R2xyz.monomial(tuple(rng.randrange(3) for _ in range(3)))
                    for _ in range(2)]
            gens = [g for g in gens if g and not g.is_constant]
            if not gens:
                continue
            I = Ideal(R2xyz, gens)
            g = R2xyz.monomial((1, 1, 0))
            C = colon_ideal(I, Ideal(R2xyz, [g]))
            for c in C.gens:
                assert I.contains(c * g)
            assert_times_colon_is_intersection(I, g, C)

    @pytest.mark.parametrize("ring_text", [
        "F_2[x,y,z]", "F_3[x,y]", "F_5[x,y,z]", "F_2[x,y,z]/(x^2 + y*z^2)",
        "F_3[x,y]/(x*y)",
    ])
    def test_times_colon_is_intersection(self, ring_text, dense_poly):
        # g*(I : g) = I cap (g), the second side by the tag-variable route;
        # g divides one generator of I, so the colon is larger than I
        ring = parse_ring(ring_text)
        free = ring.free()
        rng = random.Random(f"colon-meet/{ring_text}")
        for _ in range(6):
            u, v, w, g = (dense_poly(free, rng, d, t)
                          for d, t in ((1, 2), (2, 3), (2, 3), (1, 2)))
            I = Ideal(ring, [u * v, g * w])
            C = colon_ideal(I, Ideal(ring, [g]))
            assert_times_colon_is_intersection(I, g, C)


def assert_times_colon_is_intersection(I, g, C):
    free = I.ring.free()
    product = Ideal(free, [g * c for c in C.lifted_gens()])
    meet = intersect(Ideal(free, I.lifted_gens()), Ideal(free, [g]))
    assert product.equal(meet), f"{I!r} : {g}"


class TestEliminate:
    def test_free_variable_leaves_nothing(self, R2xy):
        E = eliminate(Ideal(R2xy, ["x + y^2"]), 1)
        assert E.is_zero

    def test_linear_combination_survives(self, R3xy):
        E = eliminate(Ideal(R3xy, ["x - y", "x + y"]), 1)
        assert E.equal(Ideal(R3xy, ["y"]))

    def test_empty_block(self, R2xy):
        E = eliminate(Ideal(R2xy, ["x"]), 0)
        assert E.equal(Ideal(R2xy, ["x"]))


class TestRadicalMembership:
    def test_nilpotent(self, R2xy):
        assert radical_membership(R2xy.var("x"), Ideal(R2xy, ["x^8"]))

    def test_not_in_radical(self, R2xy):
        assert not radical_membership(R2xy.var("y"), Ideal(R2xy, ["x^8"]))

    def test_char_two_fourth_power(self, R2xy):
        # (x+y)^4 = x^4 + y^4 lands in (x^2, y^4)
        I = Ideal(R2xy, ["x^2", "y^4"])
        assert radical_membership(parse_poly("x + y", R2xy), I)


class TestIntersect:
    def test_principal_intersection(self, R2xy):
        got = intersect(Ideal(R2xy, ["x"]), Ideal(R2xy, ["y"]))
        assert got.equal(Ideal(R2xy, ["x*y"]))

    def test_nested(self, R2xy):
        got = intersect(Ideal(R2xy, ["x"]), Ideal(R2xy, ["x^2"]))
        assert got.equal(Ideal(R2xy, ["x^2"]))


class TestMembershipOracle:
    def test_agrees_with_cofactor_search(self, R2xyz):
        rng = random.Random("oracle")
        for i in range(30):
            gens = [random_poly(R2xyz, rng, max_deg=3) for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            I = Ideal(R2xyz, gens)
            if i % 2 == 0:
                f = sum((random_poly(R2xyz, rng, max_deg=2) * g for g in gens),
                        R2xyz.zero())
            else:
                f = random_poly(R2xyz, rng, max_deg=3)
            engine = I.contains(f)
            brute = any(brute_force_member(f, gens, cap) for cap in (6, 9))
            if brute:
                assert engine, f"brute found cofactors, engine said no: {f}"
            else:
                assert not engine, f"engine claims membership unseen by brute: {f}"


# ---------------------------------------------------------------------------
# heap division against a max-scan reference

def _maxscan_nf(work, reducers, ring, budget):
    """Reference division: rescan every pending term for the largest one
    under `key` at every step."""
    p = ring.p
    key = ring.order.key
    slots = ring.order.slots
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for blm, bterms in reducers.get(m[:slots], ()):
            if mono_divides(blm, m):
                break
        else:
            rem[m] = c
            continue
        budget.charge()
        shift = mono_div(m, blm)
        for bm, bc in bterms:
            if bm == blm:
                continue
            mm = mono_mul(bm, shift)
            nc = (work.get(mm, 0) - c * bc) % p
            if nc:
                work[mm] = nc
            else:
                work.pop(mm, None)
    return rem


def _order_ring(order, p=5):
    names = ("x", "y", "z")
    if order.slots:
        names = ("e0", "e1") + names
    return Ring(p, names, order)


def _random_mono(order, rng, top=4):
    exps = tuple(rng.randrange(top) for _ in range(3))
    if order.slots:
        i = rng.randrange(order.rank)
        return (i, order.rank - i) + exps
    return exps


def _random_terms(order, rng, p, count):
    return {_random_mono(order, rng): rng.randrange(1, p)
            for _ in range(count)}


def _monic_reducer(terms, order, p):
    """(lm, terms) with terms sorted descending under `key`, lc one."""
    items = sorted(terms.items(), key=lambda mc: order.key(mc[0]),
                   reverse=True)
    inv = pow(items[0][1], -1, p)
    return items[0][0], tuple((m, c * inv % p) for m, c in items)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
class TestHeapDivision:
    def test_matches_max_scan_division(self, order):
        p = 5
        ring = _order_ring(order, p)
        rng = random.Random(f"heapdiv-{order.name}")
        steps = 0
        for _ in range(40):
            basis = [_monic_reducer(_random_terms(order, rng, p, rng.randrange(1, 5)),
                                    order, p)
                     for _ in range(rng.randrange(1, 5))]
            reducers = _reducer_table(basis, order.slots)
            work = _random_terms(order, rng, p, rng.randrange(1, 9))
            heap_budget, scan_budget = Budget(10 ** 6), Budget(10 ** 6)
            got = _nf_dict(dict(work), reducers, ring, heap_budget)
            want = _maxscan_nf(dict(work), reducers, ring, scan_budget)
            assert got == want
            assert heap_budget.used == scan_budget.used
            # the remainder comes out largest term first
            assert list(got) == sorted(got, key=order.key, reverse=True)
            steps += heap_budget.used
        assert steps > 0

    def test_heap_key_sorts_descending_by_key(self, order):
        rng = random.Random(f"heapkey-{order.name}")
        for _ in range(20):
            monos = list({_random_mono(order, rng, top=5) for _ in range(30)})
            assert (sorted(monos, key=order.heap_key)
                    == sorted(monos, key=order.key, reverse=True))
