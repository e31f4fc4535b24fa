"""Groebner engine: bases, normal forms, colon, elimination, radicals.

Expected values for the derived cases were computed independently: the lex
eliminant below is the Sylvester resultant of the two generators (worked by
hand over F_2), memberships are re-checked against cofactor linear algebra,
and preimage/colon identities against brute-force enumeration.
"""

import json
import random
import runpy
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp import (Block, Budget, BudgetExceeded, ExponentOverflow, GRevLex,
                   Ideal, Lex, Polynomial, Ring, buchberger, colon_ideal,
                   eliminate, groebner, groebner_basis, intersect, parse_poly,
                   parse_ring, radical_membership)
from charp.cli import main
from charp.groebner import _FIELD_MARGIN, _packing, normal_form_poly
from charp.modules import (module_colon, module_groebner,
                           module_normal_form, span_colon)
from charp.ring import (EXPONENT_LIMIT, POT, mono_div, mono_divides,
                        mono_mul)
from charp.verify import brute_force_members, random_poly

ORDERS = [Lex(), GRevLex(), Block(1), Block(2), Block(5), POT(2, GRevLex()),
          POT(3, Lex())]


def brute_force_member(f, gens, cap):
    """The brute-force membership oracle at the one cap."""
    return next(brute_force_members(f, gens, (cap,)))


def _textbook_key(order, exps):
    """Each order in its textbook form, ascending, independent of its
    `weight_rows`: the reference that the derived `key` and the packing
    are checked against."""
    if isinstance(order, Lex):
        return exps
    if isinstance(order, GRevLex):
        return (sum(exps), tuple(-e for e in reversed(exps)))
    if isinstance(order, Block):
        head, tail = exps[: order.k], exps[order.k:]
        return (_textbook_key(GRevLex(), head), _textbook_key(GRevLex(), tail))
    assert isinstance(order, POT)
    return (-exps[0], _textbook_key(order.base, exps[2:]))


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


    @pytest.mark.parametrize("ring_text, ideal, by, steps, basis", [
        ("F_2[x,y,z]", "(x*y, y*z, x^3)", "x", 8, "(y, x^2)"),
        ("F_3[x,y,z]/(x^3 - y*z^3)", "(x*z, y)", "x + y", 12, "(z, y, x^2)"),
        ("F_5[x,y]", "(x^3*y + y^2 + x, x*y^3 + x^2 + y)", "x*y", 20,
         "(y^4 + 4*x^2*y + x*y + 4, x*y^3 + x^2 + y, x^3*y + y^2 + x,"
         " x^4 + 4*x*y^2 + x*y + 4)"),
    ])
    def test_single_generator_keeps_basis_and_steps(self, ring_text, ideal,
                                                    by, steps, basis):
        # one vector stacks to itself: the colon is the rank-1 module
        # colon, step for step
        ring = parse_ring(ring_text)
        free = ring.free()
        I = Ideal.parse(ring, ideal)
        g = parse_poly(by, free)
        budget, direct = Budget(), Budget()
        C = colon_ideal(I, Ideal(ring, [g]), budget)
        tails, _ = module_colon([(g,)], [(h,) for h in I.lifted_gens()], 1,
                                free, direct)
        assert budget.used == direct.used == steps
        assert C.gens == tuple(w[0].transported(ring) for w in tails)
        assert C.basis_str() == basis


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


def _colon_intersect(I, J):
    """I cap J as one module colon at rank 2: the r with r*(1, 1) in the
    span of the columns (g, 0), g in I, and (0, h), h in J."""
    ring = I.ring.free()
    zero, one = ring.zero(), ring.one()
    cols = [(g, zero) for g in I.lifted_gens()]
    cols += [(zero, h.transported(ring)) for h in J.lifted_gens()]
    colon, _ = module_colon([(one, one)], cols, 2, ring)
    return Ideal(ring, [w[0] for w in colon])


def _random_ideal(ring, rng, dense_poly):
    """One or two dense generators, or now and then the zero or the unit
    ideal."""
    roll = rng.random()
    if roll < 0.1:
        return Ideal(ring, [])
    if roll < 0.2:
        return Ideal(ring, [ring.one()])
    free = ring.free()
    return Ideal(ring, [dense_poly(free, rng, rng.randrange(1, 3),
                                   rng.randrange(1, 4))
                        for _ in range(rng.randrange(1, 3))])


class TestIntersect:
    def test_principal_intersection(self, R2xy):
        got = intersect(Ideal(R2xy, ["x"]), Ideal(R2xy, ["y"]))
        assert got.equal(Ideal(R2xy, ["x*y"]))

    def test_nested(self, R2xy):
        got = intersect(Ideal(R2xy, ["x"]), Ideal(R2xy, ["x^2"]))
        assert got.equal(Ideal(R2xy, ["x^2"]))

    @pytest.mark.parametrize("ring_text", [
        "F_2[x,y,z]", "F_3[x,y]", "F_5[x,y,z]", "F_2[x,y,z]/(x*y, y*z)",
        "F_3[x,y]/(x^2 - y^3)", "F_5[x,y]/(x*y)",
    ])
    def test_tag_variable_and_module_colon_routes_agree(self, ring_text,
                                                        dense_poly):
        ring = parse_ring(ring_text)
        rng = random.Random(f"intersect/{ring_text}")
        zero, unit = Ideal(ring, []), Ideal(ring, [ring.one()])
        pairs = [(zero, zero), (zero, unit), (unit, unit)]
        for _ in range(6):
            I = _random_ideal(ring, rng, dense_poly)
            pairs += [(I, _random_ideal(ring, rng, dense_poly)), (I, zero),
                      (unit, I)]
        for I, J in pairs:
            got = intersect(I, J).groebner_basis()
            assert got == _colon_intersect(I, J).groebner_basis(), (I, J)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("ring_text", ["F_2[x,y,z]", "F_3[x,y]",
                                           "F_5[x,y]"])
    def test_span_colon_is_the_meet_of_the_vector_colons(self, ring_text,
                                                         rank):
        # sparse monomial entries, so the colons of different vectors
        # differ (dense random columns span too much for that)
        ring = parse_ring(ring_text)
        rng = random.Random(f"span-colon/{ring_text}/{rank}")

        def term(low, high):
            if rng.random() < 0.3:
                return ring.zero()
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(low, high + 1)):
                exps[rng.randrange(ring.nvars)] += 1
            return ring.monomial(exps, rng.randrange(1, ring.p))

        for count in (0, 1, 2, 3, 2, 3):
            cols = [tuple(term(1, 3) for _ in range(rank))
                    for _ in range(rng.randrange(2, 4))]
            vectors = [tuple(term(0, 2) + term(0, 2) for _ in range(rank))
                       for _ in range(count)]
            want = Ideal(ring, [ring.one()])
            for v in vectors:
                colon, _ = module_colon([v], cols, rank, ring)
                part = Ideal(ring, [w[0] for w in colon])
                want = intersect(want, part)
            got = span_colon(vectors, cols, rank, ring)
            assert got.groebner_basis() == want.groebner_basis(), (cols,
                                                                   vectors)


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
            brute = any(brute_force_members(f, gens, (6, 9)))
            if brute:
                assert engine, f"brute found cofactors, engine said no: {f}"
            else:
                assert not engine, f"engine claims membership unseen by brute: {f}"

    def test_nested_caps_match_single_caps(self, R2xyz):
        # x^8 needs the cofactor x^7, y^11 the cofactor y^10
        x, y, _ = R2xyz.gens()
        caps = (6, 9, 12)
        for f, gens, want in ((x ** 8, [x], [False, True, True]),
                              (x ** 8 + y ** 11, [x, y], [False, False, True])):
            assert [brute_force_member(f, gens, cap) for cap in caps] == want
            assert list(brute_force_members(f, gens, caps)) == want


# ---------------------------------------------------------------------------
# heap division against a max-scan reference

def _maxscan_nf(work, basis, ring, budget):
    """Reference division on exponent tuples: rescan every pending term for
    the largest one under the textbook order at every step, and reduce it
    by the first monic reducer (lm, terms) whose leading monomial divides
    it."""
    p = ring.p
    key = partial(_textbook_key, ring.order)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for blm, bterms in basis:
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
    """(lm, terms) with terms sorted largest first, lc one."""
    items = sorted(terms.items(), key=lambda mc: _textbook_key(order, mc[0]),
                   reverse=True)
    inv = pow(items[0][1], -1, p)
    return items[0][0], tuple((m, c * inv % p) for m, c in items)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
class TestHeapDivision:
    def test_matches_max_scan_division(self, order):
        # through the packing boundary: normal_form_poly packs the reducers
        # and the dividend, divides, and unpacks the remainder
        p = 5
        ring = _order_ring(order, p)
        rng = random.Random(f"heapdiv-{order.name}")
        steps = 0
        for _ in range(40):
            basis = [_monic_reducer(_random_terms(order, rng, p, rng.randrange(1, 5)),
                                    order, p)
                     for _ in range(rng.randrange(1, 5))]
            work = _random_terms(order, rng, p, rng.randrange(1, 9))
            heap_budget, scan_budget = Budget(10 ** 6), Budget(10 ** 6)
            got = normal_form_poly(ring.from_dict(work),
                                   [Polynomial(ring, t) for _, t in basis],
                                   heap_budget)
            want = _maxscan_nf(dict(work), basis, ring, scan_budget)
            # equal remainders, both largest term first
            assert got.terms == tuple(want.items())
            assert heap_budget.used == scan_budget.used
            steps += heap_budget.used
        assert steps > 0


# ---------------------------------------------------------------------------
# packed terms

NVARS = 5   # exponent slots; POT orders spend two of them on the position
EXPONENTS = st.one_of(st.integers(0, 9),
                      st.integers(EXPONENT_LIMIT - 9, EXPONENT_LIMIT))


def _monos(order, exps=EXPONENTS):
    """Exponent tuples of length NVARS; module terms under POT."""
    if not order.slots:
        return st.tuples(*[exps] * NVARS)
    return st.tuples(st.integers(0, order.rank - 1),
                     *[exps] * (NVARS - 2)).map(
        lambda t: (t[0], order.rank - t[0]) + t[1:])


def _shifts(order, exps=EXPONENTS):
    """Monomials that multiply a term of `order`: no position under POT."""
    return st.tuples(*[exps] * (NVARS - order.slots)).map(
        lambda t: (0,) * order.slots + t)


def _packing_of(order, *monos, margin=_FIELD_MARGIN):
    top = max(max(m) for m in monos)
    return _packing(order, NVARS, top.bit_length() + margin)


def _by_order(test):
    """Run a property for each order, drawing its monomials in the test."""
    return pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)(
        settings(max_examples=40, deadline=None)(given(data=st.data())(test)))


class TestOrders:
    @_by_order
    def test_key_orders_as_the_textbook_key(self, order, data):
        a, b = data.draw(_monos(order)), data.draw(_monos(order))
        assert ((order.key(a) < order.key(b))
                == (_textbook_key(order, a) < _textbook_key(order, b)))
        assert (order.key(a) == order.key(b)) == (a == b)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
    def test_from_dict_sorts_descending_by_textbook_key(self, order):
        ring = _order_ring(order)
        rng = random.Random(f"fromdict-{order.name}")
        for _ in range(20):
            terms = _random_terms(order, rng, ring.p, 30)
            assert ([m for m, _ in ring.from_dict(terms).terms]
                    == sorted(terms, key=partial(_textbook_key, order),
                              reverse=True))


class TestPacking:
    @_by_order
    def test_decode_undoes_encode(self, order, data):
        a = data.draw(_monos(order))
        pk = _packing_of(order, a)
        assert pk.decode(pk.encode(a)) == a

    @_by_order
    def test_packing_is_additive(self, order, data):
        a, s = data.draw(_monos(order)), data.draw(_shifts(order))
        prod = mono_mul(a, s)
        pk = _packing_of(order, prod)
        assert pk.encode(a) + pk.encode(s) == pk.encode(prod)
        assert pk.decode(pk.check(pk.encode(a) + pk.encode(s))) == prod

    @_by_order
    def test_int_order_is_the_monomial_order(self, order, data):
        # also with no margin: the K fields alone must hold their row sums
        a, b = data.draw(_monos(order)), data.draw(_monos(order))
        for margin in (_FIELD_MARGIN, 0):
            pk = _packing_of(order, a, b, margin=margin)
            assert ((pk.encode(a) < pk.encode(b))
                    == (_textbook_key(order, a) < _textbook_key(order, b)))
            assert (pk.encode(a) == pk.encode(b)) == (a == b)

    @_by_order
    def test_guard_test_is_divisibility(self, order, data):
        a = data.draw(_monos(order))
        small = st.integers(0, 3)
        b = data.draw(st.one_of(_monos(order),
                                _shifts(order, small).map(
                                    lambda s: mono_mul(a, s))))
        pk = _packing_of(order, a, b)
        divides = not (pk.encode(b) - pk.encode(a)) & pk.guard
        assert divides == mono_divides(a, b)

    @_by_order
    def test_field_overflow_raises(self, order, data):
        bits = data.draw(st.integers(1, 6))
        exps = st.integers(0, (1 << bits) - 1)
        a, s = data.draw(_monos(order, exps)), data.draw(_shifts(order, exps))
        pk = _packing(order, NVARS, bits)
        prod = pk.encode(a) + pk.encode(s)
        if max(mono_mul(a, s)) < 1 << bits:
            assert pk.decode(pk.check(prod)) == mono_mul(a, s)
        else:
            with pytest.raises(ExponentOverflow):
                pk.check(prod)

    @pytest.mark.parametrize("gens, basis", [
        # reducing x^3 by x + y^3 reaches x*y^6 in the division loop
        (("x + y^3", "x^3"), ["y^9", "x + y^3"]),
        # the S-polynomial y*(x^2 + y^3) - x*(x*y) is y^4
        (("x^2 + y^3", "x*y"), ["y^4", "x*y", "x^2 + y^3"]),
    ])
    def test_engine_overflow_is_an_exponent_overflow(self, gens, basis,
                                                     monkeypatch, capsys):
        # with no field margin, the 2-bit fields sized for the inputs'
        # exponent 3 cannot hold the 4 or 6 these runs form
        ring = parse_ring("F_2[x,y]").with_order(Lex())
        polys = [ring.poly(g) for g in gens]
        assert [str(g) for g in buchberger(polys, ring)] == basis
        monkeypatch.setattr(groebner, "_FIELD_MARGIN", 0)
        with pytest.raises(ExponentOverflow):
            buchberger(polys, ring)
        code = main(["gb", "--ring", "F_2[x,y]", "--order", "lex",
                     "--ideal", "(" + ", ".join(gens) + ")"])
        out, err = capsys.readouterr()
        assert code == 5 and out == "" and err.startswith("input error:")

    def test_module_overflow_is_an_exponent_overflow(self, monkeypatch,
                                                     capsys):
        # the rank-2 counterpart: the S-vector of (y^3 + x) e_0 and
        # x^3 e_0 + y e_1 holds x^4 e_0, and so does the remainder of
        # x^3*y^3 e_0; the 2-bit fields sized for the exponent 3 and the
        # position slot 2 hold neither
        ring = parse_ring("F_2[x,y]")
        zero = ring.zero()
        vecs = [(ring.poly("y^3 + x"), zero),
                (ring.poly("x^3"), ring.poly("y"))]
        f = (ring.poly("x^3*y^3"), zero)
        assert [[str(e) for e in v] for v in module_groebner(vecs, 2, ring)] \
            == [["0", "y^4 + x*y"], ["y^3 + x", "0"], ["x^3", "y"]]
        assert [str(e) for e in module_normal_form(f, vecs[:1], 2, ring)] \
            == ["x^4", "0"]
        monkeypatch.setattr(groebner, "_FIELD_MARGIN", 0)
        with pytest.raises(ExponentOverflow):
            module_groebner(vecs, 2, ring)
        with pytest.raises(ExponentOverflow):
            module_normal_form(f, vecs[:1], 2, ring)
        code = main(["depth", "--ring", "F_2[x,y]",
                     "--matrix", "[y^3 + x, x^3; 0, y]"])
        out, err = capsys.readouterr()
        assert code == 5 and out == "" and err.startswith("input error:")

    def test_division_overflow_is_an_exponent_overflow(self, monkeypatch):
        # x^3 -> x^2*y^3 -> x*y^6 modulo x + y^3, in the division loop alone
        ring = parse_ring("F_2[x,y]").with_order(Lex())
        f, g = ring.poly("x^3"), ring.poly("x + y^3")
        assert str(normal_form_poly(f, [g])) == "y^9"
        monkeypatch.setattr(groebner, "_FIELD_MARGIN", 0)
        with pytest.raises(ExponentOverflow):
            normal_form_poly(f, [g])


# ---------------------------------------------------------------------------
# pinned answers and step counts

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, steps", [("cyclic-5", 338),
                                         ("katsura-5", 569)])
def test_classical_basis_and_step_count(name, steps):
    # the inputs and the sympy reference bases of the benchmark, read only
    ref = json.loads((ROOT / "perfbench" / "reference" / "classical.json")
                     .read_text())
    systems = runpy.run_path(str(ROOT / "perfbench" / "systems.py"))
    nvars, polys = systems["CLASSICAL"][name]()
    ring = Ring(ref["prime"], [f"v{i}" for i in range(nvars)])
    budget = Budget(10 ** 6)
    gb = buchberger([ring.from_dict(d) for d in polys], ring, budget)
    assert sorted(sorted([list(m), c] for m, c in g.terms)
                  for g in gb) == ref["bases"][name]
    assert budget.used == steps


def test_generators_sharing_a_leading_monomial_keep_their_step_count():
    # the inputs are taken in (lm, terms) order with terms compared as
    # exponent tuples; another tie order reaches the same basis in 6 steps
    ring = parse_ring("F_3[x,y,z]")
    gens = [ring.poly(g) for g in ("x^2 + 2*y^2 + x + 2*y",
                                   "x^2 + y*z + 2*z^2 + 2*y",
                                   "2*x^2 + x + 2*z")]
    budget = Budget()
    buchberger(gens, ring, budget)
    assert budget.used == 9


@pytest.mark.parametrize("order", [GRevLex(), Lex(), Block(1)],
                         ids=lambda o: o.name)
def test_bracket_power_basis_is_the_power_of_the_basis(order, dense_poly):
    # in(I^[q]) = in(I)^[q], so over F_2 the reduced basis of I^[q] is
    # {g^q : g in the reduced basis of I}; q = 2^40 needs wide fields.  The
    # Frobenius maps the whole run onto the run on I, step for step.
    ring = parse_ring("F_2[x,y,z]").with_order(order)
    rng = random.Random(f"bracket-basis/{order.name}")
    for _ in range(4):
        gens = [dense_poly(ring, rng, 2, rng.randrange(2, 5))
                for _ in range(3)]
        small, big = Budget(), Budget()
        gb = buchberger(gens, ring, small)
        gb_q = buchberger([g.frobenius(40) for g in gens], ring, big)
        assert [g.terms for g in gb_q] == [g.frobenius(40).terms for g in gb]
        assert big.used == small.used


@pytest.mark.parametrize("ring_text, order, rank", [
    ("F_3[x,y,z]", None, 1),
    ("F_2[x,y,z]/(x*y + z^2, y^3)", None, 1),
    ("F_5[x,y,z]", Block(1), 1),
    ("F_3[x,y,z]", None, 2),
    ("F_2[x,y,z]", Lex(), 2),
])
def test_reduced_basis_ignores_how_the_generators_are_given(ring_text, order,
                                                            rank, dense_poly):
    # permuted, rescaled, duplicated or zero generators span the same
    # ideal or module, so the reduced basis cannot move; nor can a last
    # generator that lies in the span of the others, whose whole signature
    # index is a syzygy.  Quotient generators are generators of the lift.
    ring = parse_ring(ring_text)
    free = ring.free() if order is None else ring.free().with_order(order)
    rng = random.Random(f"generator-order/{ring_text}/{rank}")
    zero = (free.zero(),) * rank

    def basis(vectors):
        if rank == 1:
            return [g.terms for g in buchberger([v[0] for v in vectors], free)]
        return [tuple(e.terms for e in v)
                for v in module_groebner(vectors, rank, free)]

    def lead(v):     # POT: the lowest nonzero position, then its lm
        i = next(i for i, e in enumerate(v) if e)
        return -i, free.order.key(v[i].lm())

    for _ in range(3):
        gens = [tuple(dense_poly(free, rng, 2, rng.randrange(2, 5))
                      for _ in range(rank))
                for _ in range(3 - len(ring.quotient))]
        gens += [(g.transported(free),) for g in ring.quotient]
        want = basis(gens)
        assert want and free.one().terms not in want     # a proper ideal
        permuted = rng.sample(gens, len(gens))
        units = [rng.randrange(1, ring.p) for _ in range(len(gens) + 1)]
        rescaled = [tuple(e * c for e in v) for v, c in zip(gens, units)]
        duplicated = gens + rng.sample(gens, 2)
        zeros = gens[:1] + [zero] + gens[1:] + [zero]
        top, other = max(gens, key=lead), rng.choice(gens)
        x = free.var(free.variables[0])
        inside = tuple(x * a + b * units[-1] for a, b in zip(top, other))
        assert lead(inside) > lead(top)    # so it is taken last
        for variant in (permuted, rescaled, duplicated, zeros,
                        gens + [inside], [inside] + gens):
            assert basis(variant) == want
