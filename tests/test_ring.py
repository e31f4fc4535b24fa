"""Base arithmetic: parsing, canonical forms, orders, Frobenius, roots."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp import (Block, ExponentOverflow, GRevLex, Lex, ParseError,
                   parse_poly, parse_ring)
from charp.parse import parse_matrix, parse_roots, parse_terms
from charp.ring import Ring


def poly_strategy(ring, max_deg=3, max_terms=4):
    mono = st.tuples(*[st.integers(0, max_deg)] * ring.nvars)
    return st.dictionaries(mono, st.integers(0, ring.p - 1),
                           max_size=max_terms).map(ring.from_dict)


R2 = parse_ring("F_2[x,y]")
R3 = parse_ring("F_3[x,y,z]")
R5 = parse_ring("F_5[a,b]")


class TestParsing:
    def test_plain_ring(self):
        R = parse_ring("F_2[x,y]")
        assert R.p == 2 and R.variables == ("x", "y") and not R.is_quotient

    def test_quotient_ring(self):
        R = parse_ring("F_3[x,y,z]/(x^3 - y*z^3)")
        assert R.is_quotient
        assert len(R.quotient) == 1
        # -1 = 2 in F_3
        assert str(R.quotient[0]) in ("2*y*z^3 + x^3", "x^3 + 2*y*z^3")

    def test_nonprime_characteristic(self):
        with pytest.raises(ParseError, match="not prime"):
            parse_ring("F_4[x]")

    def test_duplicate_variables(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ring("F_2[x,x]")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_poly("x + w", R2)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_poly("x^-2", R2)

    def test_list_productions(self):
        x, y = R2.gens()
        zero = R2.zero()
        assert parse_matrix("[x, 0; 0, y^2]", R2) == [[x, zero], [zero, y ** 2]]
        assert parse_matrix(" [ x*y ] ", R2) == [[x * y]]
        assert parse_roots("(root(2, x + y), y, root( 0 ,x))", R2) == \
            [(2, x + y), (0, y), (0, x)]
        assert parse_roots("()", R2) == []
        assert parse_terms("(x, 0);(y);()", R2) == [[x], [y], []]

    def test_root_is_not_a_variable_call(self):
        R = parse_ring("F_2[root,x]")
        root, x = R.gens()
        assert parse_roots("(root(1, root*x), root)", R) == \
            [(1, root * x), (0, root)]

    @pytest.mark.parametrize("parse, text, pos", [
        (parse_matrix, "[x, y; x]", 8), (parse_matrix, "[x;]", 3),
        (parse_matrix, "x, y", 0), (parse_roots, "(root(-1, x))", 6),
        (parse_roots, "(root(1, x), )", 13), (parse_terms, "(x);", 4),
        (parse_terms, "(x),(y)", 3)])
    def test_list_errors_carry_positions(self, parse, text, pos):
        with pytest.raises(ParseError) as info:
            parse(text, R2)
        assert info.value.pos == pos and info.value.text == text

    def test_error_carries_position(self):
        try:
            parse_poly("x + ?", R2)
        except ParseError as exc:
            assert exc.pos == 4
        else:
            pytest.fail("no error raised")

    def test_simple_poly(self):
        f = parse_poly("x^2 + y*z^2", R3)
        assert len(f.terms) == 2

    def test_coefficient_reduction(self):
        assert parse_poly("2*x", R2).is_zero

    def test_char_two_square(self):
        assert parse_poly("(x+y)^2", R2) == parse_poly("x^2 + y^2", R2)

    def test_unicode_minus(self):
        assert parse_poly("x − y", R3) == parse_poly("x - y", R3)

    def test_unary_minus(self):
        assert parse_poly("-x + y", R3) == parse_poly("y - x", R3)


class TestOrders:
    def test_grevlex_total_degree_first(self):
        f = parse_poly("x^2 + y*z^2", R3)
        assert f.lm() == (0, 1, 2)  # degree 3 beats degree 2

    def test_lex(self):
        RL = Ring(3, ("x", "y", "z"), Lex())
        f = parse_poly("x^2 + y*z^2", RL)
        assert f.lm() == (2, 0, 0)

    def test_block_order_separates(self):
        RB = Ring(2, ("x", "y"), Block(1))
        f = parse_poly("x + y^5", RB)
        assert f.lm() == (1, 0)  # anything with x beats anything without

    def test_one_is_minimal(self):
        for order in (Lex(), GRevLex(), Block(1)):
            zero = (0, 0)
            assert all(order.key(zero) <= order.key(m)
                       for m in [(1, 0), (0, 1), (2, 3)])


class TestArithmetic:
    def test_print_matches_grammar(self):
        f = parse_poly("x^2 + 2*x*y + 1", R3)
        assert str(f) == "x^2 + 2*x*y + 1"

    def test_frobenius_scales_exponents(self):
        f = parse_poly("x^2 + y*z^2", R3)
        assert f.frobenius(1) == parse_poly("x^6 + y^3*z^6", R3)

    def test_frobenius_matches_power(self):
        f = parse_poly("x^2 + y*z^2", R3)
        assert f.frobenius(1) == f ** 3

    def test_frobenius_zero(self):
        assert R3.zero().frobenius(2).is_zero

    def test_freshman_dream(self):
        f = parse_poly("x + y", R2)
        assert f.frobenius(1) == parse_poly("x^2 + y^2", R2)

    def test_exponent_overflow_guard(self):
        f = parse_poly("x^1000000", R2)
        with pytest.raises(ExponentOverflow):
            f.frobenius(50)

    def test_huge_frobenius_level(self):
        # a constant is fixed at every level; any other polynomial passes
        # the guard at once, without forming p^e
        for c in (R2.zero(), R2.one()):
            assert c.frobenius(10 ** 9) is c
        start = time.perf_counter()
        with pytest.raises(ExponentOverflow,
                           match=r"exponent 1\*2\^1000000000 exceeds guard"):
            parse_poly("x + 1", R2).frobenius(10 ** 9)
        assert time.perf_counter() - start < 1.0

    def test_pth_root_monomial(self):
        x = R2.var("x")
        assert (x ** 2).pth_root(1) == x

    def test_pth_root_absent(self):
        assert R2.var("x").pth_root(1) is None

    def test_pth_root_spec_example(self):
        R = parse_ring("F_2[x,y,z]")
        f = parse_poly("x^4 + y^2*z^4", R)
        root = f.pth_root(1)
        assert root == parse_poly("x^2 + y*z^2", R)
        assert root.frobenius(1) == f

    def test_pth_root_rejected_on_quotients(self):
        Q = parse_ring("F_2[x,y]/(x*y)")
        with pytest.raises(ValueError):
            Q.one().pth_root(1)

    def test_shift_moves_point_to_origin(self):
        R = parse_ring("F_3[x,y]")
        f = parse_poly("x^2 + y", R)
        g = f.shifted((1, 2))
        assert g.evaluate((0, 0)) == f.evaluate((1, 2))

    def test_evaluate(self):
        f = parse_poly("x^2 + y", R3)
        assert f.evaluate((2, 1, 0)) == (4 + 1) % 3


@settings(max_examples=60, deadline=None)
@given(poly_strategy(R3))
def test_print_parse_roundtrip(f):
    assert parse_poly(str(f), R3) == f


@settings(max_examples=60, deadline=None)
@given(poly_strategy(R5))
def test_roundtrip_larger_field(f):
    assert parse_poly(str(f), R5) == f


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R3), poly_strategy(R3), st.integers(1, 2))
def test_frobenius_additive(f, g, e):
    assert (f + g).frobenius(e) == f.frobenius(e) + g.frobenius(e)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R2), st.integers(1, 2))
def test_root_undoes_power(f, e):
    assert f.frobenius(e).pth_root(e) == f


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R5))
def test_additive_inverse_cancels(f):
    assert (f + (-f)).terms == ()


@settings(max_examples=40, deadline=None)
@given(poly_strategy(R5))
def test_coefficients_always_reduced(f):
    assert all(0 < c < R5.p for _, c in f.terms)
    keys = [R5.order.key(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("ring", [R2, R3, R5, R3.with_order(Lex())],
                         ids=["F2", "F3", "F5", "F3-lex"])
def test_constant_factor_is_scaling(ring, dense_poly):
    rng = random.Random(f"const-factor/{ring!r}/{ring.order.name}")
    for _ in range(20):
        f = dense_poly(ring, rng, 3, rng.randrange(1, 8))
        c = rng.randrange(-ring.p, 2 * ring.p)
        assert (f * ring.one()).terms == f.terms
        assert (ring.one() * f).terms == f.terms
        assert (f * ring.const(c)).terms == (f * c).terms
        assert (ring.const(c) * f).terms == (c * f).terms
        assert (f * ring.zero()).is_zero and (ring.zero() * f).is_zero
