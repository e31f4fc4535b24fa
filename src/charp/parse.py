"""Text grammar for every input: rings, polynomials, ideal generator lists,
presentation matrices, root lists, f-sequence term lists and points.

    ring      :=  "F_" INT "[" name ("," name)* "]" ( "/" poly_list )?
    poly      :=  ["-"] term (("+" | "-") term)*
    term      :=  factor ("*" factor)*
    factor    :=  base ("^" INT)?
    base      :=  name | INT | "(" poly ")" | "-" base
    poly_list :=  "(" [poly ("," poly)*] ")"
    matrix    :=  "[" row (";" row)* "]"      (every row of one length)
    row       :=  poly ("," poly)*
    roots     :=  "(" [root ("," root)*] ")"
    root      :=  "root" "(" INT "," poly ")" | poly
    terms     :=  poly_list (";" poly_list)*
    point     :=  integer ("," integer)*
    integer   :=  ["-"] INT

Multiplication is always explicit (`y*z^3`, never `yz^3`), powers use `^`,
and printing round-trips through this grammar bit for bit.  A matrix is
row-major; `root(e, r)` stands for r^(1/p^e), and since no polynomial
starts with a name followed by "(" it never clashes with a variable.  The
unicode minus sign is accepted as a convenience alias for "-".  Every
error is a ParseError giving its position in the whole text.
"""

from __future__ import annotations

import re

from .ring import Ring, is_prime


class ParseError(ValueError):
    """Syntax or semantic error in input text, with its position."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.bare_message = message
        self.text = text
        self.pos = pos


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(),;\[\]/]|−)"
)


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unexpected character", text, pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group().replace("−", "-"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ring=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        if self.peek()[1] != value:
            self.fail(f"expected {value!r}")
        return self.next()

    def expect_kind(self, kind, what):
        if self.peek()[0] != kind:
            self.fail(f"expected {what}")
        return self.next()[1]

    def fail(self, message):
        raise ParseError(message, self.text, self.peek()[2])

    def items(self, parse_item, sep=","):
        """item (sep item)*"""
        out = [parse_item()]
        while self.peek()[1] == sep:
            self.next()
            out.append(parse_item())
        return out

    def parse_tuple(self, parse_item):
        """"(" [item ("," item)*] ")" """
        self.expect("(")
        out = self.items(parse_item) if self.peek()[1] != ")" else []
        self.expect(")")
        return out

    # polynomial grammar -------------------------------------------------

    def parse_poly(self):
        negate = self.peek()[1] == "-"
        if negate:
            self.next()
        poly = self.parse_term()
        if negate:
            poly = -poly
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            term = self.parse_term()
            poly = poly + term if op == "+" else poly - term
        return poly

    def parse_term(self):
        poly = self.parse_factor()
        while self.peek()[1] == "*":
            self.next()
            poly = poly * self.parse_factor()
        return poly

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[1] == "^":
            self.next()
            if self.peek()[1] == "-":
                self.fail("negative exponent")
            base = base ** int(self.expect_kind("int", "integer exponent"))
        return base

    def parse_base(self):
        kind, val, pos = self.next()
        if kind == "int":
            return self.ring.const(int(val))
        if kind == "name":
            try:
                return self.ring.var(val)
            except KeyError:
                raise ParseError(f"unknown variable {val!r}", self.text, pos) from None
        if val == "(":
            inner = self.parse_poly()
            self.expect(")")
            return inner
        if val == "-":
            return -self.parse_base()
        raise ParseError("expected a variable, number or parenthesized "
                         "expression", self.text, pos)

    def parse_integer(self):
        negate = self.peek()[1] == "-"
        if negate:
            self.next()
        value = int(self.expect_kind("int", "an integer coordinate"))
        return -value if negate else value

    # lists of polynomials -----------------------------------------------

    def parse_poly_list(self):
        return [g for g in self.parse_tuple(self.parse_poly) if g]

    def parse_matrix(self):
        self.expect("[")
        rows = [self.items(self.parse_poly)]
        while self.peek()[1] == ";":
            self.next()
            rows.append(self.items(self.parse_poly))
            if len(rows[-1]) != len(rows[0]):
                self.fail("ragged matrix")
        self.expect("]")
        return rows

    def parse_root(self):
        if self.peek()[1] == "root" and self.tokens[self.i + 1][1] == "(":
            self.i += 2
            level = int(self.expect_kind("int", "integer root level"))
            self.expect(",")
            body = self.parse_poly()
            self.expect(")")
            return level, body
        return 0, self.parse_poly()

    def at_end(self):
        return self.peek()[0] == "end"


def _parse_all(text, ring, production, what):
    p = _Parser(text, ring)
    out = production(p)
    if not p.at_end():
        p.fail(f"trailing input after {what}")
    return out


def parse_poly(text, ring):
    return _parse_all(text, ring, _Parser.parse_poly, "polynomial")


def parse_poly_list(text, ring):
    """Parse an ideal generator list `(g1, g2, ...)`; zero generators are
    dropped, so "(0)" yields the empty list."""
    return _parse_all(text, ring, _Parser.parse_poly_list, "generator list")


def parse_matrix(text, ring):
    """Parse a presentation matrix `[a, b; c, d]` into its list of rows."""
    return _parse_all(text, ring, _Parser.parse_matrix, "matrix")


def parse_root(text, ring):
    """Parse one root element `root(e, r)` or `r` into (level, body)."""
    return _parse_all(text, ring, _Parser.parse_root, "root element")


def parse_roots(text, ring):
    """Parse a root list `(root(e, r), s, ...)` into (level, body) pairs."""
    return _parse_all(text, ring, lambda p: p.parse_tuple(p.parse_root),
                      "root list")


def parse_terms(text, ring):
    """Parse f-sequence terms `(g, ...);(h, ...)` into generator lists."""
    return _parse_all(text, ring, lambda p: p.items(p.parse_poly_list, ";"),
                      "term list")


def parse_point(text):
    """Parse point coordinates `a1,...,an`, each an optionally negative
    integer, into a tuple."""
    return tuple(_parse_all(text, None, lambda p: p.items(p.parse_integer),
                            "point"))


def parse_ring(text):
    """Parse `F_<p>[v1,...,vn]` optionally followed by `/(g1,...,gk)`."""
    p = _Parser(text)
    kind, val, pos = p.next()
    if kind != "name" or not re.fullmatch(r"F_\d+", val):
        raise ParseError("expected ring header F_<p>", text, pos)
    char = int(val[2:])
    if not is_prime(char):
        raise ParseError(f"{char} is not prime", text, pos)
    p.expect("[")
    names = p.items(lambda: p.expect_kind("name", "a variable name"))
    if len(set(names)) != len(names):
        p.fail(f"duplicate variables {names}")
    p.expect("]")
    ring = Ring(char, names)
    if p.peek()[1] == "/":
        p.next()
        p.ring = ring
        ring = ring.with_quotient(p.parse_poly_list())
    if not p.at_end():
        p.fail("trailing input after ring")
    return ring
