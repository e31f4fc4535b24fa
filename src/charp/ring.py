"""Sparse exact polynomial arithmetic over prime fields.

A Ring fixes the characteristic p, an ordered tuple of variable names, a
monomial order, and optionally a quotient ideal presented by generators in
the underlying free ring.  Polynomials are immutable canonical term
sequences: monomials strictly decreasing under the ring's order, every
coefficient fully reduced into [1, p), never a stored zero term.

Monomials are plain exponent tuples, one slot per ring variable.  Coefficient
arithmetic uses Python integers mod p; p-th roots of coefficients are the
identity on F_p, which keeps every Frobenius computation exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, le, sub

# Frobenius powers scale exponents by p^e.  Exponents past this guard abort
# with ExponentOverflow rather than silently producing huge monomials.
EXPONENT_LIMIT = 1 << 60


class ExponentOverflow(OverflowError):
    """A Frobenius power would push an exponent past the safety guard."""


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# monomials: exponent tuples

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when the monomial a divides b (componentwise <=)."""
    return all(map(le, a, b))


def mono_div(a, b):
    """Exponent vector of a/b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


def minimal_monomials(monos, key=None):
    """The minimal elements of `monos` under divisibility, each once, in
    ascending `key` order (default: degree, then exponents).  Any key that
    ranks a proper divisor first works, e.g. every monomial order's key."""
    minimal = []
    for m in sorted(monos, key=key or (lambda m: (sum(m), m))):
        if not any(mono_divides(k, m) for k in minimal):
            minimal.append(m)
    return minimal


# ---------------------------------------------------------------------------
# monomial orders
#
# Every monomial order is a weight-matrix order (Robbiano, EUROCAL '85):
# an order class gives only `weight_rows(n)`, a 0/1 matrix on exponent
# tuples of length n, and `key` ranks monomials by their row sums.  The
# groebner engine packs the same row sums into one int per term.  `slots`
# counts the leading exponent slots that hold a module position rather
# than a variable (see POT).


@lru_cache(maxsize=256)
def _row_sums(order, n):
    """`order.weight_rows(n)` compiled to one function from an exponent
    tuple e to its row sums (grevlex in two variables: `lambda e: (e[0] +
    e[1], e[0], )`), since every sort of terms calls it once per term."""
    sums = ((" + ".join(f"e[{i}]" for i, w in enumerate(row) if w) or "0")
            + ", " for row in order.weight_rows(n))
    return eval(f"lambda e: ({''.join(sums)})")


def _grevlex_rows(lo, hi, n):
    """Grevlex on the variables lo..hi-1: the block degree, then the sums
    of ever shorter prefixes of the block."""
    return [tuple(1 if lo <= i < top else 0 for i in range(n))
            for top in range(hi, lo, -1)]


class _WeightOrder:
    """An order given by its `weight_rows`, all a subclass defines."""

    slots = 0

    def key(self, exps):
        """The row sums of exps: comparing keys is comparing monomials."""
        return _row_sums(self, len(exps))(exps)


@dataclass(frozen=True)
class Lex(_WeightOrder):
    """Pure lexicographic order on exponent tuples."""

    name = "lex"

    def weight_rows(self, n):
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]


@dataclass(frozen=True)
class GRevLex(_WeightOrder):
    """Graded reverse lexicographic order (the default)."""

    name = "grevlex"

    def weight_rows(self, n):
        return _grevlex_rows(0, n, n)


@dataclass(frozen=True)
class Block(_WeightOrder):
    """Elimination order: grevlex on the first k variables, then grevlex on
    the rest.  Any monomial touching the first block beats any that does not,
    which is exactly what elimination needs."""

    k: int

    @property
    def name(self):
        return f"block{self.k}"

    def weight_rows(self, n):
        k = min(self.k, n)
        return _grevlex_rows(0, k, n) + _grevlex_rows(k, n, n)


@dataclass(frozen=True)
class POT(_WeightOrder):
    """Position-over-term order on module terms.  The term e_i*x^a of a free
    module of rank `rank` is the exponent tuple (i, rank - i) + a: lower
    positions win, then `base` decides.  With the two position slots,
    componentwise divisibility, products, quotients and lcms of terms are
    the module ones (e_i*x^a divides e_j*x^b only when i == j), so the
    ideal engine runs on module terms unchanged."""

    rank: int
    base: object
    slots = 2

    @property
    def name(self):
        return f"pot{self.rank}:{self.base.name}"

    def weight_rows(self, n):
        """The slot rank - i (lower positions win), then the base rows."""
        return ([(0, 1) + (0,) * (n - 2)]
                + [(0, 0) + row for row in self.base.weight_rows(n - 2)])


def order_from_name(name):
    name = name.strip().lower()
    if name == "lex":
        return Lex()
    if name == "grevlex":
        return GRevLex()
    if name.startswith("block:"):
        k = int(name.split(":", 1)[1])
        if k < 0:
            raise ValueError(f"block size must be >= 0, got {k}")
        return Block(k)
    raise ValueError(f"unknown monomial order {name!r}")


# ---------------------------------------------------------------------------
# rings

class Ring:
    """F_p[v1,...,vn] with a fixed monomial order, optionally mod a quotient
    ideal.  Quotient generators live in the underlying free ring; every
    operation that needs them lifts explicitly."""

    __slots__ = ("p", "variables", "order", "quotient", "_index", "_free")

    def __init__(self, p, variables, order=None, quotient=()):
        p = int(p)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= 1 << 31:
            raise ValueError(f"characteristic {p} too large (< 2^31 required)")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in {variables}")
        if not variables:
            raise ValueError("a ring needs at least one variable")
        self.p = p
        self.variables = variables
        self.order = order if order is not None else GRevLex()
        self._index = {v: i for i, v in enumerate(variables)}
        self._free = None
        self.quotient = ()
        if quotient:
            free = self.free()
            gens = tuple(g.transported(free) for g in quotient if g)
            self.quotient = gens

    # -- structure -----------------------------------------------------

    @property
    def nvars(self):
        return len(self.variables)

    @property
    def is_quotient(self):
        return bool(self.quotient)

    def free(self):
        """The underlying free polynomial ring (self when no quotient)."""
        if not self.quotient:
            return self
        if self._free is None:
            self._free = Ring(self.p, self.variables, self.order)
        return self._free

    def with_order(self, order):
        if order == self.order and not self.quotient:
            return self
        return Ring(self.p, self.variables, order, self.quotient)

    def with_quotient(self, gens):
        return Ring(self.p, self.variables, self.order, tuple(gens))

    def extended(self, extra_names):
        """A free ring with extra variables appended, under the same order;
        quotient generators are not carried over."""
        for name in extra_names:
            if name in self._index:
                raise ValueError(f"variable {name} already present")
        return Ring(self.p, self.variables + tuple(extra_names), self.order)

    def fresh_names(self, count, base="t"):
        """Names not colliding with the ring's variables."""
        names, i = [], 0
        taken = set(self.variables)
        while len(names) < count:
            cand = f"{base}{i}" if count > 1 or i > 0 else base
            if cand not in taken:
                names.append(cand)
                taken.add(cand)
            i += 1
        return tuple(names)

    def compatible(self, other):
        return self.p == other.p and self.variables == other.variables

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.p == other.p
                and self.variables == other.variables
                and self.order == other.order
                and tuple(g.terms for g in self.quotient)
                == tuple(g.terms for g in other.quotient))

    def __hash__(self):
        return hash((self.p, self.variables, self.order,
                     tuple(g.terms for g in self.quotient)))

    def __repr__(self):
        head = f"F_{self.p}[{','.join(self.variables)}]"
        if self.quotient:
            head += "/(" + ", ".join(str(g) for g in self.quotient) + ")"
        return head

    # -- element constructors -------------------------------------------

    def zero(self):
        return Polynomial(self, ())

    def const(self, c):
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def one(self):
        return self.const(1)

    def var(self, name):
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no variable {name!r} in {self!r}")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, 1),))

    def gens(self):
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps}")
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((exps, coeff),))

    def from_dict(self, d):
        """Canonicalize {exponent tuple: int} into a Polynomial, its terms
        sorted largest first by the order's `key`."""
        p = self.p
        terms = {m: r for m, c in d.items() if (r := c % p)}
        key = _row_sums(self.order, self.nvars)
        return Polynomial(self, tuple(
            (m, terms[m]) for m in sorted(terms, key=key, reverse=True)))

    def poly(self, text):
        from .parse import parse_poly
        return parse_poly(text, self)

    def var_index(self, name):
        return self._index[name]


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Canonical sparse polynomial: terms sorted strictly decreasing under
    the ring's monomial order, all coefficients in [1, p)."""

    __slots__ = ("ring", "terms", "_hashed")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hashed = None

    # -- inspection ------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    @property
    def is_constant(self):
        return not self.terms or mono_deg(self.terms[0][0]) == 0

    def lm(self):
        """Leading monomial (exponent tuple); None for 0."""
        return self.terms[0][0] if self.terms else None

    def lc(self):
        return self.terms[0][1] if self.terms else 0

    def degree(self):
        if not self.terms:
            return -1
        return max(mono_deg(m) for m, _ in self.terms)

    @property
    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {mono_deg(m) for m, _ in self.terms}
        return len(degs) == 1

    def support_vars(self):
        """Indices of variables that actually appear."""
        out = set()
        for m, _ in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    def as_dict(self):
        return dict(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not self.ring.compatible(other.ring):
            raise ValueError(f"incompatible rings {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        d = dict(self.terms)
        p = self.ring.p
        for m, c in other.terms:
            nc = (d.get(m, 0) + c) % p
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
        return self.ring.from_dict(d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, (-c) % p) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c):
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Polynomial(self.ring,
                          tuple((m, (v * c) % p) for m, v in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        self._check(other)
        # a constant factor scales the other one's terms, already in order
        if other.is_constant:
            return self._scaled(other.lc())
        if self.is_constant and self.ring is other.ring:
            return other._scaled(self.lc())
        p = self.ring.p
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                nc = (d.get(m, 0) + c1 * c2) % p
                if nc:
                    d[m] = nc
                else:
                    d.pop(m, None)
        return self.ring.from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring.p == other.ring.p
                and self.ring.variables == other.ring.variables
                and frozenset(self.terms) == frozenset(other.terms))

    def __hash__(self):
        if self._hashed is None:
            self._hashed = hash((self.ring.p, self.ring.variables,
                                 frozenset(self.terms)))
        return self._hashed

    # -- characteristic-p structure ---------------------------------------

    def frobenius(self, e):
        """self**(p^e) computed exactly: scale exponents by q = p^e; F_p
        coefficients are fixed by the Frobenius."""
        if e < 0:
            raise ValueError("e must be >= 0")
        if e == 0 or self.is_constant:
            return self
        p, top = self.ring.p, max(max(m) for m, _ in self.terms)
        # top >= 1 and p >= 2, so once 2^e > EXPONENT_LIMIT, p^e alone passes
        # the guard: raise before forming a q of about e digits
        if e >= EXPONENT_LIMIT.bit_length():
            raise ExponentOverflow(f"exponent {top}*{p}^{e} exceeds guard")
        q = p ** e
        if top * q > EXPONENT_LIMIT:
            raise ExponentOverflow(f"exponent {top}*{q} exceeds guard")
        return Polynomial(self.ring,
                          tuple((tuple(x * q for x in m), c) for m, c in self.terms))

    def pth_root(self, e):
        """g with g^(p^e) == self, or None when no such g exists.  Only
        canonical in free rings."""
        if self.ring.is_quotient:
            raise ValueError("p-th roots are canonical only in free rings")
        if e < 0:
            raise ValueError("e must be >= 0")
        if e == 0 or not self.terms:
            return self
        q = self.ring.p ** e
        new = []
        for m, c in self.terms:
            if any(x % q for x in m):
                return None
            new.append((tuple(x // q for x in m), c))
        # every order is a weight order, so dividing by q keeps the term order
        return Polynomial(self.ring, tuple(new))

    # -- ring changes -------------------------------------------------------

    def transported(self, target, rename=None):
        """The same polynomial viewed in `target`, matching variables by name
        (optionally through a source->target rename map).  Re-sorts terms
        under the target order."""
        if rename is None and target.variables == self.ring.variables and \
                target.p == self.ring.p:
            if target.order == self.ring.order:
                return Polynomial(target, self.terms)
            return target.from_dict(dict(self.terms))
        if target.p != self.ring.p:
            raise ValueError("cannot transport between different characteristics")
        rename = rename or {}
        slot = []
        for i, v in enumerate(self.ring.variables):
            name = rename.get(v, v)
            try:
                slot.append(target.var_index(name))
            except KeyError:
                slot.append(None)
        d = {}
        width = target.nvars
        for m, c in self.terms:
            exps = [0] * width
            for i, e in enumerate(m):
                if not e:
                    continue
                if slot[i] is None:
                    raise ValueError(
                        f"variable {self.ring.variables[i]} has no image in {target!r}")
                exps[slot[i]] += e
            key = tuple(exps)
            d[key] = (d.get(key, 0) + c) % target.p
        return target.from_dict(d)

    def shifted(self, point):
        """Translate coordinates so `point` moves to the origin:
        substitute v_i -> v_i + c_i."""
        ring = self.ring
        images = [ring.var(v) + ring.const(c)
                  for v, c in zip(ring.variables, point)]
        out = ring.zero()
        for m, c in self.terms:
            term = ring.const(c)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    def evaluate(self, point):
        p = self.ring.p
        total = 0
        for m, c in self.terms:
            val = c
            for e, x in zip(m, point):
                if e:
                    val = val * pow(int(x) % p, e, p) % p
            total = (total + val) % p
        return total

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return str(self)
