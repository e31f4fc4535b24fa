"""Buchberger's algorithm and the ideal toolkit built on it.

Everything here runs in the free polynomial ring; ideals of a quotient ring
R = S/I0 are represented by their lifts to S (generators plus the quotient
generators), so a single engine answers every query; module bases run
through it too, with module terms encoded under the POT order (see
modules.py).  Pair selection uses the sugar strategy with both classical
pair-skipping criteria, and ties are broken by (sugar, lcm key, indices),
so repeated runs produce bit-identical reduced bases.  Ideal quotients
are one module colon (modules.span_colon), so _nf_dict is the only
division loop.

Packed terms (Monagan & Pearce, CASC 2007).  Inside the engine a monomial
is one Python int.  Its low bits hold the exponents E, one field of `bits`
bits plus a guard bit per exponent slot; above them sits the order key K,
one field per row of the order's 0/1 `weight_rows`, most significant row
first.  Both parts are linear in the exponents, so the product of two
terms is one int addition and the quotient one subtraction, and since K
decides every comparison between distinct monomials, plain int comparison
is the monomial order.  b divides m exactly when (m - b) has no guard bit
set: a field of m below the one of b borrows, and its guard bit shows it.
Module positions are the two POT slots of E, so a reducer's position is
`E & slotmask`.  Polynomials are packed once at the boundary (the input
generators of `buchberger`, the arguments of `normal_form_poly`) and the
reduced basis or remainder is unpacked on the way out; the basis, the
S-polynomials, the reducer table, the remainders and the pair keys stay
packed in between.

Field width.  `bits` is the bit length of the largest input exponent plus
_FIELD_MARGIN, so an exponent may grow 2^_FIELD_MARGIN-fold past the input
before it fills its field.  The K fields are bit_length(n) bits wider, so
any term whose E guard bits are clear has a K that fits too.  Every term
the engine forms is checked: a guard bit set on a new product raises
ExponentOverflow (an input error, exit 5 at the CLI) rather than ever
producing a basis from overlapping fields.  There is no repacking.

Division is heap division (Monagan & Pearce, JSC 46, 2011): the pending
terms sit in a heap of plain ints.  The largest term is popped, terms
whose coefficients cancelled are skipped on the way out, and a product
term is pushed only when it is new, so a division step costs O(log |work|)
int comparisons.  Terms are reduced largest first with the first dividing
reducer, so remainders and step counts are those of the plain max-scan
division on exponent tuples.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from operator import mul

from .budget import Budget
from .ring import Block, ExponentOverflow, Polynomial, Ring

# bits an exponent may grow past the largest input exponent (see above)
_FIELD_MARGIN = 16


# ---------------------------------------------------------------------------
# packed terms

class _Packing:
    """The packed-int encoding of one order on exponent tuples of length n
    with `bits`-bit exponent fields."""

    __slots__ = ("cols", "shifts", "mask", "guard", "slotmask")

    def __init__(self, order, n, bits):
        width = bits + 1                      # the exponent and its guard bit
        rows = order.weight_rows(n)
        kwidth = bits + n.bit_length()        # holds a sum of n exponents
        top = n * width + len(rows) * kwidth
        # cols[i] is the packed form of the i-th unit vector, so a tuple
        # packs as the sum of exps[i] * cols[i]
        self.cols = tuple(
            (1 << i * width)
            + sum(1 << top - (r + 1) * kwidth for r, row in enumerate(rows)
                  if row[i])
            for i in range(n))
        self.shifts = tuple(range(0, n * width, width))
        self.mask = (1 << bits) - 1
        self.guard = sum(1 << s + bits for s in self.shifts)
        self.slotmask = sum(self.mask << s for s in self.shifts[:order.slots])

    def encode(self, exps):
        return sum(map(mul, exps, self.cols))

    def decode(self, m):
        mask = self.mask
        return tuple(m >> s & mask for s in self.shifts)

    def check(self, m):
        """m itself, or ExponentOverflow when an exponent filled its field."""
        if m & self.guard:
            raise ExponentOverflow(
                f"exponent past the {self.mask.bit_length()}-bit field of the"
                " Groebner engine")
        return m


@lru_cache(maxsize=256)
def _packing(order, n, bits):
    return _Packing(order, n, bits)


def _packing_for(polys, ring):
    top = max((max(m) for g in polys for m, _ in g.terms), default=0)
    return _packing(ring.order, ring.nvars, top.bit_length() + _FIELD_MARGIN)


def _pack(g, pk):
    """The terms of g as packed (m, c) pairs, largest first."""
    encode = pk.encode
    return tuple((encode(m), c) for m, c in g.terms)


def _unpack(terms, ring, pk):
    decode = pk.decode
    return Polynomial(ring, tuple((decode(m), c) for m, c in terms))


# ---------------------------------------------------------------------------
# division

def _reducer_table(basis, pk):
    """Group monic packed reducers (term tuples, largest first) by the
    position slots of their leading monomials (one group, keyed 0, for
    ideals), each as (lm, tail terms)."""
    table = {}
    for terms in basis:
        lm = terms[0][0]
        table.setdefault(lm & pk.slotmask, []).append((lm, terms[1:]))
    return table


def _nf_dict(work, reducers, pk, p, budget):
    """Full normal form of the packed term dict `work` against a
    _reducer_table.  Returns the remainder dict, its terms in descending
    order.

    Heap division: every pending monomial enters a heap once, negated so
    that the min-heap pops the largest, and keeps its entry while its
    coefficient changes in `work`; a popped monomial whose coefficient
    cancelled to zero is skipped."""
    guard, slotmask = pk.guard, pk.slotmask
    get, push, pop = work.get, heapq.heappush, heapq.heappop
    heap = [-m for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = -pop(heap)
        c = work.pop(m)
        if not c:
            continue
        for blm, btail in reducers.get(m & slotmask, ()):
            shift = m - blm
            if not shift & guard:
                break
        else:
            rem[m] = c
            continue
        budget.charge()
        c = p - c       # m - c * shift * b: add (p - c) * bc per tail term
        for bm, bc in btail:
            mm = bm + shift
            old = get(mm)
            if old is None:
                if mm & guard:
                    pk.check(mm)
                work[mm] = c * bc % p
                push(heap, -mm)
            else:
                work[mm] = (old + c * bc) % p
    return rem


def normal_form_poly(f, basis_polys, budget=None):
    """Remainder of f modulo a list of monic polynomials (typically a reduced
    Groebner basis)."""
    budget = Budget.ensure(budget)
    ring = f.ring
    basis = [g for g in basis_polys if g]
    pk = _packing_for([f] + basis, ring)
    reducers = _reducer_table([_pack(g, pk) for g in basis], pk)
    rem = _nf_dict(dict(_pack(f, pk)), reducers, pk, ring.p, budget)
    return _unpack(rem.items(), ring, pk)


# ---------------------------------------------------------------------------
# Buchberger

def _spoly_dict(ti, tj, lcm, pk, p):
    """S-polynomial of two monic packed basis entries with the packed lcm
    of their leading monomials."""
    d = {}
    for terms, sign in ((ti, 1), (tj, -1)):
        shift = lcm - terms[0][0]
        for m, c in terms:
            mm = m + shift
            d[mm] = (d.get(mm, 0) + sign * c) % p
    return {pk.check(m): c for m, c in d.items() if c}


def buchberger(gens, ring, budget=None):
    """Reduced Groebner basis of the ideal generated by `gens` under the
    ring's order.  Deterministic; raises BudgetExceeded when the pair queue
    outruns the step budget.  Under a module order (POT) only pairs with
    leading terms in the same position are formed."""
    budget = Budget.ensure(budget)
    p = ring.p
    seed = {g.monic() for g in gens if g}
    if not seed:
        return ()
    pk = _packing_for(seed, ring)
    guard, slotmask = pk.guard, pk.slotmask

    G = []           # packed monic term tuples, largest term first
    lms = []         # their leading monomials
    lm_exps = []     # the same as exponent tuples, for lcms
    excess = []      # sugar minus the degree of the leading monomial
    reducers = {}    # _reducer_table of G, grown as G grows
    pairs = []       # heap of (sugar, packed lcm, i, j)
    done = set()     # treated index pairs, for the chain criterion

    def push_pairs(j):
        lmj, expj, ej = lms[j], lm_exps[j], excess[j]
        for i in range(j):
            if (lms[i] ^ lmj) & slotmask:
                continue
            lcm = tuple(map(max, lm_exps[i], expj))
            heapq.heappush(pairs, (sum(lcm) + max(excess[i], ej),
                                   pk.encode(lcm), i, j))

    def add(terms, sugar):
        """Append monic packed terms, already largest first."""
        lm, c = terms[0]
        if c != 1:
            inv = pow(c, -1, p)
            terms = [(m, (v * inv) % p) for m, v in terms]
        terms = tuple(terms)
        G.append(terms)
        lms.append(lm)
        lm_exps.append(pk.decode(lm))
        excess.append(sugar - sum(lm_exps[-1]))
        reducers.setdefault(lm & slotmask, []).append((lm, terms[1:]))
        push_pairs(len(G) - 1)

    packed = [(_pack(g, pk), g) for g in seed]
    packed.sort(key=lambda tg: (tg[0][0][0], tg[1].terms))
    for terms, g in packed:
        add(terms, g.degree())

    while pairs:
        sugar, lcm, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if lcm == lms[i] + lms[j]:
            continue  # product criterion: coprime leading monomials
        skip = False
        for k, lmk in enumerate(lms):
            if (lcm - lmk) & guard or k == i or k == j:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        budget.charge()
        sp = _spoly_dict(G[i], G[j], lcm, pk, p)
        rem = _nf_dict(sp, reducers, pk, p, budget)
        if rem:
            add(list(rem.items()), sugar)

    return tuple(_unpack(terms, ring, pk)
                 for terms in _reduce_basis(G, pk, p, budget))


def _reduce_basis(basis, pk, p, budget):
    """Minimalize and tail-reduce monic packed term tuples into the unique
    reduced basis, as packed term tuples ascending by leading monomial.

    Only input generators can share a leading monomial (every later entry
    is reduced by all before it), and buchberger adds them sorted by
    (lm, terms), so the stable sort by lm keeps their order."""
    guard = pk.guard
    minimal = []
    for terms in sorted(basis, key=lambda t: t[0][0]):
        lm = terms[0][0]
        if not any(not (lm - h[0][0]) & guard for h in minimal):
            minimal.append(terms)
    # g cannot reduce its own tail (every tail term is below lm(g)), and no
    # other leading monomial divides lm(g), so reducing the tail against
    # the whole minimal basis is reducing g against the others.
    reducers = _reducer_table(minimal, pk)
    reduced = []
    for terms in minimal:
        rem = _nf_dict(dict(terms[1:]), reducers, pk, p, budget)
        reduced.append(terms[:1] + tuple(rem.items()))
    reduced.sort()
    return reduced
# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """An ideal given by generators, with a write-once cache of its reduced
    Groebner basis (computed on the lift when the ring is a quotient)."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring, gens=()):
        self.ring = ring
        fixed = []
        for g in gens:
            if isinstance(g, str):
                g = ring.poly(g)
            if g.ring is not ring:
                g = g.transported(ring)
            if g:
                fixed.append(g)
        self.gens = tuple(fixed)
        self._gb = None

    @classmethod
    def parse(cls, ring, text):
        from .parse import parse_poly_list
        return cls(ring, parse_poly_list(text, ring))

    def lifted_gens(self):
        """Generators plus the ring's quotient generators, in the free ring."""
        free = self.ring.free()
        out = [g.transported(free) for g in self.gens]
        out.extend(self.ring.quotient)
        return tuple(out)

    def groebner_basis(self, budget=None):
        if self._gb is None:
            free = self.ring.free()
            self._gb = buchberger(self.lifted_gens(), free, budget)
        return self._gb

    def normal_form(self, f, budget=None):
        free = self.ring.free()
        f = f.transported(free)
        return normal_form_poly(f, self.groebner_basis(budget), budget)

    def contains(self, f, budget=None):
        return self.normal_form(f, budget).is_zero

    def contains_ideal(self, other, budget=None):
        return all(self.contains(g, budget) for g in other.lifted_gens())

    def equal(self, other, budget=None):
        """Same ideal of the (lifted) free ring, whatever the two rings'
        monomial orders: reduced bases are unique per order, so equal
        orders compare bases and different orders test containment both
        ways."""
        if not self.ring.compatible(other.ring):
            return False
        if self.ring.order == other.ring.order:
            return (set(self.groebner_basis(budget))
                    == set(other.groebner_basis(budget)))
        return (self.contains_ideal(other, budget)
                and other.contains_ideal(self, budget))

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.equal(other)

    __hash__ = None

    @property
    def is_zero(self):
        return not self.groebner_basis()

    @property
    def is_unit(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant and not gb[0].is_zero

    def plus(self, other):
        gens = self.gens + tuple(g.transported(self.ring) for g in other.gens)
        return Ideal(self.ring, gens)

    def __repr__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def basis_str(self, budget=None):
        gb = self.groebner_basis(budget)
        if not gb:
            return "(0)"
        return "(" + ", ".join(str(g) for g in gb) + ")"


def groebner_basis(ideal, order=None, budget=None):
    """Reduced Groebner basis, optionally under a different monomial order
    than the ideal's ring carries."""
    if order is None or order == ideal.ring.order:
        return ideal.groebner_basis(budget)
    ring2 = ideal.ring.free().with_order(order)
    gens = [g.transported(ring2) for g in ideal.lifted_gens()]
    return buchberger(gens, ring2, budget)


def ideal_equal(I, J, budget=None):
    return I.equal(J, budget)


def normal_form(f, ideal, budget=None):
    return ideal.normal_form(f, budget)


def eliminate(ideal, k, budget=None):
    """Generators of I intersected with F_p[v_{k+1}, ..., v_n]."""
    ring = ideal.ring
    if k == 0:
        return Ideal(ring, ideal.groebner_basis(budget))
    if k >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    free = ring.free().with_order(Block(k))
    gens = [g.transported(free) for g in ideal.lifted_gens()]
    gb = buchberger(gens, free, budget)
    block = set(range(k))
    kept = [g for g in gb if not (g.support_vars() & block)]
    return Ideal(ring.free(), [g.transported(ring.free()) for g in kept])


def intersect(I, J, budget=None):
    """I cap J via the single tag variable t: eliminate t from t*I + (1-t)*J."""
    ring = I.ring.free()
    (tname,) = ring.fresh_names(1, "t")
    ext = Ring(ring.p, (tname,) + ring.variables, Block(1))
    t = ext.var(tname)
    one = ext.one()
    gens = [t * g.transported(ext) for g in I.lifted_gens()]
    gens += [(one - t) * g.transported(ext) for g in J.lifted_gens()]
    gb = buchberger(gens, ext, budget)
    kept = [g for g in gb if 0 not in g.support_vars()]
    return Ideal(ring, [g.transported(ring) for g in kept])


def colon_ideal(I, J, budget=None):
    """(I : J) = {r | r*J inside I}: the ideal of r with r*g in the span of
    the lifted generators of I for every generator g of J, one stacked
    module colon (modules.span_colon)."""
    from .modules import span_colon

    if I.ring.p != J.ring.p or I.ring.variables != J.ring.variables:
        raise ValueError("colon of ideals in different rings")
    ring = I.ring
    free = ring.free()
    gens_j = [(g.transported(free),) for g in J.gens if g]
    if not gens_j:
        raise ValueError("colon by the zero ideal")
    cols = [(h,) for h in I.lifted_gens()]
    result = span_colon(gens_j, cols, 1, free, budget)
    return Ideal(ring, [g.transported(ring) for g in result.gens])


def radical_membership(f, ideal, budget=None):
    """f in the radical of I, by the auxiliary-variable trick:
    1 in I + (1 - t*f) in the extended ring."""
    ring = ideal.ring.free()
    (tname,) = ring.fresh_names(1, "t")
    ext = ring.extended((tname,))
    t = ext.var(tname)
    gens = [g.transported(ext) for g in ideal.lifted_gens()]
    gens.append(ext.one() - t * f.transported(ext))
    gb = buchberger(gens, ext, budget)
    return len(gb) == 1 and gb[0].is_constant
