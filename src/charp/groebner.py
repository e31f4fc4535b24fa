"""Buchberger's algorithm and the ideal toolkit built on it.

Everything here runs in the free polynomial ring; ideals of a quotient ring
R = S/I0 are represented by their lifts to S (generators plus the quotient
generators), so a single engine answers every query; module bases run
through it too, with module terms encoded under the POT order (see
modules.py).  Pair selection uses the sugar strategy with both classical
pair-skipping criteria, and ties are broken by (sugar, lcm key, indices),
so repeated runs produce bit-identical reduced bases.  Ideal quotients
are module colons at rank 1 (modules.span_colon), so _nf_dict is the
only division loop.

Division is heap division (Monagan & Pearce, JSC 46, 2011): the pending
terms sit in a min-heap under the order's `heap_key`, a flat tuple built
once per monomial when it first enters the work dict.  The largest term
is popped, terms whose coefficients cancelled are skipped on the way out,
and a product term is pushed only when it is new, so a division step
costs O(log |work|) comparisons instead of re-keying every pending term.
Terms are still reduced largest first with the same reducer, so remainders
and step counts are those of the plain max-scan division.
"""

from __future__ import annotations

import heapq

from .budget import Budget
from .ring import (Block, Polynomial, Ring, mono_deg, mono_div, mono_divides,
                   mono_gcd, mono_lcm, mono_mul)


# ---------------------------------------------------------------------------
# division

def _reducer_table(basis, slots):
    """Group (lm, terms) reducers by the position slots of their leading
    monomials (a single group, keyed (), for ideals)."""
    table = {}
    for lm, terms in basis:
        table.setdefault(lm[:slots], []).append((lm, terms))
    return table


def _nf_dict(work, reducers, ring, budget):
    """Full normal form of the term dict `work` against a _reducer_table of
    monic reducers.  Returns the remainder dict, its terms in descending
    order.

    Heap division: every pending monomial enters a heap once, under its
    heap key, and keeps its entry while its coefficient changes in `work`;
    a popped monomial whose coefficient cancelled to zero is skipped."""
    p = ring.p
    hkey = ring.order.heap_key
    slots = ring.order.slots
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
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
            old = work.get(mm)
            if old is None:
                work[mm] = (-c * bc) % p
                heapq.heappush(heap, (hkey(mm), mm))
            else:
                work[mm] = (old - c * bc) % p
    return rem


def normal_form_poly(f, basis_polys, budget=None):
    """Remainder of f modulo a list of monic polynomials (typically a reduced
    Groebner basis)."""
    budget = Budget.ensure(budget)
    ring = f.ring
    reducers = _reducer_table([(g.lm(), g.terms) for g in basis_polys if g],
                              ring.order.slots)
    rem = _nf_dict(dict(f.terms), reducers, ring, budget)
    return ring.from_dict(rem)


# ---------------------------------------------------------------------------
# Buchberger

def _spoly_dict(gi, gj, ring):
    """S-polynomial of two monic basis entries (lm, terms)."""
    lmi, ti = gi
    lmj, tj = gj
    lcm = mono_lcm(lmi, lmj)
    si = mono_div(lcm, lmi)
    sj = mono_div(lcm, lmj)
    p = ring.p
    d = {}
    for m, c in ti:
        mm = mono_mul(m, si)
        d[mm] = (d.get(mm, 0) + c) % p
    for m, c in tj:
        mm = mono_mul(m, sj)
        d[mm] = (d.get(mm, 0) - c) % p
    return {m: c for m, c in d.items() if c}


def buchberger(gens, ring, budget=None):
    """Reduced Groebner basis of the ideal generated by `gens` under the
    ring's order.  Deterministic; raises BudgetExceeded when the pair queue
    outruns the step budget.  Under a module order (POT) only pairs with
    leading terms in the same position are formed."""
    budget = Budget.ensure(budget)
    key = ring.order.key
    hkey = ring.order.heap_key
    slots = ring.order.slots

    G = []           # (lm, terms, sugar)
    reducers = {}    # _reducer_table of G, grown as G grows
    pairs = []       # heap of (sugar, lcm_key, i, j)
    done = set()     # treated index pairs, for the chain criterion

    def push_pairs(j):
        lmj, _, sj = G[j]
        for i in range(j):
            lmi, _, si = G[i]
            if lmi[:slots] != lmj[:slots]:
                continue
            lcm = mono_lcm(lmi, lmj)
            sugar = max(si + mono_deg(lcm) - mono_deg(lmi),
                        sj + mono_deg(lcm) - mono_deg(lmj))
            heapq.heappush(pairs, (sugar, key(lcm), i, j))

    def add(poly_terms, sugar):
        terms = sorted(poly_terms.items(), key=lambda mc: hkey(mc[0]))
        lm, c = terms[0]
        if c != 1:
            inv = pow(c, -1, ring.p)
            terms = [(m, (v * inv) % ring.p) for m, v in terms]
        terms = tuple(terms)
        G.append((lm, terms, sugar))
        reducers.setdefault(lm[:slots], []).append((lm, terms))
        push_pairs(len(G) - 1)

    seed = sorted({g.monic() for g in gens if g},
                  key=lambda g: (key(g.lm()), g.terms))
    for g in seed:
        add(dict(g.terms), g.degree())
    if not G:
        return ()

    zero = (0,) * ring.nvars
    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        lmi, ti, _ = G[i]
        lmj, tj, _ = G[j]
        lcm = mono_lcm(lmi, lmj)
        if mono_gcd(lmi, lmj) == zero:
            continue  # product criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(G[k][0], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        budget.charge()
        sp = _spoly_dict((lmi, ti), (lmj, tj), ring)
        rem = _nf_dict(sp, reducers, ring, budget)
        if rem:
            add(rem, sugar)

    return _reduce_basis([Polynomial(ring, terms) for _, terms, _ in G],
                         ring, budget)


def _reduce_basis(polys, ring, budget):
    """Minimalize and tail-reduce a basis into the unique reduced form,
    sorted ascending by leading monomial."""
    key = ring.order.key
    polys = sorted((g.monic() for g in polys if g),
                   key=lambda g: (key(g.lm()), g.terms))
    minimal = []
    for g in polys:
        if not any(mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    # g cannot reduce its own tail (every tail term is below lm(g)), and no
    # other leading monomial divides lm(g), so reducing the tail against
    # the whole minimal basis is reducing g against the others.
    reducers = _reducer_table([(g.lm(), g.terms) for g in minimal],
                              ring.order.slots)
    reduced = []
    for g in minimal:
        rem = _nf_dict(dict(g.terms[1:]), reducers, ring, budget)
        rem[g.lm()] = 1
        reduced.append(ring.from_dict(rem))
    reduced.sort(key=lambda g: key(g.lm()))
    return tuple(reduced)


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
    the lifted generators of I for every generator g of J, each a module
    colon at rank 1 (modules.span_colon)."""
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
