"""Groebner bases for submodules of free modules.

Vectors over S^r are tuples of polynomials.  A module term e_i*x^a is
the exponent tuple (i, r - i) + a under the position-over-term order POT
(lower position wins, then the ring's order), so a vector goes into the
term-list engine of groebner.py as one term list.  The two position
slots make plain componentwise divisibility, lcm and shifts correct for
module terms: a term divides another only in the same position.  Vectors
have no Koszul syzygies, so the engine's syzygy criterion uses only the
signatures that reduced to zero.

Every kernel is one module colon (Greuel & Pfister, A Singular
Introduction to Commutative Algebra, 2.8): the w with sum w_k * maps[k]
in the span of cols are the tails of the basis elements of
<(maps[k]; e_k), (c; 0)> in S^(rank + len(maps)) that vanish on the first
rank positions, which POT ranks first.  Only the maps are tagged.  A
syzygy module is the colon into the zero module; ideal quotients,
annihilators, the nonzerodivisor test and Koszul homology are colons too.

A ModulePresentation is a cokernel: M = S^rank / (column span of relations).
Quotient rings are handled by appending one relation column per quotient
generator and basis row, so homology answers are answers over R = S/I0.
"""

from __future__ import annotations

from .budget import Budget
# unused here: the benchmark's tracer tests read charp.modules.intersect
from .groebner import Ideal, intersect, term_basis, term_remainders  # noqa
from .ring import POT, Polynomial, minimal_monomials, mono_deg


# ---------------------------------------------------------------------------
# vectors and module terms

def vec_is_zero(vec):
    return all(c.is_zero for c in vec)


def apply_columns(columns, coeffs, ring, rank):
    """Matrix-vector product: sum of coeffs[j] * columns[j]."""
    out = [ring.zero()] * rank
    for c, col in zip(coeffs, columns):
        if c.is_zero:
            continue
        for i, entry in enumerate(col):
            if entry:
                out[i] = out[i] + c * entry
    return tuple(out)


def diagonal_columns(f, rank, ring):
    """The columns of f times the identity of S^rank."""
    zero = ring.zero()
    return [tuple(f if j == i else zero for j in range(rank))
            for i in range(rank)]


def _kron(a, b, ring):
    """The Kronecker product A (x) B of matrices given by columns: column
    (j, l) has entry A[i][j] * B[k][l] in row (i, k).  Identity factors
    carry the integer 1, which multiplies without a polynomial product."""
    zero = ring.zero()
    return [tuple(x * y if x and y else zero for x in ca for y in cb)
            for ca in a for cb in b]


# ---------------------------------------------------------------------------
# module Groebner bases through the ideal engine

def _terms(vec, rank):
    """The POT term list of a vector over S, largest first: rows in
    position order keep the terms in decreasing POT order."""
    return tuple(((i, rank - i) + m, c)
                 for i, entry in enumerate(vec) for m, c in entry.terms)


def _vector(terms, rank, ring):
    rows = [[] for _ in range(rank)]
    for m, c in terms:
        rows[m[0]].append((m[2:], c))
    return tuple(Polynomial(ring, tuple(row)) for row in rows)


def _remainders(vectors, gb, rank, ring, budget):
    return term_remainders([_terms(v, rank) for v in vectors],
                           [_terms(v, rank) for v in gb], ring.p,
                           POT(rank, ring.order), ring.nvars + 2, budget)


def module_groebner(vectors, rank, ring, budget=None):
    """Reduced module Groebner basis (position-over-term order) of the
    submodule of S^rank generated by `vectors`."""
    gb = term_basis([_terms(v, rank) for v in vectors], ring.p,
                    POT(rank, ring.order), ring.nvars + 2, budget)
    return tuple(_vector(g, rank, ring) for g in gb)


def module_normal_form(vec, gb, rank, ring, budget=None):
    (rem,) = _remainders([vec], gb, rank, ring, budget)
    return _vector(rem, rank, ring)


def in_module(vectors, gb, rank, ring, budget=None):
    """Every vector lies in the span of the module basis gb.  Stops at the
    first vector outside, as a loop over single vectors would."""
    return not any(_remainders(vectors, gb, rank, ring, budget))


# ---------------------------------------------------------------------------
# kernels

def module_colon(maps, cols, rank, ring, budget=None):
    """(colon, span): generators of {w : sum w_k * maps[k] in the span of
    cols}, the tails of the basis elements of <(maps[k]; e_k), (c; 0)> in
    S^(rank + len(maps)) whose first rank entries vanish, and the heads of
    the others, the reduced basis of the span of maps and cols."""
    maps = list(maps)
    zero, one = ring.zero(), ring.one()
    tagged = []
    for k, col in enumerate(maps + list(cols)):
        if len(col) != rank:
            raise ValueError("column length does not match ambient rank")
        tagged.append(tuple(col) + tuple(one if t == k else zero
                                         for t in range(len(maps))))
    gb = module_groebner(tagged, rank + len(maps), ring, budget)
    return (tuple(v[rank:] for v in gb if vec_is_zero(v[:rank])),
            tuple(v[:rank] for v in gb if not vec_is_zero(v[:rank])))


def syzygy_module(columns, rank, ring, budget=None):
    """Generators of {v : sum v_j * columns[j] = 0} as vectors of length
    len(columns): the colon of the columns into the zero module."""
    return module_colon(columns, (), rank, ring, budget)[0]


# ---------------------------------------------------------------------------
# presentations

class ModulePresentation:
    """M = S^rank / column span of `columns` (each column a length-rank
    tuple of polynomials).  The cyclic case rank=1 is R/J."""

    __slots__ = ("ring", "rank", "columns")

    def __init__(self, ring, rank, columns=()):
        self.ring = ring
        self.rank = int(rank)
        fixed = []
        for col in columns:
            col = tuple(ring.poly(e) if isinstance(e, str)
                        else e.transported(ring) for e in col)
            if len(col) != self.rank:
                raise ValueError("relation column has wrong length")
            if not vec_is_zero(col):
                fixed.append(col)
        self.columns = tuple(fixed)

    @classmethod
    def cyclic(cls, ring, gens):
        if isinstance(gens, Ideal):
            gens = gens.gens
        return cls(ring, 1, [(g,) for g in gens])

    @classmethod
    def free(cls, ring, rank=1):
        return cls(ring, rank, ())

    def cyclic_ideal(self):
        if self.rank != 1:
            raise ValueError("not a cyclic presentation")
        return Ideal(self.ring, [c[0] for c in self.columns])

    def lifted_columns(self):
        """Relation columns over the free ring, with one column per quotient
        generator and basis position appended."""
        free = self.ring.free()
        cols = [tuple(e.transported(free) for e in col) for col in self.columns]
        for q in self.ring.quotient:
            cols += diagonal_columns(q, self.rank, free)
        return cols

    def __repr__(self):
        if not self.columns:
            return f"free module of rank {self.rank} over {self.ring!r}"
        cols = "; ".join("(" + ", ".join(str(e) for e in col) + ")"
                         for col in self.columns)
        return f"coker[{cols}] over {self.ring!r}"


def row_degrees(cols, rank):
    """Degrees of the basis rows of S^rank that make every column
    homogeneous, each connected component of rows seeded at degree 0, or
    None when no such degrees exist (graded Nakayama territory)."""
    for col in cols:
        for e in col:
            if e and not e.is_homogeneous:
                return None
    row_deg = {}
    for start in range(rank):
        if start in row_deg:
            continue
        # a row no earlier row reaches starts a new connected component
        row_deg[start] = 0
        changed = True
        while changed:
            changed = False
            for col in cols:
                known = [(i, e) for i, e in enumerate(col)
                         if e and i in row_deg]
                if not known:
                    continue
                i0, e0 = known[0]
                cdeg = row_deg[i0] + e0.degree()
                for i, e in enumerate(col):
                    if not e:
                        continue
                    want = cdeg - e.degree()
                    if i in row_deg:
                        if row_deg[i] != want:
                            return None
                    else:
                        row_deg[i] = want
                        changed = True
    return [row_deg[i] for i in range(rank)]


def is_graded(pres):
    """True when the relation matrix has homogeneous row degrees."""
    return row_degrees(pres.lifted_columns(), pres.rank) is not None


# ---------------------------------------------------------------------------
# Hilbert series
#
# A graded M = S^r/U over S = F_p[x_1..x_n] has HS(M) = K(t) / (1 - t)^n.
# The K-polynomial K is a Laurent polynomial in t, kept as a dict
# {exponent: nonzero integer}.  HS(S^r/U) = HS(S^r/in(U)) (Macaulay), and
# in(U) splits by position: HS = sum_i t^{deg e_i} HS(S/in(U)_i).

def _k_add(a, b, shift=0):
    """a + t^shift * b."""
    out = dict(a)
    for d, c in b.items():
        c += out.get(d + shift, 0)
        if c:
            out[d + shift] = c
        else:
            out.pop(d + shift, None)
    return out


def k_times_one_minus(k, d):
    """k * (1 - t^d)."""
    return _k_add(k, {e: -c for e, c in k.items()}, d)


def monomial_kpolynomial(monos, budget=None):
    """K(S/J) for the monomial ideal J generated by the exponent tuples
    `monos`, by Bigatti's pivot recursion (JPAA 119, 1997): with P = x^a,
    K(S/J) = K(S/(J + P)) + t^a K(S/(J : P)).  The pivot variable lies in
    the most minimal generators, a is the lower median of its exponents
    there; recursion stops at pairwise coprime generators, where
    K = prod (1 - t^deg m).  Each pivot step charges the budget."""
    budget = Budget.ensure(budget)
    gens = minimal_monomials(monos)
    if not gens:
        return {0: 1}
    n = len(gens[0])
    counts = [sum(1 for m in gens if m[i]) for i in range(n)]
    i = max(range(n), key=counts.__getitem__)
    if counts[i] <= 1:
        k = {0: 1}
        for m in gens:
            k = k_times_one_minus(k, mono_deg(m))
        return k
    budget.charge()
    # x_i lies in two minimal generators, so no pure power x_i^b with
    # b <= a is in J: both branches are strictly larger ideals
    a = sorted(m[i] for m in gens if m[i])[(counts[i] - 1) // 2]
    pivot = tuple(a if j == i else 0 for j in range(n))
    plus = monomial_kpolynomial(gens + [pivot], budget)
    colon = monomial_kpolynomial(
        [tuple(max(e - f, 0) for e, f in zip(m, pivot)) for m in gens], budget)
    return _k_add(plus, colon, a)


def kpolynomial(cols, rank, ring, degrees, budget=None):
    """K-polynomial of coker(cols) with basis row i in degree degrees[i]
    (see row_degrees): in(U)_i is read by position off the leading terms of
    the POT basis of the column span."""
    budget = Budget.ensure(budget)
    lead = [[] for _ in range(rank)]
    for v in module_groebner(cols, rank, ring, budget):
        i = next(i for i, e in enumerate(v) if e)
        lead[i].append(v[i].lm())
    k = {}
    for d, monos in zip(degrees, lead):
        k = _k_add(k, monomial_kpolynomial(monos, budget), d)
    return k


def hilbert_dimension(k, n):
    """Krull dimension n - ord_{t=1} K of a module over n variables with
    K-polynomial k; -1 for the zero module (k = 0)."""
    if not k:
        return -1
    low = min(k)
    coeffs = [k.get(low + d, 0) for d in range(max(k) - low + 1)]
    order = 0
    while sum(coeffs) == 0:
        # divide by (t - 1): synthetic division from the top coefficient
        acc, quotient = 0, []
        for c in reversed(coeffs[1:]):
            acc += c
            quotient.append(acc)
        coeffs = quotient[::-1]
        order += 1
    return n - order


# ---------------------------------------------------------------------------
# free resolutions

class FreeComplex:
    """Composable matrices D_1, ..., D_n with D_i . D_{i+1} = 0; D_i is a
    tuple of columns over S^{rank(i-1)}."""

    __slots__ = ("ring", "rank0", "diffs")

    def __init__(self, ring, rank0, diffs):
        self.ring = ring
        self.rank0 = rank0
        self.diffs = [tuple(d) for d in diffs]

    @property
    def length(self):
        return len(self.diffs)

    def rank(self, i):
        if i == 0:
            return self.rank0
        return len(self.diffs[i - 1])

    def composes_to_zero(self, budget=None):
        for i in range(1, len(self.diffs)):
            upper = self.diffs[i]
            lower = self.diffs[i - 1]
            for col in upper:
                image = apply_columns(lower, col, self.ring, self.rank(i - 1))
                if not vec_is_zero(image):
                    return False
        return True


def _unit_entry(col):
    for i, e in enumerate(col):
        if e and e.is_constant:
            return i
    return None


def _prune_units(cols, ring):
    """Split trivial summands off a matrix: while some column has a unit
    entry in row a, clear row a from the other columns with it, then delete
    that column and row a.  Spans and exactness are preserved.  Returns the
    nonzero columns left and the deleted rows by original index, in order.
    On a syzygy basis of D, deleted row a names a column of D that the
    unit puts in the span of the others; the columns left generate the
    syzygies of D without the deleted columns."""
    cols = [list(c) for c in cols]
    rows = list(range(len(cols[0]))) if cols else []
    deleted = []
    while True:
        hit = None
        for b, col in enumerate(cols):
            a = _unit_entry(col)
            if a is not None:
                hit = (a, b)
                break
        if hit is None:
            break
        a, b = hit
        uinv = pow(cols[b][a].lc(), -1, ring.p)
        for t, col in enumerate(cols):
            if t == b or col[a].is_zero:
                continue
            factor = col[a] * uinv
            cols[t] = [ce - factor * be for ce, be in zip(col, cols[b])]
        cols.pop(b)
        for col in cols:
            col.pop(a)
        deleted.append(rows.pop(a))
    return [tuple(c) for c in cols if not vec_is_zero(c)], deleted


def free_resolution(pres, cap=8, budget=None):
    """Iterated syzygies, one basis per step, with _prune_units on the
    presentation and on each syzygy basis, so no differential has a unit
    entry.  On graded input that is the minimal resolution (graded
    Nakayama, Bruns & Herzog 1.5); on other input a free resolution whose
    length bounds pd.  Returns (FreeComplex, pd), pd None when cap steps
    did not close it.  Requires a free ring."""
    budget = Budget.ensure(budget)
    ring = pres.ring
    if ring.is_quotient:
        raise ValueError("free resolutions are computed over the free ring")
    cols, deleted = _prune_units(pres.columns, ring)
    rank = pres.rank - len(deleted)
    if not cols:
        return FreeComplex(ring, rank, []), 0
    diffs = [cols]
    for step in range(1, cap + 1):
        cur = diffs[-1]
        syz, deleted = _prune_units(
            syzygy_module(cur, len(cur[0]), ring, budget), ring)
        diffs[-1] = [c for j, c in enumerate(cur) if j not in deleted]
        if not syz:
            return FreeComplex(ring, rank, diffs), step
        diffs.append(syz)
    return FreeComplex(ring, rank, diffs), None


def projective_dimension(pres, cap=8, budget=None):
    """The length of `free_resolution(pres)`: pd on graded input, an upper
    bound for pd otherwise; None when cap steps did not close it."""
    _, pd = free_resolution(pres, cap, budget)
    return pd


# ---------------------------------------------------------------------------
# colons

def span_colon(vectors, cols, rank, ring, budget=None):
    """The ideal {r : r*v in the span of cols for every v in vectors}: one
    module colon of the stacked vector (v_1; ...; v_k) into k diagonal
    copies of cols (the unit ideal for k = 0, whose stack is empty)."""
    stacked = tuple(e for v in vectors for e in v)
    blocks = _kron(diagonal_columns(1, len(vectors), ring), cols, ring)
    colon, _ = module_colon([stacked], blocks, len(vectors) * rank, ring,
                            budget)
    return Ideal(ring, [w[0] for w in colon])


def annihilator(pres, budget=None):
    """{r : r*M = 0} as an ideal: the colon of the relations by every unit
    vector."""
    free = pres.ring.free()
    units = diagonal_columns(free.one(), pres.rank, free)
    ann = span_colon(units, pres.lifted_columns(), pres.rank, free, budget)
    return Ideal(pres.ring, ann.gens)


def module_colon_by_element(cols, rank, f, ring, budget=None):
    """Generators of {w in S^rank : f*w in column span}."""
    return module_colon(diagonal_columns(f, rank, ring), cols, rank, ring,
                        budget)[0]
