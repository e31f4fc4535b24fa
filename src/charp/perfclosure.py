"""Finite representations of the perfect closure.

A root element (e, r) stands for r^(1/p^e); a finitely root-generated ideal
of the perfect closure is a list of root elements.  Truncation at level L
identifies R^(1/p^L) with R itself by renaming u_i = x_i^(1/p^L), under
which an element r of R becomes r with every exponent scaled by p^L, and a
root element (e, r) becomes r scaled by p^(L-e).  All contractions are then
ordinary Frobenius preimages in the renamed copy, so the Groebner engine
never sees a fractional exponent.

Text syntax for root elements: `root(e, <poly>)`, or a bare polynomial for
level 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .budget import Budget, Unresolved
from .frobenius import (FSequence, frobenius_closure, frobenius_power,
                        frobenius_preimage, fseq_verify)
from .groebner import Ideal, radical_membership


# ---------------------------------------------------------------------------
# root elements

class RootElement:
    """r^(1/p^e) for r in R.  In a free ring the representation is
    canonicalized (the body keeps no p-th root unless the level is 0);
    equality across representations raises both sides to a common level and
    compares in R, which is faithful because R is reduced."""

    __slots__ = ("ring", "level", "body")

    def __init__(self, ring, level, body):
        if isinstance(body, str):
            body = ring.poly(body)
        level = int(level)
        if level < 0:
            raise ValueError("root level must be >= 0")
        if not ring.is_quotient:
            if body.is_constant:
                level = 0     # a constant of F_p is its own p-th root
            while level > 0:
                root = body.pth_root(1)
                if root is None:
                    break
                body = root
                level -= 1
        self.ring = ring
        self.level = level
        self.body = body

    def raised(self, to_level):
        """The body of this element viewed at truncation level
        to_level >= level: r^(p^(to_level - level))."""
        if to_level < self.level:
            raise ValueError("cannot lower a root level")
        return self.body.frobenius(to_level - self.level)

    def __eq__(self, other):
        if not isinstance(other, RootElement):
            return NotImplemented
        return root_equal(self, other)

    __hash__ = None

    def __repr__(self):
        if self.level == 0:
            return str(self.body)
        return f"root({self.level}, {self.body})"


def root_equal(a, b, budget=None):
    """(e, r) and (e', r') agree in the perfect closure iff
    r^(p^e') = r'^(p^e) holds in R."""
    if not a.ring.compatible(b.ring):
        raise ValueError("root elements of different rings")
    L = max(a.level, b.level)
    lhs = a.raised(L)
    rhs = b.raised(L)
    diff = lhs - rhs
    if diff.is_zero:
        return True
    quotient = Ideal(a.ring.free(), a.ring.quotient)
    if not quotient.gens:
        return False
    return quotient.contains(diff, budget)


_ROOT_RE = re.compile(r"\s*root\s*\(\s*(\d+)\s*,(.*)\)\s*$", re.DOTALL)


def parse_root(text, ring):
    m = _ROOT_RE.match(text)
    if m:
        return RootElement(ring, int(m.group(1)), ring.poly(m.group(2)))
    return RootElement(ring, 0, ring.poly(text))


class PerfectClosureIdeal:
    """A finitely root-generated ideal of the perfect closure."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_root(g, ring)
            elif isinstance(g, tuple):
                g = RootElement(ring, g[0], g[1])
            if g.body:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    @property
    def max_level(self):
        return max((g.level for g in self.generators), default=0)

    def truncation_ideal(self, L):
        """The ideal these generators span inside R^(1/p^L), written in the
        renamed coordinates (an honest ideal of the renamed copy of R)."""
        if L < self.max_level:
            raise ValueError(f"truncation level {L} below a generator level")
        return Ideal(self.ring, [g.raised(L) for g in self.generators])

    def __repr__(self):
        return "(" + ", ".join(repr(g) for g in self.generators) + ")"


# ---------------------------------------------------------------------------
# membership and the Gamma correspondence

def extended_ideal_membership(r, I, e_max=4, budget=None):
    """Does r lie in I extended to the perfect closure and contracted back
    (equivalently, in the Frobenius closure of I)?  None when the closure
    chain was still growing and r was not yet captured."""
    budget = Budget.ensure(budget)
    res = frobenius_closure(I, e_max, budget)
    if res.closure.contains(r, budget):
        return True
    return False if not res.unresolved else None


@dataclass
class GammaReport:
    """Contraction chain output: the f-sequence prefix J_0..J_E obtained by
    contracting a root-generated ideal level by level, with the truncation
    level at which each contraction stabilized."""

    sequence: FSequence
    verified: bool
    failing_index: int | None
    levels_used: tuple


def gamma_fseq(J, E, lift_cap=6, budget=None):
    """The f-sequence corresponding to a finitely root-generated ideal:
    J_e = {r in R : r^(1/p^e) in J}, computed as stabilized contractions
    from truncation levels L <= lift_cap."""
    budget = Budget.ensure(budget)
    ring = J.ring
    terms = []
    levels = []
    for e in range(E + 1):
        L0 = max(e, J.max_level)
        if L0 > lift_cap:
            raise Unresolved(f"level {e} needs truncations past lift_cap={lift_cap}")
        prev = None
        settled = None
        for L in range(L0, lift_cap + 1):
            trunc = J.truncation_ideal(L)
            cur = frobenius_preimage(trunc, L - e, budget)
            if prev is not None and cur.equal(prev, budget):
                settled = (cur, L - 1)
                break
            prev = cur
        if settled is None:
            raise Unresolved(
                f"contraction chain at level {e} still moving at lift_cap={lift_cap}",
                partial=FSequence.explicit(ring, terms) if terms else None)
        terms.append(settled[0])
        levels.append(settled[1])
    seq = FSequence.explicit(ring, terms)
    ok, fail = fseq_verify(seq, budget) if len(terms) >= 2 else (True, None)
    return GammaReport(seq, ok, fail, tuple(levels))


def fseq_to_perfect_ideal(seq):
    """The root-generated ideal matching an f-sequence prefix: take the
    p^e-th roots of the generators of J_e for every represented level."""
    ring = seq.ring
    roots = []
    for e, term in enumerate(seq.terms):
        for g in term.gens:
            cand = RootElement(ring, e, g)
            if not any(root_equal(cand, r) for r in roots):
                roots.append(cand)
    return PerfectClosureIdeal(ring, roots)


# ---------------------------------------------------------------------------
# the contraction homeomorphism at truncation levels

@dataclass
class PrimeLevelCheck:
    level: int
    radical_ok: bool
    contraction_ok: bool
    order_ok: bool

    @property
    def passed(self):
        return self.radical_ok and self.contraction_ok and self.order_ok


@dataclass
class PrimeCheckReport:
    prime: Ideal
    levels: list

    @property
    def passed(self):
        return all(rec.passed for rec in self.levels)


def _certify_prime(P, budget):
    """Accept primes generated by independent linear forms (distinct
    variables and the zero ideal included): every generator is a linear
    form and the reduced basis, their echelon form, keeps one element per
    generator.  Anything else is rejected as non-certifiable."""
    return (all(g.degree() == 1 and g.is_homogeneous for g in P.gens)
            and len(P.groebner_basis(budget)) == len(P.gens))


def _monomial_primes(ring):
    import itertools
    out = []
    names = ring.variables
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            out.append(Ideal(ring, [ring.var(v) for v in combo]))
    return out


def prime_extension_check(P, q_levels=3, budget=None):
    """Finite evidence that contraction is a homeomorphism on spectra: at
    each truncation level the extension of P has radical exactly the renamed
    P, contracts back to P, and containments among sample primes are
    preserved both ways."""
    if P.ring.is_quotient:
        raise ValueError("prime_extension_check runs over the free ring")
    budget = Budget.ensure(budget)
    ring = P.ring
    base = Ideal(ring, P.gens)
    if not _certify_prime(base, budget):
        raise ValueError("prime_extension_check needs a monomial or linear prime")
    samples = _monomial_primes(ring)
    base_rel = [(base.contains_ideal(Q, budget), Q.contains_ideal(base, budget))
                for Q in samples]
    levels = []
    for e in range(1, q_levels + 1):
        ext = frobenius_power(base, e)
        radical_ok = all(radical_membership(g, ext, budget) for g in base.gens) \
            and base.contains_ideal(ext, budget)
        contraction_ok = frobenius_preimage(ext, e, budget).equal(base, budget)
        order_ok = True
        for Q, (fwd, bwd) in zip(samples, base_rel):
            Qext = frobenius_power(Q, e)
            if ext.contains_ideal(Qext, budget) != fwd:
                order_ok = False
                break
            if Qext.contains_ideal(ext, budget) != bwd:
                order_ok = False
                break
        levels.append(PrimeLevelCheck(e, radical_ok, contraction_ok, order_ok))
    return PrimeCheckReport(base, levels)


# ---------------------------------------------------------------------------
# zero closures of Frobenius iterates

def zero_closure_cyclic(I, e, e_max=4, budget=None):
    """0^F of F^e(R/I) in the cyclic avatar R/I^[q]: the Frobenius closure
    of the bracket power, returned as a lifted ideal."""
    budget = Budget.ensure(budget)
    res = frobenius_closure(frobenius_power(I, e), e_max, budget)
    if res.unresolved:
        raise Unresolved(f"closure of the level-{e} bracket power unresolved "
                         f"within e_max={e_max}", partial=res.closure)
    return res.closure


def principal_variable_obstruction(ring, e_max=4):
    """The degree-accounting obstruction in one variable: for every monomial
    r representing x^(j/p^e) with j < p^e (so r is outside (x) at level e),
    the product x^(1/p^(e+1)) * r stays outside (x) at level e+1.  Checked by
    honest ideal membership in the renamed truncation.  This is why the
    principal maximal ideal is associated to no element at any finite level.
    Returns a list of (e, ok) pairs."""
    if ring.nvars != 1 or ring.is_quotient:
        raise ValueError("expected a free ring in one variable")
    p = ring.p
    x = ring.gens()[0]
    results = []
    for e in range(e_max + 1):
        # truncation level L = e + 1: u = x^(1/p^(L)); x becomes u^(p^L),
        # level-e elements are polynomials in u^p, and x^(1/p^(e+1)) is u.
        L = e + 1
        target = Ideal(ring, [x.frobenius(L)])      # (x) inside R^(1/p^L)
        ok = True
        for j in range(p ** e):                      # x^(j/p^e), j < p^e
            r = ring.monomial((j * p,))              # u-degree j*p < p^(L)
            prod = ring.monomial((1,)) * r           # multiply by u
            if target.contains(prod):
                ok = False
                break
        results.append((e, ok))
    return results
