"""Associated primes on the Noetherian side.

Two exact paths cover the verification corpus: the full combinatorial
Ass(S/I) for monomial ideals (the supports of the irreducible components
of I, each witnessed by a monomial certified by the exact colon), and a
depth-zero test at a rational point for everything else.

Unions along f-sequences additionally carry records tagged with the
contraction-side interpretation: the weakly associated and strong Krull
primes of the corresponding quotient over the perfect closure are exactly
the preimages of the union under the contraction homeomorphism, and the
engine represents them through that identification rather than by any
direct computation over the non-Noetherian extension.  Plain associated
primes over the extension are NOT claimed by the identification (they can
be empty even when the union is not), so no record ever pairs kind "Ass"
with the extension side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .budget import Budget, InternalInvariantError
from .groebner import Ideal
from .ring import minimal_monomials

KIND_ASS = "Ass"
KIND_WEAK = "wAss"
KIND_STRONG_KRULL = "sK"
SIDE_BASE = "R"
SIDE_EXTENSION = "R-infinity-via-phi"


@dataclass(frozen=True)
class PrimeIdealRecord:
    """A variable-generated prime (x_i : i in variables); the empty tuple is
    the zero ideal.  Records on the extension side denote the preimage prime
    under contraction and are stored by the contraction itself."""

    variables: tuple
    kind: str = KIND_ASS
    side: str = SIDE_BASE
    witness: object = field(default=None, compare=False)
    first_seen: object = field(default=None, compare=False)

    def ideal(self, ring):
        return Ideal(ring, [ring.var(v) for v in self.variables])

    def __str__(self):
        body = "(" + (", ".join(self.variables) if self.variables else "0") + ")"
        return f"{body}[{self.kind}@{self.side}]"


def _sorted_vars(ring, indices):
    return tuple(ring.variables[i] for i in sorted(indices))


def _decompose(I, budget):
    """The free ring, minimal generators and irreducible components of I."""
    ring = I.ring.free()
    gens = [g.transported(ring) for g in I.lifted_gens()]
    if any(not g.is_monomial for g in gens):
        raise ValueError("monomial generators required")
    minimal = minimal_monomials((g.lm() for g in gens), ring.order.key)
    return ring, minimal, _components(minimal, ring.nvars, budget)


def _components(minimal, n, budget):
    """The irredundant irreducible components of the monomial ideal with
    these minimal generators, each an exponent tuple a standing for
    (x_i^{a_i} : a_i > 0).  From the zero ideal, add one generator x^b at a
    time: (x^b) is the meet of the (x_i^{b_i}) and the lattice is
    distributive, so a component containing x^b stays and any other q
    becomes the q + (x_i^{b_i}), i in supp b; only these can be redundant.
    One budget step per (generator, component) pair."""
    components = [(0,) * n]
    for b in minimal:
        kept, split = [], set()
        for a in components:
            budget.charge()
            if any(0 < x <= y for x, y in zip(a, b)):
                kept.append(a)
            else:
                split.update(a[:i] + (y,) + a[i + 1:]
                             for i, y in enumerate(b) if y)
        new = sorted(split)  # drop each new component containing another
        components = kept + [a for a in new if not any(
            c != a and all(0 < x <= y for x, y in zip(a, c) if y)
            for c in kept + new)]
    return components


def ass_monomial(I, budget=None):
    """All of Ass(S/I) for a monomial ideal I, each prime with a witness
    monomial b such that (I : b) is exactly that prime.  For a component a
    with support P, b is x^(a - 1) on P and the top generator exponent
    elsewhere: components reaching outside P contain b, and by irredundancy
    so does every other one but a, hence (I : b) = P."""
    budget = Budget.ensure(budget)
    ring, minimal, components = _decompose(I, budget)
    top = [max((m[i] for m in minimal), default=0) for i in range(ring.nvars)]
    found = {}
    for a in sorted(components):
        P = [i for i, x in enumerate(a) if x]
        b = tuple(x - 1 if x else t for x, t in zip(a, top))
        colon = minimal_monomials(tuple(max(x - y, 0) for x, y in zip(m, b))
                                  for m in minimal)
        if sorted(colon) != sorted(tuple(int(j == i) for j in range(len(a)))
                                   for i in P):
            raise InternalInvariantError(f"(I : {b}) = {colon}, not {P}")
        found.setdefault(_sorted_vars(ring, P), ring.monomial(b))
    return tuple(PrimeIdealRecord(vs, witness=w) for vs, w in
                 sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])))


def minimal_primes_monomial(I, budget=None):
    """Minimal primes of a monomial ideal: the minimal supports of its
    irreducible components."""
    ring, _, components = _decompose(I, Budget.ensure(budget))
    supports = {frozenset(i for i, x in enumerate(a) if x) for a in components}
    keep = [s for s in supports if not any(t < s for t in supports)]
    return tuple(_sorted_vars(ring, s)
                 for s in sorted(keep, key=lambda s: (len(s), sorted(s))))


def maximal_in_ass(J, point, budget=None):
    """Is the maximal ideal at a rational point of V(J) associated?
    Translates the point to the origin and tests depth zero there (the top
    Koszul homology on the variables is nonzero exactly when the socle is)."""
    from .depth import koszul_homology_nonzero
    from .modules import ModulePresentation

    budget = Budget.ensure(budget)
    ring = J.ring
    free = ring.free()
    point = tuple(int(c) % ring.p for c in point)
    if len(point) != ring.nvars:
        raise ValueError("point length does not match the variable count")
    gens = [g.transported(free) for g in J.lifted_gens()]
    for g in gens:
        if g.evaluate(point) != 0:
            raise ValueError(f"point {point} is not on V(J): {g} does not vanish")
    shifted = [g.shifted(point) for g in gens]
    pres = ModulePresentation.cyclic(free, shifted)
    xs = list(free.gens())
    return koszul_homology_nonzero(xs, pres, len(xs), budget)


def union_ass_fseq(seq, budget=None):
    """Union over e of Ass(R/J_e) along an f-sequence, with first_seen
    levels, plus the extension-side records this union identifies (weakly
    associated and strong Krull primes of the corresponding extension
    quotient, stored by contraction)."""
    budget = Budget.ensure(budget)
    first = {}
    witnesses = {}
    for e, J in enumerate(seq.terms):
        for rec in ass_monomial(J, budget):
            if rec.variables not in first:
                first[rec.variables] = e
                witnesses[rec.variables] = rec.witness
    out = []
    for vs in sorted(first, key=lambda v: (len(v), v)):
        e = first[vs]
        w = witnesses[vs]
        out.append(PrimeIdealRecord(vs, KIND_ASS, SIDE_BASE, w, e))
        out.append(PrimeIdealRecord(vs, KIND_WEAK, SIDE_EXTENSION, w, e))
        out.append(PrimeIdealRecord(vs, KIND_STRONG_KRULL, SIDE_EXTENSION, w, e))
    return tuple(out)
