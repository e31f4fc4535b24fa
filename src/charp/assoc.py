"""Associated primes on the Noetherian side.

Two exact paths cover the verification corpus: the full combinatorial
Ass(S/I) for monomial ideals (every associated prime of a monomial ideal is
generated by variables and witnessed by a monomial below the lcm of the
generators), and a depth-zero test at a rational point for everything else.

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

import itertools
from dataclasses import dataclass, field

from .budget import Budget
from .groebner import Ideal
from .ring import minimal_monomials, mono_divides

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


def ass_monomial(I, budget=None):
    """All of Ass(S/I) for a monomial ideal I, each prime with a witness
    monomial b such that (I : b) is exactly that prime."""
    budget = Budget.ensure(budget)
    ring = I.ring.free()
    gens = [g.transported(ring) for g in I.lifted_gens()]
    if any(not g.is_monomial for g in gens):
        raise ValueError("ass_monomial needs monomial generators")
    minimal = minimal_monomials((g.lm() for g in gens), ring.order.key)
    if not minimal:
        # the zero ideal over a domain
        return (PrimeIdealRecord((), witness=ring.one()),)
    if all(e == 0 for e in minimal[0]):
        return ()  # unit ideal: the zero module has no associated primes
    n = ring.nvars
    bounds = [max(m[i] for m in minimal) for i in range(n)]
    found = {}
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        if any(mono_divides(m, exps) for m in minimal):
            continue  # witness already in I
        budget.charge()
        keep = minimal_monomials((tuple(max(x - e, 0) for x, e in zip(m, exps))
                                  for m in minimal), ring.order.key)
        prime_vars = set()
        is_prime = True
        for m in keep:
            support = [i for i, e in enumerate(m) if e]
            if len(support) != 1 or m[support[0]] != 1:
                is_prime = False
                break
            prime_vars.add(support[0])
        if is_prime and keep:
            key = _sorted_vars(ring, prime_vars)
            if key not in found:
                found[key] = ring.monomial(exps)
    records = [PrimeIdealRecord(vs, witness=w) for vs, w in sorted(found.items(),
               key=lambda kv: (len(kv[0]), kv[0]))]
    return tuple(records)


def minimal_primes_monomial(I, budget=None):
    """Minimal primes of a monomial ideal by irreducible-component splitting:
    choose one supporting variable from each minimal generator."""
    ring = I.ring.free()
    gens = [g.transported(ring) for g in I.lifted_gens()]
    if any(not g.is_monomial for g in gens):
        raise ValueError("monomial generators required")
    minimal = minimal_monomials((g.lm() for g in gens), ring.order.key)
    if not minimal:
        return ((),)
    covers = {frozenset()}
    for m in minimal:
        support = [i for i, e in enumerate(m) if e]
        covers = {c | {i} for c in covers for i in support}
    keep = []
    for c in sorted(covers, key=lambda c: (len(c), sorted(c))):
        if not any(k <= c for k in keep):
            keep.append(c)
    return tuple(_sorted_vars(ring, c) for c in keep)


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
