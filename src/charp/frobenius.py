"""Frobenius-theoretic ideal operators.

Bracket powers, preimages under iterates of the Frobenius endomorphism,
Frobenius closure with stabilization detection, the F-purity test for
quotients of polynomial rings, and f-sequences of ideals (chains {J_e} with
f^{-1}(J_{e+1}) = J_e).

The preimage {r : r^q in J} is a substitution preimage: r^q = r(x_1^q, ...,
x_n^q) in characteristic p, so one tag variable per ring variable with the
relation tag_i - x_i^p plus block elimination computes f^{-1}; higher
iterates compose the single step, which keeps intermediate degrees small.
Monomial ideals in free rings take an exact shortcut: the preimage of a
monomial ideal is generated by the ceiling-divided exponent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, InternalInvariantError, Unresolved
from .groebner import Ideal, colon_ideal, eliminate, radical_membership
from .ring import Block, Polynomial, Ring, minimal_monomials


# ---------------------------------------------------------------------------
# powers and preimages

def frobenius_power(J, e):
    """The bracket power J^[q]: generator-wise q-th powers, q = p^e."""
    if e < 0:
        raise ValueError("e must be >= 0")
    return Ideal(J.ring, [g.frobenius(e) for g in J.gens])


def _preimage_step(gens, free, budget):
    """Generators of {r : r^p in (gens)} in the free ring."""
    p = free.p
    if all(g.is_monomial for g in gens):
        roots = {tuple(-(-x // p) for x in g.lm()) for g in gens}
        return [free.monomial(m)
                for m in minimal_monomials(roots, free.order.key)]
    n = free.nvars
    tags = free.fresh_names(n, "q")
    ext = Ring(p, free.variables + tags, Block(n))
    lifted = [g.transported(ext) for g in gens]
    for v, t in zip(free.variables, tags):
        lifted.append(ext.var(t) - ext.var(v) ** p)
    rename = dict(zip(tags, free.variables))
    return [g.transported(free, rename)
            for g in eliminate(Ideal(ext, lifted), n, budget).gens]


def frobenius_preimage(J, e, budget=None):
    """{r : r^{p^e} in J}, with quotient inputs lifted by the quotient
    ideal.  Computed by iterating the single-step preimage, which is
    deterministic: once a step returns its own input generators, every
    later step would too, so the iteration stops there."""
    if e < 0:
        raise ValueError("e must be >= 0")
    budget = Budget.ensure(budget)
    free = J.ring.free()
    gens = list(J.lifted_gens())
    for _ in range(e):
        step = _preimage_step(gens, free, budget)
        if step == gens:
            break
        gens = step
    return Ideal(J.ring, gens)


# ---------------------------------------------------------------------------
# Frobenius closure

@dataclass
class ClosureResult:
    """Ascending chain C_e = f^{-e}(J^[q] + I0) and where it stabilized.

    stabilized_at is the first e with C_e = C_{e+1}; None means the chain was
    still growing at e_max (consecutive-equality is a heuristic stopping
    rule, recorded as such)."""

    closure: Ideal
    stabilized_at: int | None
    chain: tuple
    heuristic: str = "consecutive-equality"

    @property
    def unresolved(self):
        return self.stabilized_at is None


def frobenius_closure(J, e_max=4, budget=None):
    """Frobenius closure of J (elements r with r^q in J^[q] for some q),
    approximated by the ascending chain up to e_max."""
    budget = Budget.ensure(budget)
    ring = J.ring
    chain = [Ideal(ring, J.gens)]
    for e in range(1, e_max + 1):
        nxt = frobenius_preimage(frobenius_power(J, e), e, budget)
        if not nxt.contains_ideal(chain[-1], budget):
            # r^q in J^[q] + I0 forces r^{qp} in J^[qp] + I0
            raise InternalInvariantError(
                f"closure chain dropped elements between levels {e - 1} and {e}")
        if nxt.equal(chain[-1], budget):
            return ClosureResult(chain[-1], e - 1, tuple(chain))
        chain.append(nxt)
    return ClosureResult(chain[-1], None, tuple(chain))


def is_frobenius_closed(J, e_max=4, budget=None):
    """True/False, or None when the answer is still open, read off the
    closure chain: stabilized at level 0 is True; a chain of level 0 alone
    (e_max = 0) is None; any later level strictly contains the one before
    it, so the closure is larger than J and the answer is False."""
    res = frobenius_closure(J, e_max, budget)
    if res.stabilized_at == 0:
        return True
    return None if len(res.chain) == 1 else False


# ---------------------------------------------------------------------------
# Fedder's criterion

@dataclass
class FPurityReport:
    """Outcome of the F-purity test for R = S/I at the maximal ideal m:
    R is F-pure iff (I^[p] : I) is not contained in m^[p].  The witness,
    when present, is a colon generator outside m^[p]."""

    is_f_pure: bool
    witness: Polynomial | None
    q: int
    colon: Ideal


def _is_rational_point(m, budget):
    """m is (x_1 - a_1, ..., x_n - a_n) for some a in F_p^n: the leading
    monomials of its reduced basis are the n variables (every tail term is
    then a constant, the only monomial no variable divides)."""
    gb = m.groebner_basis(budget)
    n = m.ring.nvars
    return (len(gb) == n and {g.lm() for g in gb}
            == {tuple(int(j == i) for j in range(n)) for i in range(n)})


def fedder_f_pure(ring, m=None, budget=None):
    """Apply the colon-containment criterion at q = p (which settles every
    q) to the quotient ring.  Raises ValueError unless m is the maximal
    ideal of an F_p-rational point, and when m does not contain the
    defining ideal: its point is then not on V(I)."""
    budget = Budget.ensure(budget)
    free = ring.free()
    p = ring.p
    if m is None:
        m = Ideal(free, free.gens())
    elif not _is_rational_point(m, budget):
        raise ValueError(f"{m!r} is not the maximal ideal of an "
                         f"F_{p}-rational point (x_1 - a_1, ..., x_n - a_n)")
    I = Ideal(free, ring.quotient)
    if not m.contains_ideal(I, budget):
        raise ValueError(f"the point of {m!r} is not on V(I): it does not "
                         f"contain the defining ideal {I!r}")
    if not I.gens:
        colon = Ideal(free, [free.one()])
        return FPurityReport(True, free.one(), p, colon)
    colon = colon_ideal(frobenius_power(I, 1), I, budget)
    mp = frobenius_power(m, 1)
    witness = None
    for g in colon.groebner_basis(budget):
        if not mp.contains(g, budget):
            witness = g
            break
    return FPurityReport(witness is not None, witness, p, colon)


# ---------------------------------------------------------------------------
# f-sequences

@dataclass
class FSequence:
    """A finite prefix J_0, ..., J_E of a chain with f^{-1}(J_{e+1}) = J_e."""

    ring: Ring
    terms: tuple

    @classmethod
    def bracket_chain(cls, I, E):
        return cls(I.ring, tuple(frobenius_power(I, e) for e in range(E + 1)))

    @classmethod
    def constant_chain(cls, P, E):
        return cls(P.ring, (P,) * (E + 1))

    @classmethod
    def explicit(cls, ring, terms):
        return cls(ring, tuple(terms))

    def __len__(self):
        return len(self.terms)

    @property
    def top_index(self):
        return len(self.terms) - 1


def fseq_verify(seq, budget=None):
    """Check f^{-1}(J_{e+1}) = J_e for every consecutive pair.  Returns
    (ok, first failing index or None)."""
    budget = Budget.ensure(budget)
    if len(seq) < 2:
        raise ValueError("an f-sequence prefix needs at least two terms")
    for e in range(len(seq) - 1):
        pre = frobenius_preimage(seq.terms[e + 1], 1, budget)
        if not pre.equal(seq.terms[e], budget):
            return False, e
    return True, None


def fseq_radical_stabilize(seq, e_max=8, budget=None):
    """Iterate f^{-1} on J_0 until two consecutive terms agree; the stable
    ideal is the common radical of the whole sequence, and the mutual
    radical-membership check enforces exactly that."""
    budget = Budget.ensure(budget)
    if not seq.terms:
        raise ValueError("an f-sequence prefix needs at least one term")
    current = seq.terms[0]
    for _ in range(e_max):
        nxt = frobenius_preimage(current, 1, budget)
        if nxt.equal(current, budget):
            base = seq.terms[0]
            for g in current.groebner_basis(budget):
                if not radical_membership(g, base, budget):
                    raise InternalInvariantError(
                        f"stable ideal generator {g} escapes the radical of J_0")
            for g in base.lifted_gens():
                if not radical_membership(g, current, budget):
                    raise InternalInvariantError(
                        f"J_0 generator {g} escapes the radical of the stable ideal")
            return current
        current = nxt
    raise Unresolved(f"preimage chain still moving after {e_max} steps",
                     partial=current)
