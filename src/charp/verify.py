"""Batch verification suites: worked examples, oracle cross-checks, and
randomized invariants.

Three named suites:

  examples          -- every worked-example check (exact expected values)
  oracles           -- depth by three independent routes on random graded
                       cyclic modules: Koszul homology, n - pd through free
                       resolutions, and greedy regular-sequence search
  invariants-random -- randomized structural properties of every module

`paper-examples` is accepted as an alias for `examples`.

Each check produces pass/fail/unresolved plus a one-line anchor stating the
mathematical fact being verified.  Reports are deterministic for a fixed
seed: byte-identical text and JSON across runs.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass

from .assoc import (SIDE_BASE, SIDE_EXTENSION, ass_monomial, maximal_in_ass,
                    minimal_primes_monomial, union_ass_fseq)
from .budget import Budget, BudgetExceeded, InternalInvariantError, Unresolved
from .depth import (cdepth_lower_bound, classical_depth_search,
                    depth_at_origin, frobenius_functor,
                    kdepth_truncation_profile, kgrade,
                    regular_sequence_check, sdepth)
from .frobenius import (FSequence, fedder_f_pure, frobenius_closure,
                        frobenius_power, frobenius_preimage,
                        fseq_radical_stabilize, fseq_verify,
                        is_frobenius_closed)
from .groebner import (Ideal, colon_ideal, eliminate, normal_form_poly,
                       radical_membership)
from .modules import (ModulePresentation, annihilator, apply_columns,
                      free_resolution, in_module, kpolynomial,
                      module_groebner, row_degrees, syzygy_module,
                      vec_is_zero)
from .parse import parse_poly, parse_ring
from .perfclosure import (PerfectClosureIdeal, fseq_to_perfect_ideal,
                          gamma_fseq, prime_extension_check,
                          principal_variable_obstruction, root_equal,
                          RootElement, extended_ideal_membership,
                          zero_closure_cyclic)
from .ring import mono_deg, mono_div, mono_lcm


# ---------------------------------------------------------------------------
# random corpora

def random_monomial(ring, rng, max_deg=3):
    n = ring.nvars
    while True:
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        if any(exps) and mono_deg(exps) <= max_deg:
            return exps


def random_monomial_ideal(ring, rng, max_deg=3, max_gens=3):
    k = rng.randrange(1, max_gens + 1)
    return Ideal(ring, [ring.monomial(random_monomial(ring, rng, max_deg))
                        for _ in range(k)])


def random_homogeneous_binomial(ring, rng, max_deg=4):
    deg = rng.randrange(1, max_deg + 1)
    n = ring.nvars
    monos = [m for m in itertools.product(range(deg + 1), repeat=n)
             if mono_deg(m) == deg]
    m1, m2 = rng.sample(monos, 2) if len(monos) >= 2 else (monos[0], monos[0])
    c = rng.randrange(1, ring.p)
    return ring.monomial(m1) + c * ring.monomial(m2)


def random_graded_cyclic_ideal(ring, rng, max_deg=4, max_gens=3,
                               monomial_only=False):
    k = rng.randrange(1, max_gens + 1)
    gens = []
    for _ in range(k):
        if monomial_only or rng.random() < 0.6:
            gens.append(ring.monomial(random_monomial(ring, rng, max_deg)))
        else:
            gens.append(random_homogeneous_binomial(ring, rng, max_deg))
    return Ideal(ring, gens)


def random_form(ring, rng, deg, max_terms=3):
    """A nonzero form of degree `deg` with up to `max_terms` terms."""
    monos = [m for m in itertools.product(range(deg + 1), repeat=ring.nvars)
             if mono_deg(m) == deg]
    picked = rng.sample(monos, min(len(monos), rng.randrange(1, max_terms + 1)))
    return ring.from_dict({m: rng.randrange(1, ring.p) for m in picked})


def random_graded_module(ring, rng, max_rank=3, max_deg=2):
    """coker of a homogeneous matrix over S^r, 1 <= r <= max_rank: rows in
    degree 0 or 1, every nonzero entry a form of degree >= 1 (so no unit
    entry splits a row off), each column nonzero."""
    rank = rng.randrange(1, max_rank + 1)
    rows = [rng.randrange(2) for _ in range(rank)]
    cols = []
    for _ in range(rng.randrange(1, rank + 3)):
        top = max(rows) + rng.randrange(1, max_deg + 1)
        col = [random_form(ring, rng, top - d) if rng.random() < 0.7
               else ring.zero() for d in rows]
        if vec_is_zero(col):
            i = rng.randrange(rank)
            col[i] = random_form(ring, rng, top - rows[i])
        cols.append(tuple(col))
    return ModulePresentation(ring, rank, cols)


def resolution_kpolynomial(cx, degrees):
    """sum_i (-1)^i sum_j t^{deg of generator j of F_i} for a homogeneous
    free resolution cx whose F_0 rows sit in `degrees`; each generator of
    F_i takes the degree of its column in D_i."""
    k = {}
    for i in range(cx.length + 1):
        for d in degrees:
            k[d] = k.get(d, 0) + (-1) ** i
        if i < cx.length:
            degrees = [next(r + e.degree() for r, e in zip(degrees, col) if e)
                       for col in cx.diffs[i]]
    return {d: c for d, c in k.items() if c}


def random_poly(ring, rng, max_deg=3, max_terms=4):
    """1 to max_terms distinct monomials of total degree <= max_deg, each
    with a nonzero coefficient."""
    monos = [e for e in itertools.product(range(max_deg + 1), repeat=ring.nvars)
             if sum(e) <= max_deg]
    count = min(rng.randrange(1, max_terms + 1), len(monos))
    return ring.from_dict({m: rng.randrange(1, ring.p)
                           for m in rng.sample(monos, count)})


# ---------------------------------------------------------------------------
# brute-force membership: sparse echelon over F_p, fully independent of the
# Buchberger engine

class _Echelon:
    def __init__(self, ring):
        self.ring = ring
        self.rows = {}
        self.ranks = {}

    def _rank(self, m):
        """(negated order key, m): the heap pops the largest m first."""
        if m not in self.ranks:
            self.ranks[m] = tuple(-k for k in self.ring.order.key(m)), m
        return self.ranks[m]

    def _reduce(self, work):
        """Clear leads of `work` largest first; a popped monomial that
        cancelled after it was pushed is skipped."""
        p = self.ring.p
        heap = [self._rank(m) for m in work]
        heapq.heapify(heap)
        while heap:
            lm = heapq.heappop(heap)[1]
            if lm not in work:
                continue
            row = self.rows.get(lm)
            if row is None:
                return lm, work
            c = work[lm]
            for m, rc in row.items():
                if m not in work:
                    heapq.heappush(heap, self._rank(m))
                nc = (work.get(m, 0) - c * rc) % p
                if nc:
                    work[m] = nc
                else:
                    work.pop(m, None)
        return None, work

    def insert(self, poly):
        lm, work = self._reduce(dict(poly.terms))
        if lm is None:
            return
        inv = pow(work[lm], -1, self.ring.p)
        self.rows[lm] = {m: (c * inv) % self.ring.p for m, c in work.items()}

    def contains(self, poly):
        lm, _ = self._reduce(dict(poly.terms))
        return lm is None


def brute_force_members(f, gens, caps):
    """For each cap of the increasing `caps`: is f an F_p-linear combination
    of {monomial * generator} with cofactor degree at most cap?  Pure linear
    algebra, no Groebner machinery; the one echelon grows cap by cap."""
    ring = f.ring
    ech = _Echelon(ring)
    low = -1
    for cap in caps:
        for g in gens:
            for m in itertools.product(range(cap + 1), repeat=ring.nvars):
                if low < mono_deg(m) <= cap:
                    ech.insert(ring.monomial(m) * g)
        low = cap
        yield ech.contains(f)


def membership_agrees(f, ideal, budget=None, caps=(6, 9, 12)):
    """Compare engine membership with the brute-force oracle; returns
    (agree, engine_answer)."""
    engine = ideal.contains(f, budget)
    if any(brute_force_members(f, list(ideal.lifted_gens()), caps)):
        return engine, engine  # brute certifies membership
    return (not engine), engine    # brute never found cofactors


# ---------------------------------------------------------------------------
# check registry

@dataclass
class CheckResult:
    check_id: str
    anchor: str
    status: str          # pass | fail | unresolved
    detail: str
    seconds: float


@dataclass
class Check:
    check_id: str
    anchor: str
    suites: tuple
    fn: object


CHECKS = []


def check(check_id, anchor, suites):
    def wrap(fn):
        CHECKS.append(Check(check_id, anchor, tuple(suites), fn))
        return fn

    return wrap


@dataclass
class Context:
    seed: int = 0
    count: int = 20
    budget_limit: int = 10 ** 6

    def rng(self, salt=""):
        # string seeds hash deterministically across processes
        return random.Random(f"{self.seed}/{salt}")

    def budget(self):
        return Budget(self.budget_limit)


PASS = "pass"
FAIL = "fail"
UNRESOLVED = "unresolved"


def _ok(cond, detail=""):
    return (PASS if cond else FAIL), detail


# ---------------------------------------------------------------------------
# worked-example checks

@check("fedder/hypersurface", "F_p[x,y,z]/(x^p - y*z^p) is not F-pure for p in {2,3,5}",
       ("examples",))
def _fedder_hypersurface(ctx):
    for p in (2, 3, 5):
        ring = parse_ring(f"F_{p}[x,y,z]/(x^{p} - y*z^{p})")
        rep = fedder_f_pure(ring, budget=ctx.budget())
        if rep.is_f_pure:
            return FAIL, f"p={p} reported F-pure"
    return PASS, "not F-pure at p=2,3,5"


@check("fedder/coordinate-cross", "F_p[x,y]/(x*y) is F-pure with witness (x*y)^(p-1)",
       ("examples",))
def _fedder_cross(ctx):
    for p in (2, 3):
        ring = parse_ring(f"F_{p}[x,y]/(x*y)")
        rep = fedder_f_pure(ring, budget=ctx.budget())
        if not rep.is_f_pure or rep.witness is None:
            return FAIL, f"p={p} not recognized as F-pure"
        mp = frobenius_power(Ideal(ring.free(), ring.free().gens()), 1)
        if mp.contains(rep.witness):
            return FAIL, f"p={p} witness inside the bracket of the maximal ideal"
    return PASS, "F-pure at p=2,3 with valid witnesses"


@check("fedder/regular-ring", "polynomial rings are F-pure", ("examples",))
def _fedder_regular(ctx):
    rep = fedder_f_pure(parse_ring("F_2[x,y]"), budget=ctx.budget())
    return _ok(rep.is_f_pure, "free ring F-pure")


@check("closure/witness", "x lies in the Frobenius closure of (z) but not in (z) "
       "in F_p[x,y,z]/(x^p - y*z^p)", ("examples",))
def _closure_witness(ctx):
    for p, emax in ((2, 3), (3, 3)):
        ring = parse_ring(f"F_{p}[x,y,z]/(x^{p} - y*z^{p})")
        J = Ideal(ring, ["z"])
        res = frobenius_closure(J, emax, ctx.budget())
        x = ring.free().poly("x")
        if not res.closure.contains(x):
            return FAIL, f"p={p}: closure misses x"
        if Ideal(ring, ["z"]).contains(x):
            return FAIL, f"p={p}: x already in (z)"
        if is_frobenius_closed(J, emax, ctx.budget()) is not False:
            return FAIL, f"p={p}: (z) not recognized as non-closed"
    return PASS, "closure gains x; (z) not Frobenius closed"


@check("closure/monomial-closed", "(x^2, x*y) is Frobenius closed in F_2[x,y]",
       ("examples",))
def _closure_monomial(ctx):
    res = frobenius_closure(Ideal(parse_ring("F_2[x,y]"), ["x^2", "x*y"]), 2,
                            ctx.budget())
    return _ok(res.stabilized_at == 0, f"stabilized_at={res.stabilized_at}")


@check("closure/zero-ideal", "the zero ideal is Frobenius closed", ("examples",))
def _closure_zero(ctx):
    ok = is_frobenius_closed(Ideal(parse_ring("F_2[x,y]"), []), 2, ctx.budget())
    return _ok(ok is True, "")


@check("fseq/bracket", "{(x^q, y^q)} is an f-sequence with radical (x,y)",
       ("examples",))
def _fseq_bracket(ctx):
    R = parse_ring("F_2[x,y]")
    seq = FSequence.bracket_chain(Ideal(R, ["x", "y"]), 5)
    ok, idx = fseq_verify(seq, ctx.budget())
    if not ok:
        return FAIL, f"fails at index {idx}"
    rad = fseq_radical_stabilize(seq, budget=ctx.budget())
    return _ok(rad.equal(Ideal(R, ["x", "y"])), f"radical {rad.basis_str()}")


@check("fseq/tower", "{(x, y^q)} is an f-sequence with radical (x,y)",
       ("examples",))
def _fseq_tower(ctx):
    R = parse_ring("F_2[x,y]")
    seq = FSequence.explicit(R, [Ideal(R, ["x", f"y^{2 ** e}"]) for e in range(6)])
    ok, idx = fseq_verify(seq, ctx.budget())
    if not ok:
        return FAIL, f"fails at index {idx}"
    rad = fseq_radical_stabilize(seq, budget=ctx.budget())
    return _ok(rad.equal(Ideal(R, ["x", "y"])), f"radical {rad.basis_str()}")


@check("fseq/constant-prime", "a constant chain at a prime is an f-sequence "
       "with radical the prime itself", ("examples",))
def _fseq_constant(ctx):
    R = parse_ring("F_2[x,y]")
    seq = FSequence.constant_chain(Ideal(R, ["x"]), 5)
    ok, idx = fseq_verify(seq, ctx.budget())
    if not ok:
        return FAIL, f"fails at index {idx}"
    rad = fseq_radical_stabilize(seq, budget=ctx.budget())
    return _ok(rad.equal(Ideal(R, ["x"])), "constant prime stable")


@check("functor/cyclic-quotient", "the Frobenius functor sends R/(z) to R/(z^p) "
       "over R = F_2[x,y,z]/(x^2 + y*z^2)", ("examples",))
def _functor_cyclic(ctx):
    ring = parse_ring("F_2[x,y,z]/(x^2 + y*z^2)")
    M = ModulePresentation.cyclic(ring, [ring.free().poly("z")])
    F = frobenius_functor(M, 1)
    want = Ideal(ring, ["z^2"])
    got = F.cyclic_ideal()
    return _ok(got.equal(want), f"F(R/(z)) = R/{got.basis_str()}")


@check("gamma/bracket", "the contraction chain of (x,y) extended to the perfect "
       "closure is {(x^q, y^q)}", ("examples",))
def _gamma_bracket(ctx):
    R = parse_ring("F_2[x,y]")
    J = PerfectClosureIdeal(R, ["x", "y"])
    rep = gamma_fseq(J, 3, budget=ctx.budget())
    want = FSequence.bracket_chain(Ideal(R, ["x", "y"]), 3)
    same = all(a.equal(b) for a, b in zip(rep.sequence.terms, want.terms))
    return _ok(rep.verified and same, "")


@check("gamma/tower", "the root tower over x together with y contracts to "
       "{(x, y^q)}", ("examples",))
def _gamma_tower(ctx):
    R = parse_ring("F_2[x,y]")
    J = PerfectClosureIdeal(R, ["root(5, x)", "y"])
    rep = gamma_fseq(J, 3, lift_cap=6, budget=ctx.budget())
    want = [Ideal(R, ["x", f"y^{2 ** e}"]) for e in range(4)]
    same = all(a.equal(b) for a, b in zip(rep.sequence.terms, want))
    return _ok(rep.verified and same, "")


@check("gamma/prime-tower", "the full root tower over a prime contracts to the "
       "constant chain at that prime", ("examples",))
def _gamma_prime(ctx):
    R = parse_ring("F_2[x]")
    J = PerfectClosureIdeal(R, ["root(5, x)"])
    rep = gamma_fseq(J, 3, lift_cap=6, budget=ctx.budget())
    want = Ideal(R, ["x"])
    same = all(t.equal(want) for t in rep.sequence.terms)
    return _ok(rep.verified and same, "")


@check("gamma/round-trip", "prefix -> root-generated ideal -> contraction chain "
       "returns the original prefix", ("examples",))
def _gamma_roundtrip(ctx):
    R = parse_ring("F_2[x,y]")
    for terms in ([Ideal(R, [f"x^{2 ** e}", f"y^{2 ** e}"]) for e in range(4)],
                  [Ideal(R, ["x", f"y^{2 ** e}"]) for e in range(4)]):
        seq = FSequence.explicit(R, terms)
        J = fseq_to_perfect_ideal(seq)
        rep = gamma_fseq(J, seq.top_index, lift_cap=6, budget=ctx.budget())
        if not all(a.equal(b) for a, b in zip(rep.sequence.terms, seq.terms)):
            return FAIL, f"round trip broke on {terms[1].basis_str()}"
    return PASS, ""


@check("assoc/union-bracket", "the union of associated primes along the bracket "
       "and tower chains on (x,y) is {(x,y)} from level 0, with extension-side "
       "records only for weak and strong Krull kinds", ("examples",))
def _union_bracket(ctx):
    R = parse_ring("F_2[x,y]")
    for seq in (FSequence.bracket_chain(Ideal(R, ["x", "y"]), 4),
                FSequence.explicit(R, [Ideal(R, ["x", f"y^{2 ** e}"])
                                       for e in range(5)])):
        recs = union_ass_fseq(seq, ctx.budget())
        base = [r for r in recs if r.side == SIDE_BASE]
        ext = [r for r in recs if r.side == SIDE_EXTENSION]
        if len(base) != 1 or base[0].variables != ("x", "y") or base[0].first_seen != 0:
            return FAIL, f"base union wrong: {[str(r) for r in base]}"
        if {r.kind for r in ext} != {"wAss", "sK"}:
            return FAIL, "extension-side kinds wrong"
        if any(r.kind == "Ass" for r in ext):
            return FAIL, "claimed plain Ass on the extension side"
    return PASS, ""


@check("assoc/extension-obstruction", "in the one-variable ring no element of any "
       "finite level is annihilated exactly by the maximal ideal of the perfect "
       "closure: multiplying by the next root of x stays outside (x)", ("examples",))
def _obstruction(ctx):
    results = principal_variable_obstruction(parse_ring("F_2[x]"), 4)
    bad = [e for e, ok in results if not ok]
    return _ok(not bad, f"levels checked: {[e for e, _ in results]}")


@check("spec-map/monomial-primes", "contraction is a homeomorphism on spectra: "
       "all monomial primes of F_2[x,y] pass extension/radical/order checks at "
       "levels <= 3", ("examples",))
def _spec_map(ctx):
    R = parse_ring("F_2[x,y]")
    for k in range(3):
        for combo in itertools.combinations(R.variables, k):
            P = Ideal(R, [R.var(v) for v in combo])
            rep = prime_extension_check(P, 3, ctx.budget())
            if not rep.passed:
                return FAIL, f"prime ({', '.join(combo) or '0'}) failed"
    return PASS, ""


@check("depth/sdepth-two-planes", "S/(x*y, x*z) over F_2[x,y,z] has depth 1 at "
       "every Frobenius level and stabilizing depth 1", ("examples",))
def _sdepth_planes(ctx):
    R = parse_ring("F_2[x,y,z]")
    M = ModulePresentation.cyclic(R, [R.poly("x*y"), R.poly("x*z")])
    rep = sdepth(M, e_max=3, window=2, budget=ctx.budget())
    vals = [d for _, d in rep.per_e_depth]
    return _ok(vals == [1, 1, 1, 1] and rep.stabilized_value == 1,
               f"per-level {vals}")


@check("depth/kdepth-profile", "the truncation profiles of S/(x*y, x*z) are "
       "constant with nonzero homology {0,1,2} and grade 1 = sdepth", ("examples",))
def _kdepth_profile(ctx):
    R = parse_ring("F_2[x,y,z]")
    M = ModulePresentation.cyclic(R, [R.poly("x*y"), R.poly("x*z")])
    rep = kdepth_truncation_profile(M, e_max=3, budget=ctx.budget())
    pats = [tuple(sorted(p.nonzero_homology)) for p in rep.profiles]
    ok = all(pat == (0, 1, 2) for pat in pats) and rep.stable_kgrade == 1 \
        and rep.stable
    return _ok(ok, f"patterns {pats}")


@check("depth/strict-drop", "over the F-pure ring F_2[x,y]/(x*y) the module "
       "R/(x) has depth 1 but every Frobenius iterate has depth 0: the "
       "stabilizing depth can be strictly below the depth", ("examples",))
def _strict_drop(ctx):
    Q = parse_ring("F_2[x,y]/(x*y)")
    M = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
    d0 = depth_at_origin(M, budget=ctx.budget())
    rep = sdepth(M, e_max=3, window=2, budget=ctx.budget())
    ok = d0 == 1 and rep.stabilized_value == 0 and rep.monotone
    return _ok(ok, f"depth {d0}, per-level "
                   f"{[d for _, d in rep.per_e_depth]}")


@check("membership/extension-contraction", "x lies in (z) extended to the perfect "
       "closure and contracted back, over F_3[x,y,z]/(x^3 - y*z^3)", ("examples",))
def _member_inf(ctx):
    ring = parse_ring("F_3[x,y,z]/(x^3 - y*z^3)")
    got = extended_ideal_membership(ring.free().poly("x"), Ideal(ring, ["z"]),
                                    3, ctx.budget())
    return _ok(got is True, "")


@check("zero-closure/level-chain", "the zero closures of the Frobenius iterates "
       "of R/(z) form an f-sequence; the level-0 term contains x and the level-1 "
       "term contains the level-1 image x^p", ("examples",))
def _zero_closure(ctx):
    ring = parse_ring("F_3[x,y,z]/(x^3 - y*z^3)")
    I = Ideal(ring, ["z"])
    terms = [zero_closure_cyclic(I, e, 4, ctx.budget()) for e in range(3)]
    x = ring.free().poly("x")
    if not terms[0].contains(x):
        return FAIL, "level 0 misses x"
    if not terms[1].contains(x ** 3):
        return FAIL, "level 1 misses the image of x"
    ok, idx = fseq_verify(FSequence.explicit(ring, terms), ctx.budget())
    return _ok(ok, f"chain verified: {ok}")


# ---------------------------------------------------------------------------
# oracle suite

_ORACLE_RINGS = ("F_2[x,y,z]", "F_3[x,y]", "F_2[x,y,z,w]")


@check("oracle/depth-triangle", "Koszul depth = n - pd = greedy classical depth "
       "on random graded monomial/binomial cyclic modules", ("oracles",))
def _oracle_triangle(ctx):
    rng = ctx.rng("triangle")
    for i in range(ctx.count):
        ring = parse_ring(_ORACLE_RINGS[i % len(_ORACLE_RINGS)])
        I = random_graded_cyclic_ideal(ring, rng, max_deg=4)
        if I.is_unit:
            continue
        M = ModulePresentation.cyclic(ring, I.gens)
        n = ring.nvars
        d_koszul = depth_at_origin(M, cross_check=False, budget=ctx.budget())
        _, pd = free_resolution(M, cap=n, budget=ctx.budget())
        if pd is None:
            return FAIL, f"#{i} {I!r}: no resolution within {n} steps"
        greedy = classical_depth_search(M, budget=ctx.budget())
        if d_koszul != n - pd:
            return FAIL, f"#{i} {I!r}: koszul {d_koszul} vs n-pd {n - pd}"
        if greedy.exhaustive and greedy.bound != d_koszul:
            return FAIL, f"#{i} {I!r}: greedy {greedy.bound} vs {d_koszul}"
        if greedy.bound > d_koszul:
            return FAIL, f"#{i} {I!r}: greedy exceeded depth"
    return PASS, f"{ctx.count} instances"


# ---------------------------------------------------------------------------
# randomized invariants

@check("ring/print-parse-roundtrip", "printing then parsing is the identity on "
       "canonical polynomials", ("invariants-random",))
def _roundtrip(ctx):
    rng = ctx.rng("roundtrip")
    for ring_text in ("F_2[x,y]", "F_3[x,y,z]", "F_5[a,b]"):
        ring = parse_ring(ring_text)
        for _ in range(ctx.count):
            f = random_poly(ring, rng)
            if parse_poly(str(f), ring) != f:
                return FAIL, f"{f} in {ring!r}"
    return PASS, ""


@check("ring/frobenius-additive", "the Frobenius endomorphism is additive",
       ("invariants-random",))
def _frob_additive(ctx):
    rng = ctx.rng("frobadd")
    ring = parse_ring("F_3[x,y]")
    for _ in range(ctx.count):
        f, g = random_poly(ring, rng), random_poly(ring, rng)
        for e in (1, 2):
            if (f + g).frobenius(e) != f.frobenius(e) + g.frobenius(e):
                return FAIL, f"{f}, {g}, e={e}"
    return PASS, ""


@check("ring/root-inverse", "taking q-th roots undoes q-th powers in a free ring",
       ("invariants-random",))
def _root_inverse(ctx):
    rng = ctx.rng("rootinv")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(ctx.count):
        f = random_poly(ring, rng)
        for e in (1, 2):
            if f.frobenius(e).pth_root(e) != f:
                return FAIL, f"{f}, e={e}"
    return PASS, ""


@check("ring/cancel", "f + (-f) has an empty term sequence", ("invariants-random",))
def _cancel(ctx):
    rng = ctx.rng("cancel")
    ring = parse_ring("F_5[x,y]")
    for _ in range(ctx.count):
        f = random_poly(ring, rng)
        if (f + (-f)).terms != ():
            return FAIL, str(f)
    return PASS, ""


@check("groebner/spoly-criterion", "every S-polynomial of a reduced basis reduces "
       "to zero", ("invariants-random",))
def _spoly_zero(ctx):
    rng = ctx.rng("spoly")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(5, ctx.count // 4)):
        gens = [random_poly(ring, rng) for _ in range(rng.randrange(1, 4))]
        I = Ideal(ring, gens)
        gb = I.groebner_basis(ctx.budget())
        for a, b in itertools.combinations(gb, 2):
            lcm = mono_lcm(a.lm(), b.lm())
            sp = ring.monomial(mono_div(lcm, a.lm())) * a \
                - ring.monomial(mono_div(lcm, b.lm())) * b
            if not normal_form_poly(sp, gb, ctx.budget()).is_zero:
                return FAIL, f"{a} vs {b}"
    return PASS, ""


@check("groebner/membership-bruteforce", "normal-form membership agrees with "
       "cofactor linear algebra", ("invariants-random",))
def _member_brute(ctx):
    rng = ctx.rng("member")
    ring = parse_ring("F_2[x,y,z]")
    for i in range(ctx.count):
        gens = [random_poly(ring, rng, max_deg=3) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = Ideal(ring, gens)
        if rng.random() < 0.5:
            f = sum((random_poly(ring, rng, max_deg=2) * g for g in gens),
                    ring.zero())
        else:
            f = random_poly(ring, rng, max_deg=3)
        agree, _ = membership_agrees(f, I, ctx.budget())
        if not agree:
            return FAIL, f"#{i}: {f} vs {I!r}"
    return PASS, ""


@check("groebner/colon-soundness", "every colon generator multiplies the divisor "
       "ideal into the original", ("invariants-random",))
def _colon_sound(ctx):
    rng = ctx.rng("colon")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        J = random_monomial_ideal(ring, rng, max_deg=2, max_gens=2)
        C = colon_ideal(I, J, ctx.budget())
        for g in C.gens:
            for j in J.gens:
                if not I.contains(g * j, ctx.budget()):
                    return FAIL, f"{g} * {j} escapes {I!r}"
    return PASS, ""


@check("groebner/elimination-soundness", "eliminated generators avoid the dropped "
       "variables and stay inside the ideal", ("invariants-random",))
def _elim_sound(ctx):
    rng = ctx.rng("elim")
    ring = parse_ring("F_3[x,y,z]")
    for _ in range(max(5, ctx.count // 4)):
        I = Ideal(ring, [random_poly(ring, rng, max_deg=2) for _ in range(2)])
        E = eliminate(I, 1, ctx.budget())
        for g in E.gens:
            if 0 in g.support_vars():
                return FAIL, f"{g} still uses the eliminated variable"
            if not I.contains(g, ctx.budget()):
                return FAIL, f"{g} escaped the ideal"
    return PASS, ""


@check("groebner/radical-spotcheck", "small powers landing in the ideal imply "
       "radical membership", ("invariants-random",))
def _radical_spot(ctx):
    rng = ctx.rng("radical")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        f = random_poly(ring, rng, max_deg=2)
        in_power = any(I.contains(f ** k, ctx.budget()) for k in range(1, 9))
        if in_power and not radical_membership(f, I, ctx.budget()):
            return FAIL, f"{f} has a power in {I!r} but fails the radical test"
    return PASS, ""


@check("modgb/syzygy-identity", "the relation matrix kills its syzygy columns "
       "exactly", ("invariants-random",))
def _syz_identity(ctx):
    rng = ctx.rng("syz")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(5, ctx.count // 4)):
        cols = [(random_poly(ring, rng, max_deg=2),
                 random_poly(ring, rng, max_deg=2)) for _ in range(3)]
        cols = [c for c in cols if not vec_is_zero(c)]
        if not cols:
            continue
        for s in syzygy_module(cols, 2, ring, ctx.budget()):
            if not vec_is_zero(apply_columns(cols, s, ring, 2)):
                return FAIL, "A * syzygy != 0"
    return PASS, ""


@check("modgb/resolution-exactness", "each resolution step has column span equal "
       "to the kernel of the previous differential", ("invariants-random",))
def _res_exact(ctx):
    rng = ctx.rng("res")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(4, ctx.count // 5)):
        I = random_monomial_ideal(ring, rng)
        M = ModulePresentation.cyclic(ring, I.gens)
        cx, pd = free_resolution(M, cap=3, budget=ctx.budget())
        if not cx.composes_to_zero():
            return FAIL, "composition nonzero"
        for i in range(1, cx.length):
            lower = cx.diffs[i - 1]
            upper = cx.diffs[i]
            rank = cx.rank(i - 1)
            kernel = syzygy_module(lower, rank, ring, ctx.budget())
            span_up = module_groebner(upper, cx.rank(i), ring, ctx.budget())
            span_ker = module_groebner(kernel, cx.rank(i), ring, ctx.budget())
            if not in_module(kernel, span_up, cx.rank(i), ring, ctx.budget()):
                return FAIL, f"kernel escapes image at step {i}"
            if not in_module(upper, span_ker, cx.rank(i), ring, ctx.budget()):
                return FAIL, f"image escapes kernel at step {i}"
    return PASS, ""


@check("modgb/kpolynomial-euler", "the K-polynomial read off leading terms "
       "equals the alternating sum of the twisted ranks of the free "
       "resolution", ("invariants-random",))
def _kpoly_euler(ctx):
    rng = ctx.rng("kpoly")
    rings = [parse_ring(t) for t in ("F_2[x,y,z]", "F_3[x,y,z]", "F_5[x,y]")]
    for i in range(max(4, ctx.count // 5)):
        ring = rings[i % len(rings)]
        M = random_graded_module(ring, rng)
        degrees = row_degrees(M.columns, M.rank)
        k = kpolynomial(M.columns, M.rank, ring, degrees, ctx.budget())
        cx, pd = free_resolution(M, cap=ring.nvars, budget=ctx.budget())
        if pd is None:
            return FAIL, f"{M!r}: the resolution did not close within n steps"
        if resolution_kpolynomial(cx, degrees) != k:
            return FAIL, f"{M!r}: K {k} vs resolution"
    return PASS, ""


@check("modgb/depth-plus-pd", "depth + projective dimension = number of variables "
       "for graded cyclic modules", ("invariants-random",))
def _ab_identity(ctx):
    rng = ctx.rng("ab")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(4, ctx.count // 5)):
        I = random_graded_cyclic_ideal(ring, rng, max_deg=3)
        if I.is_unit:
            continue
        M = ModulePresentation.cyclic(ring, I.gens)
        d = depth_at_origin(M, cross_check=False, budget=ctx.budget())
        _, pd = free_resolution(M, cap=3, budget=ctx.budget())
        if pd is None:
            return FAIL, f"{I!r}: no resolution within 3 steps"
        if d + pd != 3:
            return FAIL, f"{I!r}: depth {d} pd {pd}"
    return PASS, ""


@check("modgb/annihilator-cyclic", "the annihilator of S/J is J",
       ("invariants-random",))
def _ann_cyclic(ctx):
    rng = ctx.rng("ann")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        A = annihilator(ModulePresentation.cyclic(ring, I.gens), ctx.budget())
        if not A.equal(I):
            return FAIL, f"ann(S/{I!r}) = {A.basis_str()}"
    return PASS, ""


@check("frobenius/closure-grows-idempotent", "closures contain their input and "
       "are idempotent within budget", ("invariants-random",))
def _closure_idem(ctx):
    rng = ctx.rng("closidem")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        res = frobenius_closure(I, 3, ctx.budget())
        if not res.closure.contains_ideal(I):
            return FAIL, "closure lost a generator"
        if res.unresolved:
            return UNRESOLVED, f"{I!r} did not stabilize"
        res2 = frobenius_closure(res.closure, 3, ctx.budget())
        if not res2.closure.equal(res.closure):
            return FAIL, "closure not idempotent"
    return PASS, ""


@check("frobenius/preimage-of-power", "f^{-e}(J^[q]) contains J, with equality in "
       "F-pure rings", ("invariants-random",))
def _pre_of_power(ctx):
    rng = ctx.rng("prepow")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        for e in (1, 2):
            pre = frobenius_preimage(frobenius_power(I, e), e, ctx.budget())
            if not pre.contains_ideal(I):
                return FAIL, "preimage of power lost the ideal"
            if not Ideal(ring, I.gens).contains_ideal(pre):
                return FAIL, "strictness over an F-pure ring"
    return PASS, ""


@check("frobenius/bracket-distributes", "(J + K)^[q] = J^[q] + K^[q]",
       ("invariants-random",))
def _bracket_sum(ctx):
    rng = ctx.rng("bracket")
    ring = parse_ring("F_3[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        J = random_monomial_ideal(ring, rng)
        K = random_monomial_ideal(ring, rng)
        lhs = frobenius_power(J.plus(K), 1)
        rhs = frobenius_power(J, 1).plus(frobenius_power(K, 1))
        if not lhs.equal(rhs):
            return FAIL, f"{J!r}, {K!r}"
    return PASS, ""


@check("frobenius/preimage-monotone", "preimages preserve containment",
       ("invariants-random",))
def _pre_monotone(ctx):
    rng = ctx.rng("premono")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        J = random_monomial_ideal(ring, rng)
        K = J.plus(random_monomial_ideal(ring, rng))
        a = frobenius_preimage(J, 1, ctx.budget())
        b = frobenius_preimage(K, 1, ctx.budget())
        if not b.contains_ideal(a):
            return FAIL, f"{J!r} vs {K!r}"
    return PASS, ""


@check("assoc/monotone-on-chains", "associated primes only grow along "
       "f-sequences of bracket powers", ("invariants-random",))
def _ass_monotone(ctx):
    rng = ctx.rng("assmono")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        seq = FSequence.bracket_chain(I, 3)
        prev = set()
        for J in seq.terms:
            cur = {r.variables for r in ass_monomial(J, ctx.budget())}
            if not prev <= cur:
                return FAIL, f"{I!r}: {prev} not within {cur}"
            prev = cur
    return PASS, ""


@check("assoc/minimal-primes-subset", "minimal primes are associated and every "
       "associated prime contains the ideal", ("invariants-random",))
def _ass_minimal(ctx):
    rng = ctx.rng("assmin")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        recs = {r.variables for r in ass_monomial(I, ctx.budget())}
        mins = set(minimal_primes_monomial(I, ctx.budget()))
        if not mins <= recs:
            return FAIL, f"{I!r}: minimal {mins} vs Ass {recs}"
        for vs in recs:
            P = Ideal(ring, [ring.var(v) for v in vs])
            if not P.contains_ideal(I):
                return FAIL, f"associated prime {vs} misses the ideal"
    return PASS, ""


@check("assoc/origin-consistency", "the depth-zero test at the origin matches "
       "membership of the full maximal ideal in Ass", ("invariants-random",))
def _ass_origin(ctx):
    rng = ctx.rng("assorigin")
    ring = parse_ring("F_2[x,y]")
    origin = (0, 0)
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng)
        if I.is_unit:
            continue
        direct = maximal_in_ass(I, origin, ctx.budget())
        full = ("x", "y") in {r.variables for r in ass_monomial(I, ctx.budget())}
        if direct != full:
            return FAIL, f"{I!r}: origin test {direct}, Ass says {full}"
    return PASS, ""


@check("depth/noincrease", "depth never increases under the Frobenius functor "
       "over F-pure rings, and sdepth lists each level's Koszul depth",
       ("invariants-random",))
def _depth_noninc(ctx):
    rng = ctx.rng("noninc")
    for ring_text in ("F_2[x,y,z]", "F_3[x,y]"):
        ring = parse_ring(ring_text)
        for _ in range(max(4, ctx.count // 5)):
            I = random_graded_cyclic_ideal(ring, rng, max_deg=3, monomial_only=True)
            if I.is_unit:
                continue
            M = ModulePresentation.cyclic(ring, I.gens)
            rep = sdepth(M, e_max=3, window=2, cross_check=False,
                         budget=ctx.budget())
            levels = [(e, depth_at_origin(frobenius_functor(M, e), False,
                                          ctx.budget())) for e in range(4)]
            if not rep.monotone or rep.per_e_depth != levels:
                return FAIL, f"{I!r}: {rep.per_e_depth} vs {levels}"
    return PASS, ""


@check("depth/purity-monotone-regseq", "a sequence regular at level e+1 is "
       "regular at level e", ("invariants-random",))
def _reg_monotone(ctx):
    rng = ctx.rng("regmono")
    ring = parse_ring("F_2[x,y]")
    from .depth import linear_candidates
    forms, _ = linear_candidates(ring)
    for _ in range(max(4, ctx.count // 5)):
        I = random_monomial_ideal(ring, rng, max_deg=2)
        if I.is_unit:
            continue
        M = ModulePresentation.cyclic(ring, I.gens)
        f = forms[rng.randrange(len(forms))]
        flags = regular_sequence_check([f], M, range(3), ctx.budget())
        for e in range(len(flags) - 1):
            if flags[e + 1] and not flags[e]:
                return FAIL, f"{I!r}, {f}: {flags}"
    return PASS, ""


@check("depth/grade-monotone", "Koszul grade only grows when the sequence grows",
       ("invariants-random",))
def _grade_monotone(ctx):
    rng = ctx.rng("grademono")
    ring = parse_ring("F_2[x,y,z]")
    xs = list(ring.gens())
    for _ in range(max(4, ctx.count // 5)):
        I = random_monomial_ideal(ring, rng, max_deg=2)
        if I.is_unit:
            continue
        M = ModulePresentation.cyclic(ring, I.gens)
        sub = kgrade(xs[:2], M, ctx.budget()).kgrade
        full = kgrade(xs, M, ctx.budget()).kgrade
        if sub is None or full is None:
            continue
        if sub > full:
            return FAIL, f"{I!r}: kgr(x,y)={sub} > kgr(x,y,z)={full}"
    return PASS, ""


@check("depth/comparison-chain", "stable truncation grade equals stabilizing "
       "depth and bounds the all-level regular-sequence search from above",
       ("invariants-random",))
def _comparison_chain(ctx):
    rng = ctx.rng("chain")
    ring = parse_ring("F_2[x,y,z]")
    for _ in range(max(3, ctx.count // 7)):
        I = random_monomial_ideal(ring, rng, max_deg=3)
        if I.is_unit:
            continue
        M = ModulePresentation.cyclic(ring, I.gens)
        kd = kdepth_truncation_profile(M, e_max=3, budget=ctx.budget())
        cd = cdepth_lower_bound(M, e_max=3, budget=ctx.budget())
        sd = sdepth(M, e_max=3, cross_check=False, budget=ctx.budget())
        if kd.stable_kgrade is not None and sd.stabilized_value is not None:
            if kd.stable_kgrade != sd.stabilized_value:
                return FAIL, f"{I!r}: kdepth {kd.stable_kgrade} != sdepth " \
                             f"{sd.stabilized_value}"
        if sd.stabilized_value is not None and cd.bound > sd.stabilized_value:
            return FAIL, f"{I!r}: cdepth bound {cd.bound} exceeds sdepth"
    return PASS, ""


@check("depth/bracket-profile-top", "replacing the variables by their bracket "
       "powers preserves the top nonzero Koszul index", ("invariants-random",))
def _bracket_profile(ctx):
    rng = ctx.rng("bracketprof")
    ring = parse_ring("F_2[x,y]")
    xs = list(ring.gens())
    xq = [x.frobenius(1) for x in xs]
    for _ in range(max(3, ctx.count // 7)):
        I = random_monomial_ideal(ring, rng, max_deg=2)
        if I.is_unit:
            continue
        M = frobenius_functor(ModulePresentation.cyclic(ring, I.gens), 1)
        a = kgrade(xs, M, ctx.budget())
        b = kgrade(xq, M, ctx.budget())
        if a.nonzero_homology and b.nonzero_homology:
            if max(a.nonzero_homology) != max(b.nonzero_homology):
                return FAIL, f"{I!r}: {sorted(a.nonzero_homology)} vs " \
                             f"{sorted(b.nonzero_homology)}"
    return PASS, ""


@check("perf/root-equivalence", "root equality is an equivalence preserved by "
       "raising levels", ("invariants-random",))
def _root_equiv(ctx):
    rng = ctx.rng("rooteq")
    ring = parse_ring("F_2[x,y]")
    for _ in range(ctx.count):
        f = random_poly(ring, rng, max_deg=2)
        if f.is_zero:
            continue
        a = RootElement(ring, 1, f.frobenius(1))
        b = RootElement(ring, 0, f)
        c = RootElement(ring, 2, f.frobenius(2))
        if not (root_equal(a, b) and root_equal(b, c) and root_equal(a, c)):
            return FAIL, f"{f}"
        up_a = RootElement(ring, a.level + 1, a.body.frobenius(1))
        if not root_equal(up_a, b):
            return FAIL, f"level raise broke equality on {f}"
    return PASS, ""


@check("perf/gamma-verifies", "every contraction chain passes the f-sequence "
       "check", ("invariants-random",))
def _gamma_sound(ctx):
    rng = ctx.rng("gammasound")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(3, ctx.count // 7)):
        I = random_monomial_ideal(ring, rng, max_deg=2)
        if I.is_unit:
            continue
        J = PerfectClosureIdeal(ring, [(0, g) for g in I.gens])
        try:
            rep = gamma_fseq(J, 2, lift_cap=6, budget=ctx.budget())
        except Unresolved:
            return UNRESOLVED, f"{I!r} contraction chain hit lift_cap"
        if not rep.verified:
            return FAIL, f"{I!r}: index {rep.failing_index}"
        if not rep.sequence.terms[0].equal(frobenius_closure(I, 4, ctx.budget()).closure):
            return FAIL, f"{I!r}: level-0 contraction is not the closure"
    return PASS, ""


@check("perf/membership-closure-agree", "extension-contraction membership agrees "
       "with the Frobenius closure", ("invariants-random",))
def _member_agree(ctx):
    rng = ctx.rng("memberagree")
    ring = parse_ring("F_2[x,y]")
    for _ in range(max(5, ctx.count // 4)):
        I = random_monomial_ideal(ring, rng, max_deg=2)
        f = random_poly(ring, rng, max_deg=2)
        via_member = extended_ideal_membership(f, I, 4, ctx.budget())
        via_closure = frobenius_closure(I, 4, ctx.budget()).closure.contains(f)
        if via_member is None:
            return UNRESOLVED, f"{I!r} unresolved"
        if via_member != via_closure:
            return FAIL, f"{f} vs {I!r}"
    return PASS, ""


@check("perf/order-preservation", "containment of monomial primes is preserved "
       "by extension at every level", ("invariants-random",))
def _order_preserve(ctx):
    ring = parse_ring("F_2[x,y]")
    primes = [Ideal(ring, gens) for gens in ([], ["x"], ["y"], ["x", "y"])]
    for P, Q in itertools.product(primes, repeat=2):
        want = Q.contains_ideal(P)
        for e in (1, 2, 3):
            got = frobenius_power(Q, e).contains_ideal(frobenius_power(P, e))
            if got != want:
                return FAIL, f"{P!r} in {Q!r} at level {e}: {got} != {want}"
    return PASS, ""


# ---------------------------------------------------------------------------
# suite runner

SUITE_NAMES = ("examples", "oracles", "invariants-random")
SUITE_ALIASES = {"paper-examples": "examples"}


@dataclass
class VerificationReport:
    suite: str
    seed: int
    count: int
    results: list

    @property
    def passed(self):
        return sum(1 for r in self.results if r.status == PASS)

    @property
    def failed(self):
        return sum(1 for r in self.results if r.status == FAIL)

    @property
    def unresolved(self):
        return sum(1 for r in self.results if r.status == UNRESOLVED)

    @property
    def exit_code(self):
        return 0 if self.failed == 0 else 1

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "count": self.count,
            "summary": {"total": len(self.results), "pass": self.passed,
                        "fail": self.failed, "unresolved": self.unresolved},
            "checks": [{"id": r.check_id, "anchor": r.anchor,
                        "status": r.status, "detail": r.detail}
                       for r in self.results],
        }

    def render_text(self):
        lines = [f"suite {self.suite} (seed={self.seed}, count={self.count})"]
        for r in self.results:
            mark = {"pass": "PASS", "fail": "FAIL",
                    "unresolved": "UNRESOLVED"}[r.status]
            line = f"  [{mark}] {r.check_id}: {r.anchor}"
            if r.detail:
                line += f" ({r.detail})"
            lines.append(line)
        lines.append(f"  total={len(self.results)} pass={self.passed} "
                     f"fail={self.failed} unresolved={self.unresolved}")
        return "\n".join(lines)


def run_check(chk, ctx):
    start = time.perf_counter()
    try:
        status, detail = chk.fn(ctx)
    except BudgetExceeded as exc:
        status, detail = UNRESOLVED, f"budget exceeded ({exc.used} steps)"
    except Unresolved as exc:
        status, detail = UNRESOLVED, str(exc)
    except InternalInvariantError as exc:
        status, detail = FAIL, str(exc)
    return CheckResult(chk.check_id, chk.anchor, status, detail,
                       time.perf_counter() - start)


def suite_name(name):
    """The canonical name of a suite or alias; ValueError if unknown."""
    name = SUITE_ALIASES.get(name, name)
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)}")
    return name


def run_suite(name, seed=0, count=20, budget_limit=10 ** 6):
    name = suite_name(name)
    ctx = Context(seed=seed, count=count, budget_limit=budget_limit)
    results = [run_check(c, ctx) for c in CHECKS if name in c.suites]
    return VerificationReport(name, seed, count, results)
