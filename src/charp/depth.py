"""Koszul homology, depth at the origin, and depth under Frobenius.

The Frobenius functor acts on a presentation by raising every relation
entry to the q-th power; for a cyclic module R/J this is R/J^[q], the
concrete left-module avatar under which left multiplication by the ring is
ordinary multiplication.  Depth at the origin is the Koszul grade of the
variables, read off one walk down the Koszul complex from H_n:

    H_i(x; M) != 0  <=>  the cycles Z_i of d_i (tensored with the
                         presentation) and the boundaries B_i, the span of
                         d_{i+1} and the relations, differ in reduced basis.

B_i lies in Z_i and a reduced basis is unique (Greuel & Pfister, 2.3), so
no division is needed.  The cycles are one module colon of d_i into the
relation block (one POT basis in which only the columns of d_i carry
tags); its heads are the boundaries one degree down, so everything
reduces to the module engine.  In the graded free-ring case the answer
is cross-checked against the projective dimension through the
depth + pd = n identity.

The greedy regular-sequence search is the third route.  On a graded
module a form f of degree d is regular exactly when M != 0 and the
K-polynomials satisfy K(M/fM) = (1 - t^d) K(M).  A search computes each
level's K once and multiplies it by (1 - t^d) after each witness, so a
test costs the one module basis of M/fM and no syzygies.  The same K
gives dim M.  The search stops once some level N modulo the witness has
dimension 0 (tested first in a round) or depth 0, H_n(x; N) = (0 :_N m)
!= 0 (tested when the linear pool fails); only these stops make the bound
sharp.  Witnesses are certified only by the Hilbert or the local route.
Ungraded inputs and non-homogeneous f take the local route, which
answers at the origin by the same rule: (0 :_M f) = Z/U vanishes in M_m
exactly when m*Z + U and Z have the same reduced basis (Nakayama).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .budget import Budget, InternalInvariantError
from .frobenius import fedder_f_pure
from .modules import (FreeComplex, ModulePresentation, _kron,
                      diagonal_columns, free_resolution, hilbert_dimension,
                      k_times_one_minus, kpolynomial, module_colon,
                      module_colon_by_element, module_groebner, row_degrees)
from .ring import Polynomial


# ---------------------------------------------------------------------------
# the Frobenius functor on presentations

def frobenius_functor(M, e):
    """Presentation of F^e(M): every relation entry to the power p^e.
    Quotient-ring relations are appended unbracketed at computation time,
    matching R/J^[q] = S/(J^[q] + I0) in the cyclic case."""
    if e < 0:
        raise ValueError("e must be >= 0")
    cols = [tuple(entry.frobenius(e) for entry in col) for col in M.columns]
    return ModulePresentation(M.ring, M.rank, cols)


# ---------------------------------------------------------------------------
# Koszul complexes

def koszul_differential(xs, i, ring):
    """Columns of d_i : K_i -> K_{i-1} for the Koszul complex on xs, with
    subsets ordered lexicographically and the usual alternating signs."""
    n = len(xs)
    rows = {s: idx for idx, s in
            enumerate(itertools.combinations(range(n), i - 1))}
    cols = []
    zero = ring.zero()
    for S in itertools.combinations(range(n), i):
        col = [zero] * len(rows)
        for k, j in enumerate(S):
            rest = S[:k] + S[k + 1:]
            term = xs[j] if k % 2 == 0 else -xs[j]
            col[rows[rest]] = col[rows[rest]] + term
        cols.append(tuple(col))
    return cols


def koszul_complex(xs, ring):
    """The full Koszul complex on xs as a FreeComplex (rank-one
    coefficients), mainly for d.d = 0 sanity checks."""
    n = len(xs)
    return FreeComplex(ring, 1, [koszul_differential(xs, i, ring)
                                 for i in range(1, n + 1)])


def koszul_homology(xs, M, top, budget=None):
    """Yield (i, H_i(x; M) != 0) for i = top, ..., 0.  For i > 0 one POT
    basis gives the cycles Z_i, the colon of d_i into the relations, and
    as its heads the next degree's boundaries image(d_i) + relations; so
    only the start degree builds its boundaries, and only if Z_top != 0.
    B_i lies in Z_i (d.d = 0, and d keeps the relation blocks), so H_i != 0
    exactly when their reduced bases differ."""
    budget = Budget.ensure(budget)
    free = M.ring.free()
    xs = [x.transported(free) for x in xs]
    n, r = len(xs), M.rank
    rel = M.lifted_columns()
    eye = diagonal_columns(1, r, free)

    def differential(i):   # of K (x) S^r; no columns for i > n
        return _kron(koszul_differential(xs, i, free), eye, free)

    def relations(i):   # of K_i (x) M
        return _kron(diagonal_columns(1, comb(n, i), free), rel, free)

    boundaries = None
    for i in range(top, -1, -1):
        rank = comb(n, i) * r
        cycles, below = diagonal_columns(free.one(), r, free), None  # Z_0
        if i > 0:
            cycles, below = module_colon(differential(i), relations(i - 1),
                                         comb(n, i - 1) * r, free, budget)
        if cycles and boundaries is None:
            boundaries = module_groebner(differential(i + 1) + relations(i),
                                         rank, free, budget)
        yield i, set(cycles) != set(boundaries or ())
        boundaries = below


def koszul_homology_nonzero(xs, M, i, budget=None):
    """H_i(x; M) != 0: the first step of a walk started at i."""
    return 0 <= i <= len(xs) and next(koszul_homology(xs, M, i, budget))[1]


@dataclass
class KoszulProfile:
    """Which Koszul homology groups are nonzero, and the resulting grade
    n - (top nonzero index)."""

    sequence: tuple
    n: int
    nonzero_homology: frozenset

    @property
    def kgrade(self):
        if not self.nonzero_homology:
            return None
        return self.n - max(self.nonzero_homology)


def kgrade(xs, M, budget=None):
    """Full Koszul profile of the sequence xs on M."""
    xs = tuple(xs)
    nonzero = frozenset(i for i, h in koszul_homology(xs, M, len(xs), budget)
                        if h)
    return KoszulProfile(xs, len(xs), nonzero)


# ---------------------------------------------------------------------------
# depth at the origin

_VANISHES = "module vanishes at the origin; depth undefined"


def depth_at_origin(M, cross_check=True, budget=None):
    """Koszul depth of the variables on M; in the graded free-ring case the
    value is cross-checked against n - pd(M)."""
    budget = Budget.ensure(budget)
    n = M.ring.nvars
    depth = next((n - i for i, h in koszul_homology(
        M.ring.free().gens(), M, n, budget) if h), None)
    if depth is None:
        raise ValueError(_VANISHES)
    if (cross_check and not M.ring.is_quotient
            and row_degrees(M.lifted_columns(), M.rank) is not None):
        _, pd = free_resolution(M, cap=n, budget=budget)
        # by Hilbert's syzygy theorem the cap-n resolution always closes
        if pd is None or depth != n - pd:
            raise InternalInvariantError(
                f"Koszul depth {depth} disagrees with pd = {pd} (n = {n})")
    return depth


# ---------------------------------------------------------------------------
# regular elements and sequences

def _hilbert_data(cols, rank, ring, budget):
    """(row degrees, K-polynomial) of coker(cols), or None if ungraded."""
    degrees = row_degrees(cols, rank)
    if degrees is None:
        return None
    return degrees, kpolynomial(cols, rank, ring, degrees, budget)


def _regular_by_hilbert(f, cols, rank, ring, degrees, k, budget):
    """The Hilbert route, for M = coker(cols) graded by `degrees` with
    K-polynomial k and a form f of degree d >= 1.  The exact sequence
    0 -> (0 :_M f)(-d) -> M(-d) -> M -> M/fM -> 0 gives
    HS(M/fM) = (1 - t^d) HS(M) + t^d HS(0 :_M f), so f is regular exactly
    when M != 0 and K(M/fM) = (1 - t^d) K(M); graded Nakayama gives
    M != fM for free."""
    if not k:
        return False
    quotient = list(cols) + diagonal_columns(f, rank, ring)
    return (kpolynomial(quotient, rank, ring, degrees, budget)
            == k_times_one_minus(k, f.degree()))


def _zero_at_origin(basis, cols, rank, ring, budget):
    """N = <basis>/U vanishes at the origin, for the reduced basis of a
    submodule containing the column span U.  By Nakayama N_m = 0 exactly
    when N = mN, that is when m*basis + U has the same reduced basis."""
    products = [tuple(x * e for e in w) for x in ring.gens() for w in basis]
    return set(module_groebner(products + list(cols), rank, ring,
                               budget)) == set(basis)


def _regular_at_origin(f, cols, rank, ring, budget):
    """The local route, for f in m: f is regular on M_m exactly when
    M_m != 0 (then M_m != f*M_m by Nakayama) and (0 :_M f) = Z/U vanishes
    at the origin, Z the colon of f into the column span U.  M_m != 0 is
    the same test on the unit vectors, H_0(x; M) = M/mM != 0."""
    colon = module_colon_by_element(cols, rank, f, ring, budget)
    units = diagonal_columns(ring.one(), rank, ring)
    # the unit vectors last: most candidates fail the first test
    return (_zero_at_origin(colon, cols, rank, ring, budget)
            and not _zero_at_origin(units, cols, rank, ring, budget))


def is_regular_element(f, cols, rank, ring, budget=None, graded=None):
    """f is regular on M_m for M = coker(cols) and m the origin.  Graded M
    and a form f take the Hilbert route, every other input the local
    route: the route depends on the input only.  Neither 0 nor a unit at
    the origin is ever regular.  `graded` is M's (row degrees,
    K-polynomial) when a caller already holds them."""
    budget = Budget.ensure(budget)
    if not f or f.evaluate((0,) * ring.nvars):   # f(0) != 0: a unit
        return False
    if f.is_homogeneous:
        graded = graded or _hilbert_data(cols, rank, ring, budget)
        if graded:
            return _regular_by_hilbert(f, cols, rank, ring, *graded, budget)
    return _regular_at_origin(f, cols, rank, ring, budget)


def _quotient_data(graded, f):
    """M/fM's (row degrees, K-polynomial) from M's, for f regular on M:
    the columns f*e_i link no rows, and K(M/fM) = (1 - t^d) K(M).  None
    off the graded case."""
    if graded and f.is_homogeneous:
        return graded[0], k_times_one_minus(graded[1], f.degree())
    return None


def regular_sequence_check(xs, M, e_range, budget=None):
    """For each level e, is xs a regular sequence on F^e(M)?  The all-true
    answer over a range is the finite evidence for regularity on the
    perfect-closure base change."""
    budget = Budget.ensure(budget)
    free = M.ring.free()
    xs = [x.transported(free) for x in xs]
    rank = M.rank
    results = []
    for e in e_range:
        cols = frobenius_functor(M, e).lifted_columns()
        graded = None
        ok = True
        for f in xs:
            if graded is None and f.is_homogeneous and not f.is_constant:
                graded = _hilbert_data(cols, rank, free, budget)
            if not is_regular_element(f, cols, rank, free, budget,
                                      graded=graded):
                ok = False
                break
            cols = cols + diagonal_columns(f, rank, free)
            graded = _quotient_data(graded, f)
        results.append(ok)
    return results


# ---------------------------------------------------------------------------
# candidate pools for depth searches

MAX_EXHAUSTIVE_LINEAR = 512
MAX_EXHAUSTIVE_QUADRATIC = 4096
SAMPLED_POOL = 512   # <= both caps, so a sampled space has this many forms


def _normalized_vectors(p, length):
    """Nonzero coefficient vectors with first nonzero entry 1 (one
    representative per scalar class), in lexicographic order."""
    for zeros in range(length - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=length - 1 - zeros):
            yield (0,) * zeros + (1,) + tail


def _forms(ring, degree, limit, seed):
    """Forms sum c_i * m_i over the monomials m_i of the degree: every one
    up to scalar when p^#monomials <= limit, else SAMPLED_POOL distinct
    seeded random coefficient vectors.  Returns (forms, exhaustive)."""
    n = ring.nvars
    monos = [tuple(c.count(k) for k in range(n)) for c in
             itertools.combinations_with_replacement(range(n), degree)]
    p, m = ring.p, len(monos)
    if p ** m <= limit:
        vecs, exhaustive = _normalized_vectors(p, m), True
    else:
        rng = random.Random(seed)
        vecs = {}   # insertion-ordered: the first draw of each vector
        while len(vecs) < SAMPLED_POOL:
            vec = tuple(rng.randrange(p) for _ in range(m))
            if any(vec):
                vecs[vec] = None
        exhaustive = False
    ranked = sorted(range(m), key=lambda i: ring.order.key(monos[i]))[::-1]
    return [Polynomial(ring, tuple((monos[i], v[i]) for i in ranked if v[i]))
            for v in vecs], exhaustive


def linear_candidates(ring, seed=0):
    """All linear forms up to scalar when p^n is small, else a seeded random
    sample.  Returns (forms, exhaustive)."""
    return _forms(ring, 1, MAX_EXHAUSTIVE_LINEAR, seed)


def quadratic_candidates(ring, seed=0):
    """Homogeneous degree-2 forms, exhaustive for small coefficient spaces.
    Finite fields can lack linear regular elements, so depth searches fall
    back to these."""
    return _forms(ring, 2, MAX_EXHAUSTIVE_QUADRATIC, seed)


@dataclass
class DepthSearchReport:
    """Greedy regular-sequence search outcome: a certified lower bound with
    its witness sequence.  exhaustive means the bound is sharp: the search
    stopped because some level N of M modulo the witness has dimension 0
    or depth 0 (H_n(x; N) != 0), where no form is regular.  Pools that run
    out without such a stop leave every level of depth >= 1, where prime
    avoidance gives a regular form of higher degree: never sharp."""

    bound: int
    witness: tuple
    exhaustive: bool
    seed: int = 0


def _dimension_zero(graded, n):
    """Some level, given by its _hilbert_data, has Krull dimension <= 0
    (read off its Hilbert series), so no form is regular on it.  A level
    of dimension -1 is the zero module, which has no depth."""
    for level in filter(None, graded):
        dim = hilbert_dimension(level[1], n)
        if dim < 0:
            raise ValueError(_VANISHES)
        if dim == 0:
            return True
    return False


def _greedy_search(M, e_max, seed, budget):
    """Grow a sequence greedily: the next element is the first pool form
    (linear forms, then homogeneous quadratics) regular on F^e(M) for every
    e <= e_max, modulo the elements already chosen.  A round starts with
    the dim stop, and a round whose linear pool fails asks for depth 0
    before the quadratic pool: once some level has dimension 0 or depth 0,
    no round can extend the witness."""
    if e_max < 0:
        # with no levels every form would pass, and the search never ends
        raise ValueError("e_max must be >= 0")
    budget = Budget.ensure(budget)
    free = M.ring.free()
    rank = M.rank
    levels = [frobenius_functor(M, e).lifted_columns()
              for e in range(e_max + 1)]
    # graded M = 0 shows as dimension -1 in the dim stop; otherwise M_m = 0
    # exactly when H_0(x; M) = M/mM = 0 (Nakayama)
    graded = [_hilbert_data(cols, rank, free, budget) for cols in levels]
    if not (graded[0] or koszul_homology_nonzero(free.gens(), M, 0, budget)):
        raise ValueError(_VANISHES)
    pools = []   # each built once per search, when a round first needs it
    witness = []
    while True:
        if _dimension_zero(graded, free.nvars):
            return DepthSearchReport(len(witness), tuple(witness), True, seed)
        for k, build in enumerate((linear_candidates, quadratic_candidates)):
            if k and any(koszul_homology_nonzero(
                    free.gens(), ModulePresentation(free, rank, cols),
                    free.nvars, budget) for cols in levels):
                return DepthSearchReport(len(witness), tuple(witness), True, seed)
            if k == len(pools):
                pools.append(build(free, seed)[0])
            found = next((f for f in pools[k] if all(
                is_regular_element(f, cols, rank, free, budget, graded=level)
                for cols, level in zip(levels, graded))), None)
            if found is not None:
                break
        if found is None:   # not sharp: see DepthSearchReport
            return DepthSearchReport(len(witness), tuple(witness), False, seed)
        witness.append(found)
        levels = [cols + diagonal_columns(found, rank, free)
                  for cols in levels]
        graded = [_quotient_data(level, found) for level in graded]


def classical_depth_search(M, seed=0, budget=None):
    """Greedy search for a regular sequence on M among linear forms, then
    homogeneous quadratics.  Returns a lower bound for depth with a
    witness."""
    return _greedy_search(M, 0, seed, budget)


# ---------------------------------------------------------------------------
# stabilizing depth

WINDOW = 2   # equal tail values that count as stabilized


def _settled(values, window=WINDOW):
    """The last `window` values exist and are all equal."""
    return len(values) >= window and len(set(values[-window:])) == 1


@dataclass
class SdepthReport:
    """depth(F^e(M)) for e = 0..e_max, with the eventual value detected by a
    run of `window` equal tail values; None means unresolved within e_max."""

    per_e_depth: list
    stabilized_value: int | None
    window: int
    f_pure: bool
    monotone: bool

    @property
    def unresolved(self):
        return self.stabilized_value is None


def sdepth(M, e_max=4, window=WINDOW, cross_check=True, budget=None):
    """Stabilizing depth of M: the eventual constant value of depth under
    the Frobenius functor.  Over an F-pure ring the per-level values must be
    non-increasing; a violation is a hard engine failure."""
    budget = Budget.ensure(budget)
    f_pure = (not M.ring.is_quotient
              or fedder_f_pure(M.ring, budget=budget).is_f_pure)
    per_e = []
    for e in range(e_max + 1):
        d = depth_at_origin(frobenius_functor(M, e), cross_check, budget)
        per_e.append((e, d))
    values = [d for _, d in per_e]
    monotone = all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    if f_pure and not monotone:
        raise InternalInvariantError(
            f"depth under Frobenius increased over an F-pure ring: {values}")
    stabilized = values[-1] if _settled(values, window) else None
    return SdepthReport(per_e, stabilized, window, f_pure, monotone)


def cdepth_lower_bound(M, e_max=4, seed=0, budget=None):
    """Longest sequence found that is regular on F^e(M) for every e <= e_max
    simultaneously; bounds the classical depth of the perfect-closure base
    change from below."""
    return _greedy_search(M, e_max, seed, budget)


@dataclass
class KdepthReport:
    """Koszul profiles of the variables on F^e(M) per level (under the
    truncation isomorphism, those of the fractional bracket powers of the
    maximal ideal); `stable_kgrade` is the last grade once the profiles
    settle by sdepth's window rule."""

    profiles: list
    stable: bool
    stable_kgrade: int | None


def kdepth_truncation_profile(M, e_max=4, budget=None):
    """Per-level Koszul profiles plus whether the nonzero-homology pattern
    is eventually constant, by sdepth's window rule.  No homology at level
    0 means M_m = 0 (F^e keeps it): a ValueError."""
    budget = Budget.ensure(budget)
    free = M.ring.free()
    xs = list(free.gens())
    profiles = [kgrade(xs, frobenius_functor(M, e), budget)
                for e in range(e_max + 1)]
    if not profiles[0].nonzero_homology:
        raise ValueError(_VANISHES)
    stable = _settled([p.nonzero_homology for p in profiles])
    stable_kgrade = profiles[-1].kgrade if stable else None
    return KdepthReport(profiles, stable, stable_kgrade)
