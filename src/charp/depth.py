"""Koszul homology, depth at the origin, and depth under Frobenius.

The Frobenius functor acts on a presentation by raising every relation
entry to the q-th power; for a cyclic module R/J this is R/J^[q], the
concrete left-module avatar under which left multiplication by the ring is
ordinary multiplication.  Depth at the origin is the Koszul grade of the
variables, computed homology group by homology group:

    H_i(x; M) != 0  <=>  some kernel generator of the i-th differential
                         (tensored with the presentation) escapes the span
                         of the (i+1)-st image and the relation block.

Kernels are module colons of d_i into the relation block (one POT basis
in which only the columns of d_i carry tags), images are module
membership questions, so everything reduces to the module engine.  In the
graded free-ring case the answer is cross-checked against the projective
dimension through the depth + pd = n identity.

The greedy regular-sequence search is the third route.  On a graded
module a form f of degree d is regular exactly when M != 0 and the
K-polynomials satisfy K(M/fM) = (1 - t^d) K(M), so each test costs two
module bases and no syzygies; ungraded inputs keep the syzygy test.  The
same Hilbert series give dim M, and the search stops as soon as some level
modulo the witness has dimension 0 (depth <= dim).  Both read only M's own
leading terms, so the route stays independent of Koszul homology and of
n - pd.
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
                      in_module, k_times_one_minus, kpolynomial, module_colon,
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

def _subsets(n, i):
    return list(itertools.combinations(range(n), i))


def koszul_differential(xs, i, ring):
    """Columns of d_i : K_i -> K_{i-1} for the Koszul complex on xs, with
    subsets ordered lexicographically and the usual alternating signs."""
    n = len(xs)
    rows = {s: idx for idx, s in enumerate(_subsets(n, i - 1))}
    cols = []
    zero = ring.zero()
    for S in _subsets(n, i):
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


def koszul_homology_nonzero(xs, M, i, budget=None):
    """Decide H_i(x; M) != 0 for the presented module M."""
    budget = Budget.ensure(budget)
    free = M.ring.free()
    xs = [x.transported(free) for x in xs]
    n = len(xs)
    if i < 0 or i > n:
        return False
    r = M.rank
    rel = M.lifted_columns()
    eye = diagonal_columns(1, r, free)

    def relations(blocks):
        return _kron(diagonal_columns(1, blocks, free), rel, free)

    if i == 0:
        d1 = _kron(koszul_differential(xs, 1, free), eye, free)
        H0 = ModulePresentation(free, r, d1 + relations(1))
        return not H0.is_zero_module(budget)
    b_i = comb(n, i)
    b_low = comb(n, i - 1)
    di = _kron(koszul_differential(xs, i, free), eye, free)
    kernel = module_colon(di, relations(b_low), b_low * r, free, budget)
    if not kernel:
        return False
    image = []
    if i < n:
        image = _kron(koszul_differential(xs, i + 1, free), eye, free)
    span = image + relations(b_i)
    gb = module_groebner(span, b_i * r, free, budget)
    return any(not in_module(k, gb, b_i * r, free, budget) for k in kernel)


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
    budget = Budget.ensure(budget)
    xs = tuple(xs)
    n = len(xs)
    nonzero = frozenset(i for i in range(n + 1)
                        if koszul_homology_nonzero(xs, M, i, budget))
    return KoszulProfile(xs, n, nonzero)


# ---------------------------------------------------------------------------
# depth at the origin

_VANISHES = "module vanishes at the origin; depth undefined"


def depth_at_origin(M, cross_check=True, budget=None):
    """Koszul depth of the variables on M; in the graded free-ring case the
    value is cross-checked against n - pd(M)."""
    budget = Budget.ensure(budget)
    free = M.ring.free()
    xs = list(free.gens())
    n = len(xs)
    depth = None
    for h in range(n, -1, -1):
        if koszul_homology_nonzero(xs, M, h, budget):
            depth = n - h
            break
    if depth is None:
        raise ValueError(_VANISHES)
    if (cross_check and not M.ring.is_quotient
            and row_degrees(M.lifted_columns(), M.rank) is not None):
        _, pd = free_resolution(M, cap=n, budget=budget)
        if pd is None:
            pd = n  # Hilbert's bound: the cap-n resolution always closes
        if depth != n - pd:
            raise InternalInvariantError(
                f"Koszul depth {depth} disagrees with n - pd = {n - pd}")
    return depth


# ---------------------------------------------------------------------------
# regular elements and sequences

def _regular_by_hilbert(f, cols, rank, ring, degrees, budget):
    """The Hilbert route, for M = coker(cols) graded by `degrees` and a form
    f of degree d >= 1.  The exact sequence
    0 -> (0 :_M f)(-d) -> M(-d) -> M -> M/fM -> 0 gives
    HS(M/fM) = (1 - t^d) HS(M) + t^d HS(0 :_M f), so f is regular exactly
    when M != 0 and K(M/fM) = (1 - t^d) K(M); graded Nakayama gives
    M != fM for free."""
    k = kpolynomial(cols, rank, ring, degrees, budget)
    if not k:
        return False
    quotient = list(cols) + diagonal_columns(f, rank, ring)
    return (kpolynomial(quotient, rank, ring, degrees, budget)
            == k_times_one_minus(k, f.degree()))


def _regular_by_syzygies(f, cols, rank, ring, budget):
    """The syzygy route: every w with f*w in the column span lies in the
    span itself, and M/fM does not vanish."""
    gb = module_groebner(cols, rank, ring, budget)
    for w in module_colon_by_element(cols, rank, f, ring, budget):
        if not in_module(w, gb, rank, ring, budget):
            return False
    quotient = ModulePresentation(ring, rank,
                                  list(cols) + diagonal_columns(f, rank, ring))
    return not quotient.is_zero_module(budget)


def is_regular_element(f, cols, rank, ring, budget=None):
    """f is a nonzerodivisor on M = coker(cols) and does not act as the
    whole module (M != f*M).  Graded M and a form f take the Hilbert
    route, every other input the syzygy route: the route depends on the
    input only.  Constants are never regular, since M = cM."""
    budget = Budget.ensure(budget)
    if f.is_constant:
        return False
    degrees = row_degrees(cols, rank) if f.is_homogeneous else None
    if degrees is not None:
        return _regular_by_hilbert(f, cols, rank, ring, degrees, budget)
    return _regular_by_syzygies(f, cols, rank, ring, budget)


def regular_sequence_check(xs, M, e_range, budget=None):
    """For each level e, is xs a regular sequence on F^e(M)?  The all-true
    answer over a range is the finite evidence for regularity on the
    perfect-closure base change."""
    budget = Budget.ensure(budget)
    free = M.ring.free()
    xs = [x.transported(free) for x in xs]
    results = []
    for e in e_range:
        Fe = frobenius_functor(M, e)
        cols = Fe.lifted_columns()
        rank = Fe.rank
        ok = True
        for f in xs:
            if not is_regular_element(f, cols, rank, free, budget):
                ok = False
                break
            cols = cols + diagonal_columns(f, rank, free)
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
    its witness sequence.  exhaustive means the bound is sharp: either every
    candidate pool was fully enumerated (sharp for sequences drawn from the
    pools), or the search stopped because some graded level of M modulo the
    witness has dimension 0, where depth <= dim makes it sharp outright."""

    bound: int
    witness: tuple
    exhaustive: bool
    seed: int = 0


def _dimension_zero(levels, rank, ring, budget):
    """Some graded level has Krull dimension <= 0 (read off its Hilbert
    series), so no form is regular on it.  A level of dimension -1 is the
    zero module, which has no depth."""
    for cols in levels:
        degrees = row_degrees(cols, rank)
        if degrees is None:
            continue
        dim = hilbert_dimension(kpolynomial(cols, rank, ring, degrees, budget),
                                ring.nvars)
        if dim < 0:
            raise ValueError(_VANISHES)
        if dim == 0:
            return True
    return False


def _greedy_search(M, e_max, seed, budget):
    """Grow a sequence greedily: the next element is the first pool form
    (linear forms, then homogeneous quadratics) regular on F^e(M) for every
    e <= e_max, modulo the elements already chosen.  A round starts with
    the dim stop: once some level has dimension 0, no round can extend the
    witness, and the bound equals that level's depth."""
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
    graded = row_degrees(levels[0], rank) is not None
    if not graded and not koszul_homology_nonzero(free.gens(), M, 0, budget):
        raise ValueError(_VANISHES)
    pools = None
    witness = []
    exhaustive = True
    while True:
        if _dimension_zero(levels, rank, free, budget):
            return DepthSearchReport(len(witness), tuple(witness), True, seed)
        if pools is None:  # once per search, and only if a round needs them
            pools = [linear_candidates(free, seed),
                     quadratic_candidates(free, seed)]
        found = None
        for forms, full in pools:
            if not full:
                exhaustive = False
            for f in forms:
                if all(is_regular_element(f, cols, rank, free, budget)
                       for cols in levels):
                    found = f
                    break
            if found is not None:
                break
        if found is None:
            return DepthSearchReport(len(witness), tuple(witness), exhaustive, seed)
        witness.append(found)
        levels = [cols + diagonal_columns(found, rank, free)
                  for cols in levels]


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
    maximal ideal); `sdepth_value` is sdepth's window rule on these Koszul
    grades, not `sdepth()`, so `matches_sdepth` always equals `stable`."""

    profiles: list
    stable: bool
    stable_kgrade: int | None
    sdepth_value: int | None

    @property
    def matches_sdepth(self):
        return (self.stable_kgrade is not None
                and self.stable_kgrade == self.sdepth_value)


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
    grades = [p.kgrade for p in profiles]
    sdepth_value = grades[-1] if _settled(grades) else None
    return KdepthReport(profiles, stable, stable_kgrade, sdepth_value)
