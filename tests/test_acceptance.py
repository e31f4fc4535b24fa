"""Acceptance criteria, one test per criterion, exact tolerances.

Every check here is example reproduction or a zero-tolerance property over
a seeded corpus; each test prints a single PASS line on success so the
whole gate reads as a checklist under `pytest -s` or in the captured
output.
"""

import itertools
import json
import random
import subprocess
import sys

import pytest

from charp import (FSequence, Ideal, ModulePresentation, ass_monomial,
                   cdepth_lower_bound, classical_depth_search, depth_at_origin,
                   fedder_f_pure, free_resolution, frobenius_closure,
                   fseq_radical_stabilize, fseq_to_perfect_ideal,
                   fseq_verify, gamma_fseq, is_frobenius_closed,
                   kdepth_truncation_profile, parse_ring,
                   prime_extension_check, principal_variable_obstruction,
                   sdepth, union_ass_fseq)
from charp.assoc import SIDE_BASE, SIDE_EXTENSION
from charp.verify import brute_force_member, random_monomial_ideal, random_poly


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_fedder():
    """F-purity decisions for the hypersurface family and the coordinate
    cross, exact booleans."""
    for p in (2, 3, 5):
        ring = parse_ring(f"F_{p}[x,y,z]/(x^{p} - y*z^{p})")
        assert fedder_f_pure(ring).is_f_pure is False, f"p={p}"
    for p in (2, 3):
        ring = parse_ring(f"F_{p}[x,y]/(x*y)")
        rep = fedder_f_pure(ring)
        assert rep.is_f_pure is True and rep.witness is not None, f"p={p}"
    report(1, "hypersurfaces not F-pure (p=2,3,5); coordinate cross F-pure "
              "with witness (p=2,3)")


def test_criterion_2_closure_witness_and_closed_monomials():
    """The closure of (z) gains x in the non-F-pure family; random monomial
    ideals in polynomial rings are always Frobenius closed."""
    for p, emax in ((2, 3), (3, 3), (5, 2)):
        ring = parse_ring(f"F_{p}[x,y,z]/(x^{p} - y*z^{p})")
        J = Ideal(ring, ["z"])
        res = frobenius_closure(J, emax)
        assert res.closure.contains(ring.free().poly("x")), f"p={p}"
        assert is_frobenius_closed(J, emax) is False, f"p={p}"
    rng = random.Random("criterion-2")
    checked = 0
    for p in (2, 3):
        ring = parse_ring(f"F_{p}[x,y]")
        for _ in range(15):
            I = random_monomial_ideal(ring, rng, max_deg=4, max_gens=3)
            res = frobenius_closure(I, 3)
            assert res.stabilized_at == 0, f"{I!r} not closed at level 0"
            assert res.closure.equal(I), f"{I!r} grew"
            checked += 1
    assert checked == 30
    report(2, "closure of (z) contains x and (z) is not closed (p=2,3,5); "
              "30/30 random monomial ideals Frobenius closed")


def test_criterion_3_fseq_families():
    """The three chain families verify up to E = 5 and stabilize to the
    expected radicals, exactly."""
    R = parse_ring("F_2[x,y]")
    bracket = FSequence.bracket_chain(Ideal(R, ["x", "y"]), 5)
    tower = FSequence.explicit(R, [Ideal(R, ["x", f"y^{2 ** e}"])
                                   for e in range(6)])
    constant = FSequence.constant_chain(Ideal(R, ["x"]), 5)
    for name, seq in (("bracket", bracket), ("tower", tower),
                      ("constant", constant)):
        ok, idx = fseq_verify(seq)
        assert ok, f"{name} fails at {idx}"
    xy = Ideal(R, ["x", "y"])
    assert fseq_radical_stabilize(bracket).equal(xy)
    assert fseq_radical_stabilize(tower).equal(xy)
    assert fseq_radical_stabilize(constant).equal(Ideal(R, ["x"]))
    report(3, "bracket/tower/constant chains verify to E=5 with radicals "
              "(x,y), (x,y), (x)")


def test_criterion_4_ass_monotonicity():
    """Associated primes are nested along 20 random bracket-power chains in
    at most three variables; zero violations."""
    rng = random.Random("criterion-4")
    rings = [parse_ring("F_2[x,y]"), parse_ring("F_2[x,y,z]"),
             parse_ring("F_3[x,y,z]")]
    for i in range(20):
        ring = rings[i % len(rings)]
        I = random_monomial_ideal(ring, rng, max_deg=3, max_gens=3)
        seq = FSequence.bracket_chain(I, 3)
        prev = set()
        for e, J in enumerate(seq.terms):
            cur = {r.variables for r in ass_monomial(J)}
            assert prev <= cur, f"#{i} {I!r} level {e}: {prev} vs {cur}"
            prev = cur
    report(4, "Ass nested along 20 random bracket-power chains, 0 violations")


def test_criterion_5_correspondence_surrogate():
    """Extension-side records are exactly the contraction preimages of the
    base union, and the contraction chain of the matching root-generated
    ideal reproduces the original prefix."""
    R = parse_ring("F_2[x,y]")
    bracket_terms = [Ideal(R, [f"x^{2 ** e}", f"y^{2 ** e}"]) for e in range(4)]
    tower_terms = [Ideal(R, ["x", f"y^{2 ** e}"]) for e in range(4)]
    for terms in (bracket_terms, tower_terms):
        seq = FSequence.explicit(R, terms)
        recs = union_ass_fseq(seq)
        base = {(r.variables, r.first_seen) for r in recs if r.side == SIDE_BASE}
        ext = [r for r in recs if r.side == SIDE_EXTENSION]
        # the extension-side sets are the phi-preimages: same contractions
        assert {(r.variables, r.first_seen) for r in ext
                if r.kind == "wAss"} == base
        assert {(r.variables, r.first_seen) for r in ext
                if r.kind == "sK"} == base
        assert all(r.kind in ("wAss", "sK") for r in ext)
        # round trip through the root-generated ideal
        J = fseq_to_perfect_ideal(seq)
        rep = gamma_fseq(J, seq.top_index, lift_cap=6)
        assert rep.verified
        assert all(a.equal(b) for a, b in zip(rep.sequence.terms, seq.terms))
    report(5, "extension-side records equal the contraction preimages; "
              "Gamma round trip is the identity on both example prefixes")


def _corpus_67(seed):
    rng = random.Random(seed)
    rings = [parse_ring("F_2[x,y,z]"), parse_ring("F_3[x,y]")]
    out = []
    for i in range(20):
        ring = rings[i % 2]
        I = random_monomial_ideal(ring, rng, max_deg=3, max_gens=3)
        if I.is_unit:
            continue
        out.append((ring, I))
    return out


def test_criterion_6_depth_noincrease_and_sdepth():
    """Per-level depth is non-increasing and stabilizes within e <= 4 on 20
    random graded monomial cyclic modules; S/(xy, xz) has sdepth exactly 1."""
    for ring, I in _corpus_67("criterion-6"):
        M = ModulePresentation.cyclic(ring, I.gens)
        rep = sdepth(M, e_max=4, window=2)
        values = [d for _, d in rep.per_e_depth]
        assert rep.monotone, f"{I!r}: {values}"
        assert rep.stabilized_value is not None, f"{I!r} did not stabilize"
    R = parse_ring("F_2[x,y,z]")
    M = ModulePresentation.cyclic(R, [R.poly("x*y"), R.poly("x*z")])
    assert sdepth(M, e_max=4).stabilized_value == 1
    report(6, "depth non-increasing and stable within e<=4 on 20 modules; "
              "sdepth(S/(xy,xz)) = 1")


def test_criterion_7_comparison_chain():
    """Stable truncation grade equals sdepth on every instance; the
    all-level regular-sequence bound never exceeds sdepth and matches it
    whenever the candidate pools were exhausted."""
    for ring, I in _corpus_67("criterion-7"):
        M = ModulePresentation.cyclic(ring, I.gens)
        sd = sdepth(M, e_max=4, cross_check=False)
        kd = kdepth_truncation_profile(M, e_max=4)
        cd = cdepth_lower_bound(M, e_max=4)
        assert kd.stable_kgrade == sd.stabilized_value, \
            f"{I!r}: kdepth {kd.stable_kgrade} vs sdepth {sd.stabilized_value}"
        assert cd.bound <= sd.stabilized_value, \
            f"{I!r}: cdepth bound exceeded sdepth"
        if cd.exhaustive:
            assert cd.bound == sd.stabilized_value, \
                f"{I!r}: exhaustive search stopped at {cd.bound} < " \
                f"{sd.stabilized_value}"
    report(7, "kdepth = sdepth >= cdepth bound on all instances; equality "
              "everywhere the pools were exhaustive")


def test_criterion_8_oracle_triangle():
    """Koszul depth, n - pd, and the greedy search agree on 20 random graded
    monomial/binomial cyclic modules with n <= 4, degree <= 4."""
    from charp.verify import random_graded_cyclic_ideal
    rng = random.Random("criterion-8")
    rings = [parse_ring("F_2[x,y,z]"), parse_ring("F_3[x,y]"),
             parse_ring("F_2[x,y,z,w]")]
    done = 0
    i = 0
    while done < 20:
        ring = rings[i % len(rings)]
        i += 1
        I = random_graded_cyclic_ideal(ring, rng, max_deg=4)
        if I.is_unit:
            continue
        M = ModulePresentation.cyclic(ring, I.gens)
        n = ring.nvars
        d_koszul = depth_at_origin(M, cross_check=False)
        _, pd = free_resolution(M, cap=n)
        assert pd is not None, f"{I!r}: no resolution within {n} steps"
        greedy = classical_depth_search(M)
        assert d_koszul == n - pd, f"{I!r}: {d_koszul} vs n-pd {n - pd}"
        assert greedy.bound <= d_koszul, f"{I!r}: greedy overshot"
        if greedy.exhaustive:
            assert greedy.bound == d_koszul, \
                f"{I!r}: exhaustive greedy found {greedy.bound} < {d_koszul}"
        done += 1
    report(8, "Koszul = n - pd = greedy classical depth on 20 instances")


def test_criterion_9_spectra_and_obstruction():
    """Every monomial prime of F_2[x,y] and F_2[x,y,z] passes the
    homeomorphism evidence at levels <= 3; the one-variable obstruction
    holds for e <= 4."""
    for ring_text in ("F_2[x,y]", "F_2[x,y,z]"):
        ring = parse_ring(ring_text)
        for k in range(ring.nvars + 1):
            for combo in itertools.combinations(ring.variables, k):
                P = Ideal(ring, [ring.var(v) for v in combo])
                rep = prime_extension_check(P, 3)
                assert rep.passed, f"{ring_text} prime {combo}"
    results = principal_variable_obstruction(parse_ring("F_2[x]"), 4)
    assert all(ok for _, ok in results)
    report(9, "all monomial primes pass at levels <= 3 in 2 and 3 variables; "
              "obstruction verified for e <= 4")


def test_criterion_10_membership_ground_truth(subprocess_env):
    """Engine membership agrees with brute-force cofactor enumeration on 100
    random instances; reduced bases are byte-identical across runs and
    across interpreter hash seeds."""
    rng = random.Random("criterion-10")
    rings = [parse_ring("F_2[x,y]"), parse_ring("F_2[x,y,z]"),
             parse_ring("F_3[x,y,z]")]
    done = 0
    i = 0
    while done < 100:
        ring = rings[i % len(rings)]
        i += 1
        gens = [random_poly(ring, rng, max_deg=3) for _ in
                range(rng.randrange(1, 4))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = Ideal(ring, gens)
        if done % 2 == 0:
            f = sum((random_poly(ring, rng, max_deg=2) * g for g in gens),
                    ring.zero())
        else:
            f = random_poly(ring, rng, max_deg=3)
        engine = I.contains(f)
        brute = any(brute_force_member(f, gens, cap) for cap in (6, 9, 12))
        assert engine == brute, f"#{done}: {f} vs {I!r}"
        done += 1

    # determinism within one process: fresh objects, same bytes
    gens = ["x^2*y + z", "y^2 + x*z", "x*y*z + z^2"]
    R = parse_ring("F_2[x,y,z]")
    one = tuple(map(str, Ideal(R, gens).groebner_basis()))
    two = tuple(map(str, Ideal(R, gens).groebner_basis()))
    assert one == two

    # determinism across interpreter hash seeds: run the CLI twice
    outs = []
    for hashseed in ("1", "2"):
        env = dict(subprocess_env, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "charp", "gb", "--ring", "F_2[x,y,z]",
             "--ideal", "(" + ", ".join(gens) + ")", "--json"],
            capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    report(10, "100/100 membership agreements; byte-identical bases "
               "in-process and across hash seeds")
