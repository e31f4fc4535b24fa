"""Koszul homology, depth, the Frobenius functor, and the comparison chain."""

import itertools
import random
from math import comb

import pytest

from charp import (Ideal, ModulePresentation, cdepth_lower_bound,
                   classical_depth_search, depth_at_origin, frobenius_functor,
                   kdepth_truncation_profile, kgrade, koszul_complex,
                   koszul_homology_nonzero, parse_ring,
                   regular_sequence_check, sdepth)
from charp import depth as depth_mod
from charp.budget import Budget, InternalInvariantError
from charp.depth import (_normalized_vectors, _regular_by_hilbert,
                         _regular_at_origin, is_regular_element,
                         koszul_differential, koszul_homology,
                         linear_candidates, quadratic_candidates)
from charp.modules import (_kron, diagonal_columns, in_module, kpolynomial,
                           module_colon, module_colon_by_element,
                           module_groebner, row_degrees, span_colon)
from charp.ring import Block, GRevLex, Lex
from charp.verify import (random_form, random_graded_cyclic_ideal,
                          random_graded_module, random_poly)


@pytest.fixture
def two_planes(R2xyz):
    return ModulePresentation.cyclic(R2xyz, [R2xyz.poly("x*y"), R2xyz.poly("x*z")])


def division_profile(xs, M):
    """The Koszul profile by division: H_i != 0 exactly when some cycle
    leaves the boundaries, each degree built from scratch.  Asserts that
    each degree's boundaries lie in its cycles."""
    free = M.ring.free()
    xs = [x.transported(free) for x in xs]
    n, r = len(xs), M.rank
    eye, rel = diagonal_columns(1, r, free), M.lifted_columns()
    nonzero = set()
    for i in range(n + 1):
        rank = comb(n, i) * r
        cycles = diagonal_columns(free.one(), r, free)
        if i:
            cycles = module_colon(
                _kron(koszul_differential(xs, i, free), eye, free),
                _kron(diagonal_columns(1, comb(n, i - 1), free), rel, free),
                comb(n, i - 1) * r, free)[0]
        boundaries = module_groebner(
            _kron(koszul_differential(xs, i + 1, free), eye, free)
            + _kron(diagonal_columns(1, comb(n, i), free), rel, free),
            rank, free)
        assert in_module(boundaries, cycles, rank, free), (M, i)
        if cycles and not in_module(cycles, boundaries, rank, free):
            nonzero.add(i)
    return frozenset(nonzero)


def in_m(ring, rng, max_deg=2):
    """A seeded random polynomial without constant term."""
    g = random_poly(ring, rng, max_deg=max_deg, max_terms=3)
    return g - g.evaluate((0,) * ring.nvars)


def annihilator_route(f, cols, rank, ring):
    """f regular on M_m by annihilators: M_m != 0 and every generator w of
    (0 :_M f) has an annihilator modulo the columns with a unit at the
    origin (M_m = 0 is the same test on the unit vectors)."""
    def zero_at_origin(vectors):
        colon = span_colon(vectors, cols, rank, ring)
        return any(g.evaluate((0,) * ring.nvars) for g in colon.gens)

    return (all(zero_at_origin([w]) for w in
                module_colon_by_element(cols, rank, f, ring))
            and not zero_at_origin(diagonal_columns(ring.one(), rank, ring)))


class TestKoszulComplex:
    @pytest.mark.parametrize("ring_text", ["F_2[x,y,z]", "F_3[x,y,z]",
                                           "F_5[x,y,z,w]"])
    def test_differentials_compose_to_zero(self, ring_text):
        ring = parse_ring(ring_text)
        assert koszul_complex(list(ring.gens()), ring).composes_to_zero()

    def test_walk_agrees_with_each_group_alone(self, koszul_levels):
        # the walk takes each degree's boundaries from the colon above it;
        # koszul_homology_nonzero(xs, M, i) builds those of degree i itself;
        # both compare reduced bases, and the division route must agree
        R = parse_ring("F_2[x,y]")
        xs = list(R.gens())
        bracket = [(list(x.frobenius(e) for x in xs),
                    frobenius_functor(ModulePresentation.cyclic(R, gens), e))
                   for gens in ([R.poly("x^2"), R.poly("x*y")],
                                [R.poly("x*y")], [R.poly("y^2")])
                   for e in (1, 2)]
        cases = [(list(M.ring.free().gens()), M) for M in koszul_levels]
        profiles = set()
        for seq, M in cases + bracket:
            single = {i for i in range(len(seq) + 1)
                      if koszul_homology_nonzero(seq, M, i)}
            walk = kgrade(seq, M).nonzero_homology
            assert walk == single == division_profile(seq, M), M
            profiles.add(walk)
        assert len(profiles) >= 3

    def test_kron_blocks(self, R2xy):
        # A (x) I_2 and I_2 (x) R, columns (j, l) and rows (i, k) in order
        x, y, zero = R2xy.poly("x"), R2xy.poly("y"), R2xy.zero()
        eye = diagonal_columns(1, 2, R2xy)
        assert _kron([(x, y)], eye, R2xy) == [(x, zero, y, zero),
                                              (zero, x, zero, y)]
        assert _kron([(x,), (y,)], eye, R2xy) == [(x, zero), (zero, x),
                                                  (y, zero), (zero, y)]
        assert _kron(eye, [(x, y)], R2xy) == [(x, y, zero, zero),
                                              (zero, zero, x, y)]

    def test_free_module_acyclic(self, R2xy):
        M = ModulePresentation.free(R2xy)
        xs = list(R2xy.gens())
        assert not koszul_homology_nonzero(xs, M, 1)
        assert not koszul_homology_nonzero(xs, M, 2)
        assert koszul_homology_nonzero(xs, M, 0)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_walk_with_no_top_cycles(self, rank):
        # on a free module Z_2 = 0, so the walk never builds the top
        # boundaries (the `depth --ring F_5[x,y] --ideal (0)` input)
        ring = parse_ring("F_5[x,y]")
        M = ModulePresentation.free(ring, rank)
        xs = list(ring.gens())
        assert list(koszul_homology(xs, M, 2)) == [(2, False), (1, False),
                                                    (0, True)]
        assert depth_at_origin(M) == 2

    def test_residue_field_all_nonzero(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("y")])
        xs = list(R2xy.gens())
        assert all(koszul_homology_nonzero(xs, M, i) for i in range(3))

    def test_two_planes_top_index(self, R2xyz, two_planes):
        xs = list(R2xyz.gens())
        assert koszul_homology_nonzero(xs, two_planes, 2)
        assert not koszul_homology_nonzero(xs, two_planes, 3)


class TestKgrade:
    def test_free(self, R2xy):
        prof = kgrade(list(R2xy.gens()), ModulePresentation.free(R2xy))
        assert prof.kgrade == 2
        assert prof.nonzero_homology == frozenset({0})

    def test_residue_field(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("y")])
        assert kgrade(list(R2xy.gens()), M).kgrade == 0

    def test_hyperplane(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x")])
        assert kgrade(list(R2xy.gens()), M).kgrade == 1


class TestDepth:
    def test_two_planes(self, two_planes):
        assert depth_at_origin(two_planes) == 1

    def test_free(self, R2xyz):
        assert depth_at_origin(ModulePresentation.free(R2xyz)) == 3

    def test_residue_field(self, R2xyz):
        M = ModulePresentation.cyclic(R2xyz, [R2xyz.poly(v) for v in "xyz"])
        assert depth_at_origin(M) == 0

    def test_zero_module_rejected(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.one()])
        with pytest.raises(ValueError):
            depth_at_origin(M)

    def test_unclosed_cross_check_resolution_is_an_engine_fault(
            self, two_planes, monkeypatch):
        # over a graded free ring Hilbert's syzygy theorem closes the
        # minimal resolution within n steps, so None is an engine fault
        monkeypatch.setattr(depth_mod, "free_resolution",
                            lambda M, cap, budget: (None, None))
        with pytest.raises(InternalInvariantError, match="pd = None"):
            depth_at_origin(two_planes)
        assert depth_at_origin(two_planes, cross_check=False) == 1

    def test_quotient_ring_module(self):
        # R = F_2[x,y]/(x*y) is one-dimensional Cohen-Macaulay: depth 1
        Q = parse_ring("F_2[x,y]/(x*y)")
        assert depth_at_origin(ModulePresentation.free(Q)) == 1


VANISHING = [("F_2[x,y,z]", ["x + 1"]),
             ("F_3[x,y,z,w]", ["x*y + 1", "z^2 + w"]),
             ("F_2[x,y]/(x*y)", ["x + 1"])]


class TestInputCheck:
    """Every depth entry point rejects M_m = 0 and e_max < 0 first, before
    any budget step; reg-check answers False there."""

    @pytest.fixture(params=VANISHING, ids=lambda case: case[0])
    def vanishing(self, request):
        ring_text, gens = request.param
        R = parse_ring(ring_text)
        return ModulePresentation.cyclic(R, [R.poly(g) for g in gens])

    @pytest.mark.parametrize("entry", [
        depth_at_origin, sdepth, kdepth_truncation_profile,
        cdepth_lower_bound])
    def test_vanishing_module_rejected_at_no_cost(self, vanishing, entry):
        budget = Budget()
        with pytest.raises(ValueError, match="module vanishes"):
            entry(vanishing, budget=budget)
        assert budget.used == 0

    def test_reg_check_answers_false_at_no_cost(self, vanishing):
        R = vanishing.ring
        for xs in ([], [R.poly("x")], [R.poly("y"), R.poly("x")]):
            budget = Budget()
            flags = regular_sequence_check(xs, vanishing, range(3), budget)
            assert (flags, budget.used) == ([False] * 3, 0), xs

    @pytest.mark.parametrize("entry", [
        sdepth, kdepth_truncation_profile, cdepth_lower_bound])
    def test_negative_e_max_rejected(self, two_planes, entry):
        with pytest.raises(ValueError, match="e_max must be >= 0"):
            entry(two_planes, e_max=-1)


class TestClassicalSearch:
    def test_two_planes_witness(self, two_planes, R2xyz):
        rep = classical_depth_search(two_planes)
        assert rep.bound == 1 and rep.exhaustive
        f = rep.witness[0]
        # the witness avoids both associated primes (x) and (y, z)
        assert not Ideal(R2xyz, ["x"]).contains(f)
        assert not Ideal(R2xyz, ["y", "z"]).contains(f)

    def test_free(self, R2xy):
        rep = classical_depth_search(ModulePresentation.free(R2xy))
        assert rep.bound == 2

    def test_residue_field(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("y")])
        assert classical_depth_search(M).bound == 0

    def test_quadratic_fallback(self, R2xy):
        # every linear form over F_2[x,y] divides x*y*(x+y); depth is still 1
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x^2*y + x*y^2")])
        rep = classical_depth_search(M)
        assert rep.bound == 1
        assert rep.witness[0].degree() == 2

    def test_pools_that_run_out_leave_the_bound_unsharp(self, R2xy):
        # every linear and quadratic form over F_2 shares a factor with the
        # generator, so both pools run out before either stop fires; but
        # the cubic x^3 + x^2*y + y^3 is regular at every level: depth 1
        M = ModulePresentation.cyclic(
            R2xy, [R2xy.poly("x*y*(x + y)*(x^2 + x*y + y^2)")])
        cubic = R2xy.poly("x^3 + x^2*y + y^3")
        assert depth_at_origin(M) == 1
        assert regular_sequence_check([cubic], M, range(2)) == [True, True]
        for rep in (classical_depth_search(M), cdepth_lower_bound(M, 0),
                    cdepth_lower_bound(M, 1)):
            assert (rep.bound, rep.witness, rep.exhaustive) == (0, (), False)

    def test_pools_are_built_once_per_search(self, R2xy, R2xyz,
                                             monkeypatch):
        calls = []

        def counted(name):
            original = getattr(depth_mod, name)
            return lambda *a: calls.append(name) or original(*a)

        for name in ("linear_candidates", "quadratic_candidates"):
            monkeypatch.setattr(depth_mod, name, counted(name))
        # three rounds find x, y, z; the fourth stops at dimension 0, and
        # no round reaches the quadratic pool
        rep = cdepth_lower_bound(ModulePresentation.free(R2xyz), e_max=1)
        assert rep.bound == 3
        assert calls == ["linear_candidates"]
        # every linear form over F_3 divides x^3*y - x*y^3: the first round
        # builds the quadratic pool, the second stops at dimension 0
        calls.clear()
        R3 = parse_ring("F_3[x,y]")
        M = ModulePresentation.cyclic(R3, [R3.poly("x^3*y - x*y^3")])
        assert cdepth_lower_bound(M, e_max=1).bound == 1
        assert calls == ["linear_candidates", "quadratic_candidates"]
        # depth 0 in dimension 1: the depth-0 stop ends the first round
        # before it needs the quadratic pool
        calls.clear()
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x^2"),
                                             R2xy.poly("x*y")])
        rep = classical_depth_search(M)
        assert (rep.bound, rep.exhaustive) == (0, True)
        assert calls == ["linear_candidates"]
        # a search that stops in its first round needs no pool at all
        calls.clear()
        field = ModulePresentation.cyclic(R2xyz, list(R2xyz.gens()))
        assert classical_depth_search(field).bound == 0 and calls == []

    @pytest.mark.parametrize("p, length", [(2, 1), (2, 4), (3, 3), (5, 2)])
    def test_normalized_vectors_filter_the_whole_space(self, p, length):
        # the reference: every nonzero vector whose first nonzero entry is 1
        space = itertools.product(range(p), repeat=length)
        expected = [v for v in space if any(v) and next(c for c in v if c) == 1]
        assert list(_normalized_vectors(p, length)) == expected

    @pytest.mark.parametrize("order", [GRevLex(), Lex(), Block(1)])
    @pytest.mark.parametrize("ring_text", ["F_2[x,y,z,w]", "F_3[x,y,z]",
                                           "F_7[x,y,z]"])
    def test_pool_forms_are_canonical_and_in_vector_order(self, ring_text,
                                                          order):
        # each form is the from_dict form of its coefficient vector, and an
        # exhaustive pool lists the normalized vectors in order
        ring = parse_ring(ring_text).with_order(order)
        n = ring.nvars
        for degree, build in ((1, linear_candidates),
                              (2, quadratic_candidates)):
            monos = [tuple(c.count(k) for k in range(n)) for c in
                     itertools.combinations_with_replacement(range(n),
                                                             degree)]
            forms, exhaustive = build(ring, seed=3)
            vecs = [tuple(dict(f.terms).get(m, 0) for m in monos)
                    for f in forms]
            assert [f.terms for f in forms] == [
                ring.from_dict(dict(zip(monos, v))).terms for v in vecs]
            if exhaustive:
                assert vecs == list(_normalized_vectors(ring.p, len(monos)))
            else:
                assert len(set(vecs)) == len(vecs) == depth_mod.SAMPLED_POOL


class TestRegularElementRoutes:
    def _graded_cases(self):
        rng = random.Random("routes")
        cases = []
        for ring_text in ("F_2[x,y,z]", "F_3[x,y,z]", "F_5[x,y]"):
            ring = parse_ring(ring_text)
            for _ in range(6):
                M = random_graded_module(ring, rng)
                cases.append((ring, M.rank, list(M.columns)))
        Q = parse_ring("F_3[x,y,z]/(x*y - z^2)")
        quotient = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
        cases.append((Q.free(), 1, quotient.lifted_columns()))
        R = parse_ring("F_2[x,y]")
        cases.append((R, 2, [(R.one(), R.zero()), (R.zero(), R.one())]))
        return rng, cases

    def test_hilbert_and_syzygy_routes_agree(self):
        rng, cases = self._graded_cases()
        assert {rank for _, rank, _ in cases} == {1, 2, 3}
        answers = []
        for ring, rank, cols in cases:
            degrees = row_degrees(cols, rank)
            assert degrees is not None
            forms = [random_form(ring, rng, d) for d in (1, 1, 1, 2, 2, 2)]
            forms += [ring.var(v) for v in ring.variables]
            k = kpolynomial(cols, rank, ring, degrees)
            for f in forms:
                want = _regular_at_origin(f, cols, rank, ring, Budget())
                got = _regular_by_hilbert(f, cols, rank, ring, degrees, k,
                                          Budget())
                assert got == want, (cols, f)
                answers.append(want)
        assert True in answers and False in answers

    def test_route_depends_on_the_input(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("wrong route")

        R = parse_ring("F_2[x,y,z]")
        x, y, z = R.gens()
        monkeypatch.setattr(depth_mod, "_regular_by_hilbert", refuse)
        # ungraded module, or a graded module with a non-form
        assert is_regular_element(z, [(x + y * z,)], 1, R)
        assert is_regular_element(x + y * z, [(x * y,)], 1, R)
        assert not is_regular_element(x + x * y, [(x * y,)], 1, R)
        monkeypatch.undo()
        monkeypatch.setattr(depth_mod, "_regular_at_origin", refuse)
        assert is_regular_element(z, [(x * y,)], 1, R)
        assert not is_regular_element(x, [(x * y,)], 1, R)

    def test_constants_are_never_regular(self, R2xy):
        for f in (R2xy.zero(), R2xy.one()):
            assert not is_regular_element(f, [(R2xy.poly("x"),)], 1, R2xy)
            assert not is_regular_element(f, [(R2xy.poly("x + y^2"),)], 1, R2xy)

    def test_ungraded_modules_are_tested_at_the_origin(self, R2xyz,
                                                       depth_repro):
        cols = [(g,) for g in Ideal.parse(R2xyz, depth_repro).gens]
        assert row_degrees(cols, 1) is None
        for f, want in (("z", True), ("x + z", True), ("y + z", True),
                        ("x + y + z", True), ("x", False), ("y", False),
                        ("x + y", False), ("z + 1", False)):
            assert is_regular_element(R2xyz.poly(f), cols, 1, R2xyz) == want, f
        M = ModulePresentation.cyclic(R2xyz, [g for (g,) in cols])
        rep = cdepth_lower_bound(M, e_max=0)
        assert (rep.bound, rep.exhaustive) == (1, True)
        assert [str(w) for w in rep.witness] == ["z"]
        assert depth_at_origin(M) == 1

    @staticmethod
    def _ungraded_cases(depth_repro):
        rng = random.Random("local-route")
        R = parse_ring("F_2[x,y,z]")
        J = list(Ideal.parse(R, depth_repro).gens)
        cases = [(R, 1, [(g,) for g in J + [R.poly(extra)]])
                 for extra in ("0", "z", "x + z", "y*z + x", "z^2 + z")]
        for ring_text, count in (("F_2[x,y,z]", 2), ("F_3[x,y]", 1)):
            ring = parse_ring(ring_text)
            for _ in range(3):
                cases.append((ring, 2, [(in_m(ring, rng), in_m(ring, rng))
                                        for _ in range(count)]))
        for text in ("F_2[x,y,z]/(x*y, y*z)", "F_3[x,y]/(x^2 - y^3)"):
            Q = parse_ring(text)
            for _ in range(2):
                g = random_poly(Q.free(), rng, max_deg=3, max_terms=3)
                M = ModulePresentation.cyclic(Q, [g])
                cases.append((Q.free(), 1, M.lifted_columns()))
        assert all(row_degrees(cols, rank) is None
                   for _, rank, cols in cases[:5])
        return rng, cases

    def test_local_route_equals_the_annihilator_route(self, depth_repro):
        # every linear form and some non-homogeneous f in m, on depth_repro
        # and its quotients, seeded rank-2 matrices and quotient rings
        rng, cases = self._ungraded_cases(depth_repro)
        answers = []
        for ring, rank, cols in cases:
            forms = list(linear_candidates(ring)[0])
            forms += [in_m(ring, rng, max_deg=3) for _ in range(3)]
            forms += [f + f * f for f in forms[:2]]
            for f in filter(None, forms):
                want = annihilator_route(f, cols, rank, ring)
                got = _regular_at_origin(f, cols, rank, ring, Budget())
                assert got == want, (cols, f)
                answers.append(want)
        assert answers.count(True) >= 10 and answers.count(False) >= 10

    def test_module_vanishing_at_the_origin_has_no_regular_element(self,
                                                                  R2xy):
        # S/(x + 1) is F_2[y] globally, but zero at the origin
        cols = [(R2xy.poly("x + 1"),)]
        assert not is_regular_element(R2xy.poly("y"), cols, 1, R2xy)


class TestKPolynomialReuse:
    """A search keeps each level's (row degrees, K) and multiplies K by
    (1 - t^d) after each witness of degree d, instead of recomputing it."""

    def _modules(self, count=4):
        rng = random.Random("k-reuse")
        out = []
        for ring_text in ("F_2[x,y,z]", "F_3[x,y,z]", "F_5[x,y]"):
            ring = parse_ring(ring_text)
            out += [random_graded_module(ring, rng) for _ in range(count)]
        assert {M.rank for M in out} == {1, 2, 3}
        return out

    def test_derived_k_equals_recomputed_k(self, monkeypatch):
        seen = []
        original = depth_mod.is_regular_element

        def spy(f, cols, rank, ring, budget=None, graded=None):
            # checked at once: a wrong K can make the search run long
            if graded is not None:
                degrees = row_degrees(cols, rank)
                assert graded == (degrees, kpolynomial(cols, rank, ring,
                                                       degrees)), cols
                seen.append(len(cols))
            return original(f, cols, rank, ring, budget, graded=graded)

        monkeypatch.setattr(depth_mod, "is_regular_element", spy)
        after_witness = 0
        for M in self._modules():
            seen.clear()
            cdepth_lower_bound(M, e_max=1)
            after_witness += sum(n > len(M.lifted_columns()) for n in seen)
        assert after_witness > 0

    def test_one_k_per_level_and_per_hilbert_test(self, monkeypatch):
        counts = {"kpolynomial": 0, "hilbert": 0, "inside": 0}
        original = {name: getattr(depth_mod, name) for name in
                    ("kpolynomial", "_regular_by_hilbert",
                     "_regular_at_origin", "is_regular_element")}

        def kpolynomial_spy(*args):
            counts["kpolynomial"] += 1
            return original["kpolynomial"](*args)

        def route_spy(name):
            def spy(*args):
                assert counts["inside"], f"{name} ran outside the test"
                counts["hilbert"] += name == "_regular_by_hilbert"
                return original[name](*args)
            return spy

        def test_spy(*args, **kwargs):
            counts["inside"] += 1
            try:
                return original["is_regular_element"](*args, **kwargs)
            finally:
                counts["inside"] -= 1

        monkeypatch.setattr(depth_mod, "kpolynomial", kpolynomial_spy)
        for name in ("_regular_by_hilbert", "_regular_at_origin"):
            monkeypatch.setattr(depth_mod, name, route_spy(name))
        monkeypatch.setattr(depth_mod, "is_regular_element", test_spy)
        tests = 0
        for M in self._modules(count=2):
            for e_max in (0, 2):
                counts.update(kpolynomial=0, hilbert=0)
                cdepth_lower_bound(M, e_max=e_max)
                assert counts["kpolynomial"] == counts["hilbert"] + e_max + 1
                tests += counts["hilbert"]
        assert tests > 0

    @staticmethod
    def _recomputed(xs, M, e_range, budget):
        """regular_sequence_check with every test computing K(M) afresh."""
        free = M.ring.free()
        out = []
        for e in e_range:
            cols = frobenius_functor(M, e).lifted_columns()
            ok = True
            for f in xs:
                if not is_regular_element(f, cols, M.rank, free, budget):
                    ok = False
                    break
                cols = cols + diagonal_columns(f, M.rank, free)
            out.append(ok)
        return out

    def test_reg_check_matches_recomputation(self, monkeypatch):
        syzygy_tests = []
        original = depth_mod._regular_at_origin
        monkeypatch.setattr(depth_mod, "_regular_at_origin",
                            lambda *a: syzygy_tests.append(a) or original(*a))
        rng = random.Random("reg-check")
        answers = []
        for M in self._modules(count=3):
            ring = M.ring
            w = list(classical_depth_search(M).witness)
            sequences = [w, [random_form(ring, rng, 1),
                             random_form(ring, rng, 2)]]
            if w:  # f + f^2 = f (1 + f) is regular with f, but not a form
                sequences.append([w[0] + w[0] ** 2] + w[1:])
                sequences.append(w[:1] + [ring.var(ring.variables[-1])
                                          + ring.one()])
            for xs in sequences:
                fast, slow = Budget(), Budget()
                got = regular_sequence_check(xs, M, range(3), fast)
                assert got == self._recomputed(xs, M, range(3), slow), (M, xs)
                assert fast.used <= slow.used
                answers += got
        assert True in answers and False in answers
        assert syzygy_tests


class TestDimStop:
    def test_cohen_macaulay_keeps_its_witness(self):
        R = parse_ring("F_2[x,y,z,w]")
        rep = classical_depth_search(
            ModulePresentation.cyclic(R, [R.poly("x*y + z*w")]))
        assert rep.bound == 3 and rep.exhaustive
        assert tuple(str(f) for f in rep.witness) == ("w", "z", "x + y")

    def test_dimension_zero_makes_no_regular_test(self, R2xy, monkeypatch):
        calls = []
        original = depth_mod.is_regular_element
        monkeypatch.setattr(depth_mod, "is_regular_element",
                            lambda *a: calls.append(a) or original(*a))
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("y")])
        rep = classical_depth_search(M)
        assert (rep.bound, rep.exhaustive, calls) == (0, True, [])

    @pytest.mark.parametrize("gens", [["1"], ["x + 1", "x"],
                                      ["x^2 + y", "y + 1", "x"]])
    def test_zero_module_rejected(self, R2xy, gens):
        # the input check rejects graded (1) and the ungraded ones alike,
        # before the dim stop
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly(g) for g in gens])
        for search in (classical_depth_search,
                       lambda M: cdepth_lower_bound(M, e_max=2)):
            with pytest.raises(ValueError, match="module vanishes"):
                search(M)

    def test_zero_module_read_off_the_dim_stop(self, R2xy, monkeypatch):
        # the input check, not the dim stop, rejects this graded M = 0,
        # and before any depth-0 stop
        calls = []
        monkeypatch.setattr(depth_mod, "koszul_homology_nonzero",
                            lambda *a: calls.append(a))
        M = ModulePresentation(R2xy, 2, [(R2xy.one(), R2xy.zero()),
                                         (R2xy.poly("x"), R2xy.one())])
        with pytest.raises(ValueError, match="module vanishes"):
            cdepth_lower_bound(M, e_max=1)
        assert calls == []

    def test_sampled_pool_reports_a_sharp_bound(self):
        # 3^6 linear forms exceed the exhaustive cap, so the pool is sampled;
        # once x..v^2 and one form are cut out the quotient has dimension 0
        R = parse_ring("F_3[x,y,z,w,v,u]")
        M = ModulePresentation.cyclic(R, [R.poly(t) for t in
                                          ("x", "y", "z", "w", "v^2")])
        for rep in (classical_depth_search(M),
                    cdepth_lower_bound(M, e_max=1)):
            assert rep.bound == 1 and rep.exhaustive
            assert str(rep.witness[0]) == "x + y + w + 2*v + u"


class TestDepthZeroStop:
    """Between the linear and the quadratic pool the search asks whether
    some level N has H_n(x; N) = (0 :_N m) != 0.  Then m is associated to
    N, no form is regular on N, and the search stops as exhaustive."""

    @staticmethod
    def _modules(depth_repro):
        rng = random.Random("depth-zero-stop")
        out = []
        for ring_text in ("F_2[x,y,z]", "F_3[x,y]"):
            ring = parse_ring(ring_text)
            for _ in range(16):
                I = random_graded_cyclic_ideal(ring, rng, max_deg=4)
                if not I.is_unit:
                    out.append(ModulePresentation.cyclic(ring, I.gens))
        # depth 1, but every linear form over F_3 divides x^3*y - x*y^3:
        # the stop must not fire before the quadratic pool finds x^2 + y^2
        R3 = parse_ring("F_3[x,y]")
        out.append(ModulePresentation.cyclic(R3, [R3.poly("x^3*y - x*y^3")]))
        R = parse_ring("F_2[x,y,z]")
        out.append(ModulePresentation.cyclic(
            R, list(Ideal.parse(R, depth_repro).gens) + [R.poly("z")]))
        Q = parse_ring("F_2[x,y,z]/(x*y, y*z)")
        out.append(ModulePresentation(Q, 2, [(Q.poly("x"), Q.poly("y")),
                                             (Q.poly("y"), Q.poly("x"))]))
        return out

    def test_no_pool_form_is_regular_where_the_stop_fires(self, depth_repro,
                                                         monkeypatch):
        fired = []
        original = depth_mod.koszul_homology_nonzero

        def spy(xs, M, i, budget=None):
            answer = original(xs, M, i, budget)
            if answer and i > 0:  # i = 0 is the M_m = 0 check of ungraded M
                fired.append(M)
            return answer

        monkeypatch.setattr(depth_mod, "koszul_homology_nonzero", spy)
        modules = self._modules(depth_repro)
        assert len(modules) >= 30
        stops = []
        for M in modules:
            fired.clear()
            rep = cdepth_lower_bound(M, e_max=1)
            assert len(fired) <= 1
            for N in fired:
                # the pool exhaustion the stop skips, form by form
                assert rep.exhaustive
                free, cols = N.ring, list(N.columns)
                graded = depth_mod._hilbert_data(cols, N.rank, free, None)
                for forms, _ in (linear_candidates(free),
                                 quadratic_candidates(free)):
                    for f in forms:
                        assert not is_regular_element(
                            f, cols, N.rank, free, graded=graded), (M, N, f)
            stops.append(bool(fired))
        # the repro modulo z and the quotient-ring module stop this way
        assert sum(stops) >= 10 and stops[-2:] == [True, True]


class TestFrobeniusFunctor:
    def test_entrywise_brackets(self, R2xyz):
        M = ModulePresentation.cyclic(R2xyz, [R2xyz.poly("x*y"), R2xyz.poly("x*z")])
        F = frobenius_functor(M, 1)
        assert F.cyclic_ideal().equal(Ideal(R2xyz, ["x^2*y^2", "x^2*z^2"]))

    def test_free_stays_free(self, R2xy):
        F = frobenius_functor(ModulePresentation.free(R2xy), 2)
        assert not F.columns

    def test_quotient_relations_not_bracketed(self, cusp2):
        M = ModulePresentation.cyclic(cusp2, [cusp2.free().poly("z")])
        F = frobenius_functor(M, 1)
        want = Ideal(cusp2, ["z^2"])  # lift adds the untouched quotient
        assert F.cyclic_ideal().equal(want)


class TestSdepth:
    def test_two_planes(self, two_planes):
        rep = sdepth(two_planes, e_max=3, window=2)
        assert [d for _, d in rep.per_e_depth] == [1, 1, 1, 1]
        assert rep.stabilized_value == 1

    def test_free_constant(self, R2xy):
        rep = sdepth(ModulePresentation.free(R2xy), e_max=2)
        assert rep.stabilized_value == 2

    def test_residue_field_constant_zero(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("y")])
        assert sdepth(M, e_max=2).stabilized_value == 0

    def test_monotone_on_fpure_quotient(self):
        Q = parse_ring("F_2[x,y]/(x*y)")
        M = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
        rep = sdepth(M, e_max=3)
        assert rep.f_pure and rep.monotone

    @pytest.mark.parametrize("p", [2, 3])
    def test_strict_drop_below_depth(self, p):
        # R/(x) over R = F_p[x,y]/(x*y) starts at depth 1, but already
        # F(R/(x)) = R/(x^p) has the class of x killed by the whole maximal
        # ideal, so the stabilizing depth is strictly smaller than the depth
        Q = parse_ring(f"F_{p}[x,y]/(x*y)")
        M = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
        assert depth_at_origin(M) == 1
        rep = sdepth(M, e_max=3, window=2)
        assert [d for _, d in rep.per_e_depth] == [1, 0, 0, 0]
        assert rep.stabilized_value == 0
        assert rep.monotone


class TestRegularSequences:
    def test_diagonal_regular_at_all_levels(self, two_planes, R2xyz):
        flags = regular_sequence_check([R2xyz.poly("x + y + z")], two_planes,
                                       range(4))
        assert flags == [True, True, True, True]

    def test_zero_divisor_pattern(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x*y")])
        flags = regular_sequence_check([R2xy.poly("x")], M, range(3))
        assert flags == [False, False, False]

    def test_empty_sequence_vacuous(self, two_planes):
        assert regular_sequence_check([], two_planes, range(2)) == [True, True]

    def test_empty_sequence_needs_a_module_nonzero_at_the_origin(self, R2xy):
        # S/(1) = 0 and S/(x + 1), which vanishes at the origin only
        for gens in ("1", "x + 1"):
            M = ModulePresentation.cyclic(R2xy, [R2xy.poly(gens)])
            assert regular_sequence_check([], M, range(2)) == [False, False]

    def test_nonzero_at_origin_is_koszul_h0(self):
        # the one M_m != 0 test (the values at the origin do not span
        # F_p^rank) agrees with H_0(x; M) = M/mM != 0 from the Koszul walk,
        # on matrices whose entries often carry a constant term
        rng = random.Random("nonzero-at-origin")
        answers = []
        for ring_text in ("F_2[x,y,z]", "F_3[x,y]", "F_2[x,y,z]/(x*y, y*z)"):
            ring = parse_ring(ring_text)
            free = ring.free()
            for _ in range(12):
                rank = rng.randrange(1, 4)
                cols = [tuple(random_poly(free, rng, max_deg=2)
                              if rng.random() < 0.6 else free.zero()
                              for _ in range(rank))
                        for _ in range(rng.randrange(1, rank + 2))]
                M = ModulePresentation(ring, rank, cols)
                got = depth_mod._nonzero_at_origin(M.lifted_columns(), rank,
                                                   free)
                assert got == koszul_homology_nonzero(free.gens(), M, 0), M
                answers.append(got)
        assert True in answers and False in answers

    def test_purity_monotone(self, R2xy):
        # regular at level e+1 implies regular at level e (pure submodule)
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x^2")])
        flags = regular_sequence_check([R2xy.poly("y")], M, range(3))
        for e in range(len(flags) - 1):
            assert not (flags[e + 1] and not flags[e])


class TestComparisonChain:
    def test_two_planes_cdepth(self, two_planes):
        rep = cdepth_lower_bound(two_planes, e_max=3)
        assert rep.bound == 1 and rep.exhaustive

    def test_free_cdepth(self, R2xy):
        assert cdepth_lower_bound(ModulePresentation.free(R2xy), e_max=2).bound == 2

    def test_residue_field_cdepth(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("y")])
        assert cdepth_lower_bound(M, e_max=2).bound == 0

    def test_negative_e_max_rejected(self, R2xy):
        # no levels at all would accept every form, so the search never ends
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x*y")])
        with pytest.raises(ValueError):
            cdepth_lower_bound(M, e_max=-1)

    def test_kdepth_profile_two_planes(self, two_planes):
        rep = kdepth_truncation_profile(two_planes, e_max=3)
        for prof in rep.profiles:
            assert prof.nonzero_homology == frozenset({0, 1, 2})
        assert rep.stable and rep.stable_kgrade == 1

    def test_kdepth_profile_free(self, R2xy):
        rep = kdepth_truncation_profile(ModulePresentation.free(R2xy), e_max=2)
        for prof in rep.profiles:
            assert prof.nonzero_homology == frozenset({0})
            assert prof.kgrade == 2

    def test_kdepth_profile_residue_field(self, R2xyz):
        M = ModulePresentation.cyclic(R2xyz, [R2xyz.poly(v) for v in "xyz"])
        rep = kdepth_truncation_profile(M, e_max=2)
        for prof in rep.profiles:
            assert prof.nonzero_homology == frozenset({0, 1, 2, 3})
            assert prof.kgrade == 0

    def test_chain_inequality_random(self, R2xyz):
        rng = random.Random("chain")
        for _ in range(5):
            gens = [R2xyz.monomial(tuple(rng.randrange(3) for _ in range(3)))
                    for _ in range(2)]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            M = ModulePresentation.cyclic(R2xyz, gens)
            sd = sdepth(M, e_max=3, cross_check=False)
            cd = cdepth_lower_bound(M, e_max=3)
            kd = kdepth_truncation_profile(M, e_max=3)
            assert cd.bound <= sd.stabilized_value
            assert kd.stable_kgrade == sd.stabilized_value

    def test_one_window_rule(self, two_planes):
        # over a quotient ring one level is short of the window: neither
        # report settles; over S the theorem settles level 0 alone
        Q = parse_ring("F_2[x,y]/(x*y)")
        M = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
        sd = sdepth(M, e_max=0)
        kd = kdepth_truncation_profile(M, e_max=0)
        assert sd.window == depth_mod.WINDOW
        assert sd.stabilized_value is None
        assert not kd.stable and kd.stable_kgrade is None
        assert sd.stabilization == kd.stabilization == "window"
        sd = sdepth(two_planes, e_max=0)
        kd = kdepth_truncation_profile(two_planes, e_max=0)
        assert (sd.stabilized_value, kd.stable, kd.stable_kgrade) == (1, True, 1)
        assert sd.stabilization == kd.stabilization == "theorem"

    def test_bracket_power_sequence_same_top(self, R2xy):
        M = frobenius_functor(
            ModulePresentation.cyclic(R2xy, [R2xy.poly("x*y")]), 1)
        xs = list(R2xy.gens())
        xq = [x.frobenius(1) for x in xs]
        a = kgrade(xs, M)
        b = kgrade(xq, M)
        assert max(a.nonzero_homology) == max(b.nonzero_homology)


# the perfbench sdepth shapes, fixed here
SDEPTH_SHAPES = (
    ("F_2[x,y,z]", "x*y, x*z"), ("F_2[x,y,z]", "x^2, y*z"),
    ("F_2[x,y,z]", "x*y*z"), ("F_2[x,y,z]", "x^2*y, y*z^2"),
    ("F_3[x,y]", "x^2, x*y"), ("F_3[x,y]", "x*y^2"),
    ("F_3[x,y]", "x^3, y^2"), ("F_3[x,y]", "x*y"),
)


def free_ring_modules():
    """Seeded modules over free rings: the sdepth shapes, random graded
    cyclic modules over F_2[x,y,z] and F_3[x,y], a rank-2 presentation and
    two ungraded cyclic modules."""
    out = []
    for ring_text, gens in SDEPTH_SHAPES:
        R = parse_ring(ring_text)
        out.append(ModulePresentation.cyclic(R, list(
            R.poly(g) for g in gens.split(", "))))
    rng = random.Random("free-ring-levels")
    for ring_text in ("F_2[x,y,z]", "F_3[x,y]"):
        R = parse_ring(ring_text)
        while sum(M.ring is R for M in out) < 6:
            I = random_graded_cyclic_ideal(R, rng, max_deg=3)
            if not I.is_unit:
                out.append(ModulePresentation.cyclic(R, I.gens))
    R = parse_ring("F_3[x,y,z]")
    out.append(ModulePresentation(R, 2, [(R.poly("x"), R.zero()),
                                         (R.poly("y"), R.poly("z")),
                                         (R.zero(), R.poly("x"))]))
    R = parse_ring("F_2[x,y,z]")
    out += [ModulePresentation.cyclic(R, [R.poly(g) for g in gens])
            for gens in (("x*y + z^3", "x*z"), ("x + y*z", "y^2 + x*z"))]
    return out


class TestFreeRingLevels:
    """Over S = F_p[x] sdepth, the Koszul profiles and the greedy search
    compute level 0 and confirm the rest by K(F^e M)(t) = K(M)(t^q); the
    per-level computation stays the reference here."""

    @staticmethod
    def _per_level(monkeypatch, call, M, e_max):
        """(answer, budget) of `call` with every level computed."""
        budget = Budget()
        with monkeypatch.context() as m:
            m.setattr(depth_mod, "_levels_left",
                      lambda M, e_max, budget, graded=None: range(e_max + 1))
            return call(M, e_max=e_max, budget=budget), budget.used

    def test_level_zero_answers_every_level(self, monkeypatch):
        graded = 0
        for M in free_ring_modules():
            free = M.ring.free()
            xs = list(free.gens())
            levels = [frobenius_functor(M, e) for e in range(4)]
            depths = [depth_at_origin(F) for F in levels]
            profiles = [kgrade(xs, F) for F in levels]
            graded += row_degrees(M.lifted_columns(), M.rank) is not None
            for e_max in range(4):
                for call in (sdepth, kdepth_truncation_profile,
                             cdepth_lower_bound):
                    budget = Budget()
                    rep = call(M, e_max=e_max, budget=budget)
                    slow, slow_used = self._per_level(monkeypatch, call, M,
                                                      e_max)
                    assert budget.used <= slow_used, (M, e_max, call)
                    if call is cdepth_lower_bound:
                        assert rep == slow, (M, e_max)
                        assert all(regular_sequence_check(
                            rep.witness, M, range(e_max + 1))), (M, e_max)
                        continue
                    assert rep.stabilization == "theorem"
                    if call is sdepth:
                        assert rep.per_e_depth == list(
                            enumerate(depths[:e_max + 1])), (M, e_max)
                        assert rep.stabilized_value == depths[0]
                    else:
                        assert rep.profiles == profiles[:e_max + 1], M
                        assert rep.stable_kgrade == profiles[0].kgrade
        assert 0 < graded < len(free_ring_modules())

    def test_k_check_catches_a_wrong_level(self, R2xyz, two_planes,
                                           monkeypatch):
        # a level whose K is not K(M)(t^q) is an engine fault
        original = depth_mod.frobenius_functor
        monkeypatch.setattr(depth_mod, "frobenius_functor",
                            lambda M, e: original(M, min(e, 1)))
        for call in (sdepth, kdepth_truncation_profile, cdepth_lower_bound):
            with pytest.raises(InternalInvariantError, match="K\\(F\\^2"):
                call(two_planes, e_max=2)

    def test_search_charges_one_step_per_witness_form(self, monkeypatch):
        # every step of a search is spent by one of its tests, plus one
        # per accepted form, so a round with no levels to test still costs
        budget = Budget()
        spent, inside = [], []

        def spy(original):
            def wrapped(*args, **kwargs):
                before = budget.used
                inside.append(None)
                try:
                    return original(*args, **kwargs)
                finally:
                    inside.pop()
                    if not inside:
                        spent.append(budget.used - before)
            return wrapped

        for name in ("_hilbert_data", "is_regular_element",
                     "koszul_homology_nonzero"):
            monkeypatch.setattr(depth_mod, name,
                                spy(getattr(depth_mod, name)))
        Q = parse_ring("F_2[x,y,z]/(x*y, y*z)")
        witnesses = 0
        for M in free_ring_modules() + [
                ModulePresentation.cyclic(Q, [Q.free().poly("x^2")])]:
            for e_max in (0, 2):
                budget.used = 0
                spent.clear()
                rep = cdepth_lower_bound(M, e_max=e_max, budget=budget)
                assert budget.used == sum(spent) + len(rep.witness), M
                witnesses += len(rep.witness)
        assert witnesses > 0
