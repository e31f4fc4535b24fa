"""Module engine: syzygies, free resolutions, annihilators, exactness."""

import json
import random
from pathlib import Path

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp import (Budget, BudgetExceeded, Ideal, ModulePresentation,
                   annihilator, free_resolution, is_graded, parse_ring,
                   syzygy_module)
from charp.depth import _kron, koszul_differential
from charp.modules import (apply_columns, diagonal_columns, hilbert_dimension,
                           in_module, kpolynomial, module_colon,
                           module_groebner, monomial_kpolynomial, row_degrees,
                           vec_is_zero)
from charp.ring import mono_deg, mono_divides
from charp.verify import (random_form, random_graded_module,
                          resolution_kpolynomial)

# Reduced bases and syzygies of seeded random inputs, as computed by the
# earlier module engine that kept its own Buchberger loop.
FIXTURE = Path(__file__).parent / "data" / "module_bases.json"


def _cols(ring, rows):
    """Columns from a row-major matrix of strings."""
    entries = [[ring.poly(s) for s in row] for row in rows]
    return [tuple(entries[i][j] for i in range(len(entries)))
            for j in range(len(entries[0]))]


class TestSyzygies:
    def test_koszul_pair(self, R2xy):
        syz = syzygy_module([(R2xy.poly("x"),), (R2xy.poly("y"),)], 1, R2xy)
        assert len(syz) == 1
        assert tuple(str(e) for e in syz[0]) == ("y", "x")

    def test_unit_entry_kills_syzygies_of_rank(self, R2xy):
        assert syzygy_module([(R2xy.one(),)], 1, R2xy) == ()

    def test_repeated_column(self, R2xy):
        syz = syzygy_module([(R2xy.poly("x"),), (R2xy.poly("x"),)], 1, R2xy)
        assert any(all(str(e) == "1" for e in s) for s in syz)

    def test_matrix_annihilates_syzygies(self, R2xyz):
        rng = random.Random("syzid")
        for _ in range(8):
            cols = []
            for _ in range(3):
                col = tuple(R2xyz.monomial(tuple(rng.randrange(2) for _ in range(3)))
                            if rng.random() < 0.8 else R2xyz.zero()
                            for _ in range(2))
                if not vec_is_zero(col):
                    cols.append(col)
            if not cols:
                continue
            for s in syzygy_module(cols, 2, R2xyz):
                assert vec_is_zero(apply_columns(cols, s, R2xyz, 2))


def _random_poly(ring, rng):
    f = ring.zero()
    for _ in range(rng.randrange(4)):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(3)):
            exps[rng.randrange(ring.nvars)] += 1
        f = f + ring.monomial(exps, rng.randrange(1, ring.p))
    return f


def _leading_term(vec):
    """(position, monomial) of the leading term under position over term."""
    for i, entry in enumerate(vec):
        if entry:
            return i, entry.lm()
    return None


class TestModuleEngine:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_inputs(self, p):
        ring = parse_ring(f"F_{p}[x,y,z]")
        rng = random.Random(f"engine{p}")
        for rank in (1, 2, 3):
            for _ in range(4):
                cols = [tuple(_random_poly(ring, rng) for _ in range(rank))
                        for _ in range(rng.randrange(2, 5))]
                for s in syzygy_module(cols, rank, ring):
                    assert vec_is_zero(apply_columns(cols, s, ring, rank))
                gb = module_groebner(cols, rank, ring)
                for col in cols:
                    assert in_module(col, gb, rank, ring)
                leads = [_leading_term(g) for g in gb]
                for k, g in enumerate(gb):
                    pos, lm = leads[k]
                    assert g[pos].lc() == 1
                    for other, (opos, olm) in enumerate(leads):
                        if other == k:
                            continue
                        assert not any(mono_divides(olm, m)
                                       for m, _ in g[opos].terms)

    def test_matches_captured_bases(self):
        for case in json.loads(FIXTURE.read_text()):
            ring = parse_ring(case["ring"])
            cols = [tuple(ring.poly(e) for e in col)
                    for col in case["columns"]]
            rank = case["rank"]
            gb = module_groebner(cols, rank, ring)
            assert [[str(e) for e in v] for v in gb] == case["basis"]
            syz = syzygy_module(cols, rank, ring)
            assert [[str(e) for e in v] for v in syz] == case["syzygies"]


def _colon_by_tagging_every_column(maps, cols, rank, ring):
    """The independent route: tag every column of [maps | cols], take the
    syzygy module in S^(rank + #maps + #cols) and keep the nonzero heads,
    the first len(maps) entries."""
    both = list(maps) + list(cols)
    zero, one = ring.zero(), ring.one()
    stacked = [tuple(col) + tuple(one if t == j else zero
                                  for t in range(len(both)))
               for j, col in enumerate(both)]
    heads = [v[rank:rank + len(maps)]
             for v in module_groebner(stacked, rank + len(both), ring)
             if vec_is_zero(v[:rank])]
    return [w for w in heads if not vec_is_zero(w)]


class TestModuleColon:
    def _agree(self, maps, cols, rank, ring):
        colon = module_colon(maps, cols, rank, ring)
        m = len(maps)
        assert module_groebner(colon, m, ring) == module_groebner(
            _colon_by_tagging_every_column(maps, cols, rank, ring), m, ring)
        # and each generator is in the colon by definition
        span = module_groebner(cols, rank, ring)
        for w in colon:
            assert in_module(apply_columns(maps, w, ring, rank), span, rank,
                             ring)
        return colon

    def test_random_graded_modules(self):
        rng = random.Random("colon-oracle")
        rings = [parse_ring(t) for t in ("F_2[x,y,z]", "F_3[x,y]",
                                         "F_5[x,y]")]
        for i in range(24):
            ring = rings[i % len(rings)]
            M = random_graded_module(ring, rng)
            f = random_form(ring, rng, rng.randrange(1, 3))
            maps = diagonal_columns(f, M.rank, ring)
            if rng.random() < 0.5:
                maps = maps + [tuple(random_form(ring, rng, 1)
                                     for _ in range(M.rank))]
            self._agree(maps, M.columns, M.rank, ring)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_koszul_blocks(self, i):
        # the Koszul kernels of depth.koszul_homology_nonzero on R/J
        ring = parse_ring("F_2[x,y,z]")
        xs = list(ring.gens())
        rel = [(ring.poly("x*y"),), (ring.poly("x*z"),), (ring.poly("y^2"),)]
        low = comb(3, i - 1)
        di = koszul_differential(xs, i, ring)
        self._agree(di, _kron(diagonal_columns(1, low, ring), rel, ring),
                    low, ring)

    def test_no_relation_columns_is_the_syzygy_module(self, R2xyz):
        maps = [(R2xyz.poly(v),) for v in "xyz"]
        colon = self._agree(maps, (), 1, R2xyz)
        assert module_groebner(colon, 3, R2xyz) == module_groebner(
            syzygy_module(maps, 1, R2xyz), 3, R2xyz)
        assert len(colon) == 3

    def test_no_maps(self, R2xy):
        assert module_colon((), [(R2xy.poly("x"),)], 1, R2xy) == ()
        assert syzygy_module((), 1, R2xy) == ()

    def test_quotient_ring_columns(self):
        Q = parse_ring("F_3[x,y]/(x*y, y^3)")
        free = Q.free()
        M = ModulePresentation(Q, 2, [(free.poly("x^2"), free.poly("y"))])
        units = diagonal_columns(free.one(), 2, free)
        for unit in units:
            self._agree([unit], M.lifted_columns(), 2, free)

    def test_wrong_column_length(self, R2xy):
        x = R2xy.poly("x")
        with pytest.raises(ValueError, match="column length"):
            module_colon([(x, x)], [(x,)], 1, R2xy)
        with pytest.raises(ValueError, match="column length"):
            module_colon([(x,)], [(x, x)], 1, R2xy)


class TestFreeResolution:
    def test_two_planes_pd(self, R2xyz):
        M = ModulePresentation.cyclic(R2xyz, [R2xyz.poly("x*y"), R2xyz.poly("x*z")])
        cx, pd = free_resolution(M)
        assert pd == 2
        assert cx.composes_to_zero()

    def test_free_module(self, R2xyz):
        assert free_resolution(ModulePresentation.free(R2xyz))[1] == 0

    def test_residue_field(self, R2xyz):
        M = ModulePresentation.cyclic(R2xyz, [R2xyz.poly(v) for v in "xyz"])
        assert free_resolution(M)[1] == 3

    def test_redundant_relations_pruned(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x"), R2xy.poly("x")])
        cx, pd = free_resolution(M)
        assert pd == 1
        assert len(cx.diffs[0]) == 1

    def test_unit_relation_prunes_generator(self, R2xy):
        # coker[[1],[0]] is free of rank one
        M = ModulePresentation(R2xy, 2, [(R2xy.one(), R2xy.zero())])
        cx, pd = free_resolution(M)
        assert pd == 0 and cx.rank0 == 1

    def test_exactness_on_monomial_samples(self, R2xyz):
        rng = random.Random("exact")
        for _ in range(6):
            gens = [R2xyz.monomial(tuple(rng.randrange(3) for _ in range(3)))
                    for _ in range(rng.randrange(1, 4))]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            M = ModulePresentation.cyclic(R2xyz, gens)
            cx, pd = free_resolution(M, cap=3)
            assert cx.composes_to_zero()
            for i in range(1, cx.length):
                lower, upper = cx.diffs[i - 1], cx.diffs[i]
                rank = cx.rank(i)
                kernel = syzygy_module(lower, cx.rank(i - 1), R2xyz)
                span_up = module_groebner(upper, rank, R2xyz)
                for k in kernel:
                    assert in_module(k, span_up, rank, R2xyz)
                span_ker = module_groebner(kernel, rank, R2xyz)
                for u in upper:
                    assert in_module(u, span_ker, rank, R2xyz)


class TestAnnihilator:
    def test_cyclic(self, R2xy):
        M = ModulePresentation.cyclic(R2xy, [R2xy.poly("x^2")])
        assert annihilator(M).equal(Ideal(R2xy, ["x^2"]))

    def test_free(self, R2xy):
        assert annihilator(ModulePresentation.free(R2xy)).is_zero

    def test_diagonal(self, R2xy):
        M = ModulePresentation(R2xy, 2, _cols(R2xy, [["x", "0"], ["0", "x^2"]]))
        assert annihilator(M).equal(Ideal(R2xy, ["x^2"]))

    def test_cyclic_consistency_random(self, R2xy):
        rng = random.Random("ann")
        for _ in range(8):
            gens = [R2xy.monomial((rng.randrange(3), rng.randrange(3)))
                    for _ in range(2)]
            gens = [g for g in gens if not g.is_constant]
            if not gens:
                continue
            I = Ideal(R2xy, gens)
            assert annihilator(ModulePresentation.cyclic(R2xy, I.gens)).equal(I)


class TestGrading:
    def test_homogeneous_cyclic(self, R2xy):
        assert is_graded(ModulePresentation.cyclic(R2xy, [R2xy.poly("x*y")]))

    def test_inhomogeneous(self, R2xy):
        assert not is_graded(ModulePresentation.cyclic(R2xy, [R2xy.poly("x + x*y")]))

    def test_shifted_rows_still_graded(self, R2xy):
        # column (x, 1): consistent with row degrees differing by one
        M = ModulePresentation(R2xy, 2, [(R2xy.poly("x"), R2xy.one())])
        assert is_graded(M)

    def test_rows_unreached_from_row_zero(self, R2xyz):
        # row 0 is empty; rows 1 and 2 need degrees d and d - 1 in the
        # first column but d and d - 2 in the second
        M = ModulePresentation(R2xyz, 3, _cols(R2xyz, [["0", "0"],
                                                      ["x", "x"],
                                                      ["y", "y^2"]]))
        assert not is_graded(M)

    def test_row_degrees_are_returned(self, R2xy):
        M = ModulePresentation(R2xy, 2, [(R2xy.poly("x"), R2xy.one())])
        assert row_degrees(M.columns, 2) == [0, 1]
        assert row_degrees([(R2xy.poly("x + x*y"),)], 1) is None
        # rows no column reaches each start a component at degree 0
        assert row_degrees([], 3) == [0, 0, 0]

    def test_quotient_rejected_for_resolutions(self):
        Q = parse_ring("F_2[x,y]/(x*y)")
        M = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
        with pytest.raises(ValueError):
            free_resolution(M)


# ---------------------------------------------------------------------------
# Hilbert series


def _series(k, n, top):
    """The first top + 1 coefficients of k(t) / (1 - t)^n (k a polynomial
    with exponents >= 0)."""
    coeffs = [k.get(d, 0) for d in range(top + 1)]
    for _ in range(n):
        coeffs = list(itertools.accumulate(coeffs))
    return coeffs


class TestHilbertSeries:
    def test_known_values(self, R2xy):
        x, y = R2xy.gens()
        # S/(x, y) = F_2, S/(x*y) has dimension 1, S^2 with rows 0 and 1
        assert kpolynomial([(x,), (y,)], 1, R2xy, [0]) == {0: 1, 1: -2, 2: 1}
        assert kpolynomial([(x * y,)], 1, R2xy, [0]) == {0: 1, 2: -1}
        assert kpolynomial([], 2, R2xy, [0, 1]) == {0: 1, 1: 1}
        assert hilbert_dimension({0: 1, 1: -2, 2: 1}, 2) == 0
        assert hilbert_dimension({0: 1, 2: -1}, 2) == 1
        assert hilbert_dimension({0: 1}, 2) == 2
        assert kpolynomial([(R2xy.one(),)], 1, R2xy, [0]) == {}
        assert hilbert_dimension({}, 2) == -1

    def test_pivot_recursion_counts_standard_monomials(self):
        # each coefficient of K(S/J) / (1 - t)^n is the number of monomials
        # of that degree outside J, counted by brute force
        rng = random.Random("bigatti")
        for n in (2, 3, 4):
            for _ in range(15):
                gens = [tuple(rng.randrange(4) for _ in range(n))
                        for _ in range(rng.randrange(1, 6))]
                gens = [m for m in gens if any(m)]
                k = monomial_kpolynomial(gens, Budget())
                top = 8
                count = [0] * (top + 1)
                for m in itertools.product(range(top + 1), repeat=n):
                    if (mono_deg(m) <= top
                            and not any(mono_divides(g, m) for g in gens)):
                        count[mono_deg(m)] += 1
                assert _series(k, n, top) == count, gens

    def test_pivot_steps_charge_the_budget(self):
        gens = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 0, 1), (0, 3, 1)]
        used = Budget()
        monomial_kpolynomial(gens, used)
        assert used.used > 0
        with pytest.raises(BudgetExceeded):
            monomial_kpolynomial(gens, Budget(used.used - 1))

    def test_kpolynomial_equals_resolution_euler_characteristic(self):
        # an independent route: the alternating sum of the twisted ranks
        # of the minimal free resolution (the n - pd oracle's complex)
        rng = random.Random("kpoly-euler")
        rings = [parse_ring(t) for t in ("F_2[x,y,z]", "F_3[x,y,z]",
                                         "F_5[x,y]")]
        for i in range(30):
            ring = rings[i % len(rings)]
            M = random_graded_module(ring, rng)
            degrees = row_degrees(M.columns, M.rank)
            assert degrees is not None
            cx, pd = free_resolution(M, cap=ring.nvars)
            assert pd is not None
            assert (resolution_kpolynomial(cx, degrees)
                    == kpolynomial(M.columns, M.rank, ring, degrees)), M


# ---------------------------------------------------------------------------
# properties

HR2 = parse_ring("F_2[x,y,z]")
HR3 = parse_ring("F_3[x,y]")


def _column_strategy(ring, rank):
    mono = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    entry = st.dictionaries(mono, st.integers(1, ring.p - 1),
                            max_size=2).map(ring.from_dict)
    col = st.tuples(*[entry] * rank).filter(lambda c: not vec_is_zero(c))
    return st.lists(col, min_size=1, max_size=3)


@settings(max_examples=15, deadline=None)
@given(st.one_of(_column_strategy(HR2, 2).map(lambda c: (HR2, 2, c)),
                 _column_strategy(HR3, 1).map(lambda c: (HR3, 1, c))))
def test_syzygies_are_killed_by_the_matrix(case):
    ring, rank, cols = case
    for s in syzygy_module(cols, rank, ring):
        assert vec_is_zero(apply_columns(cols, s, ring, rank))


@settings(max_examples=10, deadline=None)
@given(_column_strategy(HR2, 2))
def test_free_resolutions_are_exact(cols):
    M = ModulePresentation(HR2, 2, cols)
    cx, pd = free_resolution(M, cap=3)
    assert pd is not None and cx.composes_to_zero()
    # each kernel lies in the next image, and the last map is injective
    for i in range(1, cx.length + 1):
        lower, rank = cx.diffs[i - 1], cx.rank(i - 1)
        kernel = syzygy_module(lower, rank, HR2)
        if i == cx.length:
            assert all(vec_is_zero(k) for k in kernel)
            continue
        image = module_groebner(cx.diffs[i], cx.rank(i), HR2)
        assert all(in_module(k, image, cx.rank(i), HR2) for k in kernel)
