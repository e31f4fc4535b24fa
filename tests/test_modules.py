"""Module engine: syzygies, free resolutions, annihilators, exactness."""

import json
import random
from pathlib import Path

import pytest

from charp import (Ideal, ModulePresentation, annihilator, free_resolution,
                   is_graded, parse_ring, syzygy_module)
from charp.modules import (apply_columns, in_module, module_groebner,
                           vec_is_zero)
from charp.ring import mono_divides

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

    def test_quotient_rejected_for_resolutions(self):
        Q = parse_ring("F_2[x,y]/(x*y)")
        M = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
        with pytest.raises(ValueError):
            free_resolution(M)
