"""Simplicial complexes, the two Hilbert routes, and f-vector realization."""

import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st
from test_polytope import assert_facets_match_rows, assert_rows_fit

import ehrhil.srideal as srideal
from ehrhil.complexes import (
    PolytopalComplex,
    RelativeComplex,
    SimplicialComplex,
)
from ehrhil.polytope import LatticePolytope
from ehrhil.srideal import (
    REALIZE_FACE_BUDGET,
    BudgetError,
    RelativeSRIdeal,
    hilbert_by_enumeration,
    hilbert_from_f,
    realize_polynomial,
)

FULL = SimplicialComplex(["abc"])
BOUNDARY = SimplicialComplex(["ab", "bc", "ac"])


class TestAbstractComplex:
    def test_closure_enforced(self):
        assert SimplicialComplex(["ab"]).faces == {
            frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")}
        for face in BOUNDARY.faces:
            assert all(face - {v} in BOUNDARY.faces for v in face)

    def test_nonempty_needs_empty_face(self):
        assert frozenset() in SimplicialComplex(["a"]).faces
        assert SimplicialComplex([()]).faces == {frozenset()}
        assert SimplicialComplex([]).faces == frozenset()

    def test_empty_and_void_differ(self):
        empty = SimplicialComplex([])
        void = SimplicialComplex([()])
        assert empty != void
        assert empty.f_vector() == () and void.f_vector() == ()

    def test_from_maximal(self):
        assert len(FULL.faces) == 8
        assert FULL.f_vector() == (3, 3, 1)
        assert BOUNDARY.f_vector() == (3, 3)
        assert BOUNDARY.ground == ("a", "b", "c")
        assert SimplicialComplex(["cb", "a"]) == SimplicialComplex(["a", "bc"])

    def test_comb_of_triangle(self):
        # the pulled triangulation is the Stanley-Reisner complex itself
        tri = realize_polynomial((0, 0, 1)).pulled_pair()[0]
        assert tri.ground == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
        assert frozenset() in tri.faces
        assert tri.f_vector() == (3, 3, 1)


class TestHilbertFromF:
    def test_constant(self):
        assert all(hilbert_from_f((1,), k) == 1 for k in range(1, 6))

    def test_closed_triangle(self):
        for k in range(1, 7):
            assert hilbert_from_f((3, 3, 1), k) == math.comb(k + 2, 2)

    def test_chromatic_k3_vector(self):
        assert hilbert_from_f((0, 0, 6, 6), 3) == 6
        assert hilbert_from_f((0, 0, 6, 6), 4) == 24

    def test_k0_is_alternating_sum(self):
        assert hilbert_from_f((0, 0, 6, 6), 0) == 0
        assert hilbert_from_f((3, 3, 1), 0) == 1
        assert hilbert_from_f((), 0) == 0

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            hilbert_from_f((-1, 1), 2)
        with pytest.raises(ValueError):
            hilbert_from_f((0.5,), 2)
        with pytest.raises(ValueError):
            hilbert_from_f((1,), -1)

    @pytest.mark.parametrize("f", [(1.0, 2), (True, 2)])
    def test_refuses_inexact_face_counts(self, f):
        with pytest.raises(ValueError, match=re.escape(
                f"face counts must be non-negative integers, got {f[0]}")):
            hilbert_from_f(f, 3)

    @pytest.mark.parametrize("k", [2.5, True, -1, "2"])
    def test_bad_degree_is_refused(self, k):
        # k = 0 is the Euler characteristic, so only k < 0 is out of range
        with pytest.raises(ValueError, match="dilation factor k"):
            hilbert_from_f((1, 3, 3), k)


class TestHilbertByEnumeration:
    def test_single_vertex(self):
        ideal = RelativeSRIdeal(SimplicialComplex(["a"]),
                                SimplicialComplex([()]))
        assert hilbert_by_enumeration(ideal, 5) == 1

    def test_open_edge(self):
        edge = SimplicialComplex(["ab"])
        ends = SimplicialComplex(["a", "b"])
        ideal = RelativeSRIdeal(edge, ends)
        assert hilbert_by_enumeration(ideal, 3) == 2
        assert [hilbert_by_enumeration(ideal, k) for k in range(5)] == \
            [0, 0, 1, 2, 3]

    def test_sub_equal_complex(self):
        ideal = RelativeSRIdeal(FULL, FULL)
        assert all(hilbert_by_enumeration(ideal, k) == 0 for k in range(1, 5))

    def test_subcomplex_required(self):
        with pytest.raises(ValueError):
            RelativeSRIdeal(BOUNDARY, FULL)

    def test_degree_zero_counts_empty_support(self):
        edge = SimplicialComplex(["ab"])
        ends = SimplicialComplex(["a", "b"])
        assert hilbert_by_enumeration(RelativeSRIdeal(edge, ends), 0) == 0
        nothing_removed = SimplicialComplex([])
        assert hilbert_by_enumeration(
            RelativeSRIdeal(edge, nothing_removed), 0) == 1


class TestFormulaAgainstEnumeration:
    def cases(self):
        square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        cx = PolytopalComplex.generated_by([square])
        half = RelativeComplex(cx, cx.faces_in_hyperplanes(
            [((1, 0), 0), ((0, 1), 0)]))
        open_sq = RelativeComplex(cx, cx.faces_in_hyperplanes(
            [((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1)]))
        return [half, open_sq, realize_polynomial((1, 2, 1))]

    def test_three_routes_agree(self):
        for rel in self.cases():
            delta, gamma = rel.pulled_pair()
            ideal = RelativeSRIdeal(delta, gamma)
            f = rel.pulled_f_vector()
            for k in range(1, 5):
                formula = hilbert_from_f(f, k)
                assert formula == hilbert_by_enumeration(ideal, k)
                assert formula == rel.count_points(k)


class TestRealizePolynomial:
    def test_open_segment(self):
        rel = realize_polynomial((0, 1))
        assert [rel.count_points(k) for k in (1, 2, 3, 4)] == [0, 1, 2, 3]

    def test_chromatic_k3_realization(self):
        rel = realize_polynomial((0, 0, 6, 6))
        assert rel.count_points(4) == 24

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError, match="not realizable"):
            realize_polynomial((-1, 1))
        with pytest.raises(ValueError, match="not realizable"):
            realize_polynomial((1.5,))

    def test_refuses_inexact_coefficients(self):
        with pytest.raises(ValueError, match=re.escape(
                "not realizable: True is not a non-negative integer")):
            realize_polynomial((True, 1.0))
        with pytest.raises(ValueError, match=re.escape(
                "not realizable: 1.0 is not a non-negative integer")):
            realize_polynomial((1, 1.0))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=7))
    @example((1,))
    @example((0, 0, 0, 0, 0, 0, 1))
    def test_cells_equal_the_scanned_simplices(self, f):
        # each i-simplex, below full dimension but for the largest i, has
        # the facets of its rows x_a >= 0 for 0 < a <= i and the sum of
        # those x_a at most 1
        cells = realize_polynomial(f).complex.maximal_cells
        assert sorted(len(c.vertices) - 1 for c in cells) \
            == [i for i, c in enumerate(f) for _ in range(c)]
        for cell in cells:
            n, i = cell.ambient_dim, cell.dim
            rows = [(tuple(-(b == a) for b in range(n)), 0)
                    for a in range(1, i + 1)]
            rows.append((tuple(int(0 < b <= i) for b in range(n)), 1))
            assert_facets_match_rows(cell, rows)
            assert_rows_fit(cell)

    def test_budget_admits_k6_chromatic(self, monkeypatch):
        # K6's chromatic vector has 720 * 63 + 720 * 127 = 136,800 faces;
        # the build starts, and is stopped at its first simplex
        class Started(Exception):
            pass

        def start(vertices):
            raise Started

        monkeypatch.setattr(srideal, "LatticePolytope", start)
        with pytest.raises(Started):
            realize_polynomial((0, 0, 0, 0, 0, 720, 720))
        with pytest.raises(Started):
            realize_polynomial((REALIZE_FACE_BUDGET,))

    def test_budget_refuses_before_building(self, monkeypatch):
        def start(vertices):
            raise AssertionError("built a simplex")

        monkeypatch.setattr(srideal, "LatticePolytope", start)
        with pytest.raises(BudgetError,
                           match=f"1000000 faces.* {REALIZE_FACE_BUDGET}"):
            realize_polynomial((1000000,))
        with pytest.raises(BudgetError):
            realize_polynomial((REALIZE_FACE_BUDGET + 1,))
        with pytest.raises(BudgetError):
            realize_polynomial((0,) * 40 + (1,))

    def test_zero_vector(self):
        rel = realize_polynomial(())
        assert rel.count_points(3) == 0
        assert rel.pulled_f_vector() == ()

    def test_points_only(self):
        rel = realize_polynomial((3,))
        assert all(rel.count_points(k) == 3 for k in (1, 2, 5))

    def test_cells_are_disjoint_and_valid(self):
        rel = realize_polynomial((1, 1, 2))
        rel.complex.validate()
        assert len(rel.complex.maximal_cells) == 4

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=4).filter(
        lambda f: sum(f) <= 8))
    def test_round_trip(self, f):
        rel = realize_polynomial(f)
        expect = tuple(f)
        while expect and expect[-1] == 0:
            expect = expect[:-1]
        assert rel.pulled_f_vector() == expect
        for k in (1, 2, 3):
            assert rel.count_points(k) == hilbert_from_f(expect, k)
