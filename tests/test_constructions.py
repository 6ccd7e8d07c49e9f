"""Geometric counting complexes against the enumeration oracles."""

import hashlib
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from test_graphs import graphs
from test_polytope import assert_facets_match_rows, assert_rows_fit, fields

from ehrhil import constructions, normal_sr, polytope
from ehrhil.complexes import PolytopalComplex, RelativeComplex
from ehrhil.constructions import (
    KINDS,
    METHODS,
    CellFamily,
    CheckFailure,
    build_family,
    certify,
    degree_bound,
    oracle,
)
from ehrhil.exact import (
    InvariantError, LinearSystem, det, dot, lp_feasible, rational_kernel)
from ehrhil.graphs import (
    Graph,
    complete_graph,
    cycle_basis,
    cycle_graph,
    incidence_matrix,
    path_graph,
)
from ehrhil.srideal import hilbert_from_f

K2 = complete_graph(2)
C3 = cycle_graph(3)
P3 = path_graph(3)
DIGON = Graph((0, 1), ((0, 1), (0, 1)))
THETA = Graph((0, 1), ((0, 1), (0, 1), (0, 1)))
LOOP = Graph((0,), ((0, 0),))
EDGELESS2 = Graph((0, 1), ())

SMALL = [K2, C3, P3, DIGON, THETA, LOOP, EDGELESS2]


class TestCellInventory:
    def test_chromatic_k2_two_triangles(self):
        rel = build_family("chromatic", K2).relative
        cells = rel.complex.maximal_cells
        assert len(cells) == 2
        assert all(len(c.vertices) == 3 for c in cells)

    def test_chromatic_loop_empty(self):
        rel = build_family("chromatic", LOOP).relative
        assert rel.complex.is_empty
        assert rel.count_points(5) == 0

    def test_chromatic_digon_same_as_k2(self):
        rel = build_family("chromatic", DIGON).relative
        assert len(rel.complex.maximal_cells) == 2

    def test_flow_c3_two_segments(self):
        fam = build_family("flow", C3)
        assert fam.labels == ((-1, -1, -1), (0, 0, 0))
        assert all(c.dim == 1 for c in fam.relative.complex.maximal_cells)

    def test_flow_digon_two_cells(self):
        rel = build_family("flow", DIGON).relative
        assert len(rel.complex.maximal_cells) == 2

    def test_flow_tree_empty(self):
        assert build_family("flow", P3).relative.complex.is_empty

    def test_mod_flow_loop_full_segment(self):
        rel = build_family("modflow", LOOP).relative
        assert len(rel.complex.maximal_cells) == 1
        assert [rel.count_points(k) for k in (2, 3, 4)] == [1, 2, 3]

    def test_edgeless_point_cell(self):
        for kind in ("flow", "modflow", "tension", "modtension"):
            rel = build_family(kind, EDGELESS2).relative
            assert len(rel.complex.maximal_cells) == 1
            assert rel.complex.dim == 0
            assert all(rel.count_points(k) == 1 for k in (1, 2, 3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_family("spanning-trees", K2)

    def test_candidate_budget_stops_before_any_lp(self, monkeypatch):
        # K8 chromatic has 2^28 sign vectors, each one walk of its box
        def no_walk(*args):
            raise AssertionError("a candidate was walked before the budget "
                                 "check")

        monkeypatch.setattr(constructions, "_walk", no_walk)
        with pytest.raises(ValueError,
                           match=r"chromatic: 268435456 candidate cells "
                                 r"exceed the budget of 65536"):
            build_family("chromatic", complete_graph(8))


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", KINDS)
    def test_small_graphs(self, kind):
        for g in SMALL:
            rel = build_family(kind, g).relative
            for k in range(1, 5):
                assert rel.count_points(k) == oracle(kind, g, k), (kind, g, k)

    def test_k4_spot_checks(self):
        g = complete_graph(4)
        assert build_family("modflow", g).relative.count_points(4) == 6
        assert build_family("chromatic", g).relative.count_points(4) == 24
        assert build_family("modtension", g).relative.count_points(3) == \
            oracle("modtension", g, 3)


class TestComplexStructure:
    @pytest.mark.parametrize("kind", KINDS)
    def test_validates(self, kind, suite):
        for g in suite.values():
            build_family(kind, g).relative.complex.validate()

    @pytest.mark.parametrize("kind", KINDS)
    def test_kept_cells_are_distinct_and_maximal(self, kind, suite):
        # generated_by's face-lattice pass is the reference for assembly
        for name, g in suite.items():
            family = build_family(kind, g)
            cx = family.relative.complex
            reference = PolytopalComplex.generated_by(
                cx.maximal_cells, ambient_dim=cx.ambient_dim)
            assert cx.maximal_cells == reference.maximal_cells, name
            assert len(cx.maximal_cells) == len(family.labels), name

    def test_cells_two_level_and_compressed(self):
        for cell in build_family("flow", C3).relative.complex.maximal_cells:
            assert cell.is_two_level()
            assert cell.is_compressed(order_budget=6)
        chromatic = build_family("chromatic", K2).relative
        for cell in chromatic.complex.maximal_cells:
            assert cell.is_two_level()
            assert cell.is_compressed(order_budget=24)

    def test_chromatic_k2_f_vector(self):
        rel = build_family("chromatic", K2).relative
        assert rel.pulled_f_vector() == (0, 2, 2)

    def test_degree_bounds(self):
        assert degree_bound("chromatic", C3) == 3
        assert degree_bound("flow", C3) == 1
        assert degree_bound("modflow", THETA) == 2
        assert degree_bound("tension", P3) == 2
        assert degree_bound("modtension", LOOP) == 0


class TestLPCounts:
    def test_suite_builds_make_the_pinned_lp_calls(self, suite, monkeypatch):
        # one walk per candidate and no LP: the unimodularity certificate
        # makes the filter, certify and vertex LPs of the reference
        # (lp_family, from_inequalities) unnecessary; the slices' left
        # kernel leaves 204 of the 602 slices to walk (996 candidates
        # before that filter)
        calls = Counter()

        def counting(module, name, tag):
            fn = getattr(module, name)

            def counted(*args):
                calls[tag] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        counting(constructions, "_walk", "walk")
        counting(constructions, "_certify_unimodular", "certificate")
        counting(constructions, "lp_feasible", "filter")
        counting(polytope, "lp_feasible", "vertex")
        counting(polytope, "lp_maximize", "certify")
        build_family.cache_clear()
        try:
            cells = sum(len(build_family(kind, g).relative.complex
                            .maximal_cells)
                        for g in suite.values() for kind in KINDS)
        finally:
            build_family.cache_clear()
        assert dict(calls) == {"walk": 598, "certificate": 50}
        assert cells == 216


SLICE_KINDS = ("modflow", "modtension")


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(tuple(range(10)), tuple(outer + inner + [
        (i, i + 5) for i in range(5)]))


def raw_slices(kind, g):
    """(matrix, every right-hand side in the cube's ranges), unfiltered."""
    matrix = constructions._spec(kind)[1](g)
    return matrix, list(itertools.product(*(
        range(sum(x for x in row if x < 0), sum(x for x in row if x > 0) + 1)
        for row in matrix)))


def assert_filter_drops_only_empty_slices(kind, g):
    """The slices the left kernel drops have no open point, by exact LP, so
    lp_family agrees with the walks whether or not it sees them; the
    budget still counts every right-hand side."""
    matrix, raw = raw_slices(kind, g)
    generator, of = constructions._spec(kind)[:2]
    n, count, candidates, _ = generator(g, of(g))
    kept = [b for b, *_ in candidates]
    assert count == len(raw)
    assert len(set(kept)) == len(kept) and set(kept) <= set(raw)
    walls = constructions._walls(n, [(0, 1)] * n)
    for b in set(raw) - set(kept):
        open_part = LinearSystem(n, eq=list(zip(matrix, b)), lt=walls)
        assert lp_feasible(open_part) is None, (kind, g, b)
    if kind == "modflow":
        # the left kernel of an incidence matrix: component indicators
        parts = [[g.vertices.index(v) for v in part]
                 for part in g.components()]
        assert kept == [b for b in raw
                        if all(sum(b[i] for i in p) == 0 for p in parts)]
    else:
        assert kept == raw  # a cycle basis has independent rows


class TestSliceFilter:
    @pytest.mark.parametrize("kind", SLICE_KINDS)
    def test_suite_slices(self, kind, suite):
        for g in {**suite, "C5": cycle_graph(5)}.values():
            assert_filter_drops_only_empty_slices(kind, g)

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_edges=4))
    def test_drawn_multigraphs(self, g):
        for kind in SLICE_KINDS:
            assert_filter_drops_only_empty_slices(kind, g)
            assert_matches_lp_reference(kind, g)

    def test_budget_counts_slices_before_the_filter(self, monkeypatch):
        # 4^10 right-hand sides, counted before the filter: refused
        def no_walk(*args):
            raise AssertionError("a slice was walked before the budget check")

        monkeypatch.setattr(constructions, "_walk", no_walk)
        with pytest.raises(ValueError,
                           match=r"modflow: 1048576 candidate cells "
                                 r"exceed the budget of 65536"):
            build_family("modflow", petersen())


def _cell_fields(cx):
    return [fields(c) for c in cx.maximal_cells]


def assert_matches_lp_reference(kind, g):
    got, want = build_family(kind, g), constructions.lp_family(kind, g)
    assert got.labels == want.labels, (kind, g)
    for part in ("complex", "sub"):
        assert _cell_fields(getattr(got.relative, part)) == _cell_fields(
            getattr(want.relative, part)), (kind, g, part)


class TestLPReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_suite_and_reorientations(self, kind, suite):
        rng = random.Random(0)
        for g in suite.values():
            flips = [i for i in range(len(g.edges)) if rng.random() < .5]
            for h in (g, g.reoriented(flips)):
                assert_matches_lp_reference(kind, h)

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_edges=4))
    def test_drawn_multigraphs(self, g):
        for kind in KINDS:
            assert_matches_lp_reference(kind, g)


class TestSubcomplexFields:
    def test_suite_sub_cells_are_pinned(self, suite):
        # every field of every C' cell on the 50 suite pairs, facet normals
        # included, hashed; pinned when C' was read by a scan of all faces,
        # and again when the cells below full dimension took lifted rays as
        # their normals (72 of 1,720 rows moved, each by a hull equality)
        rows = [(name, kind, [(c.vertices, c.facets,
                               [sorted(t) for t in c._facet_vertex_sets],
                               c.hull_equalities)
                              for c in build_family(kind, suite[name])
                              .relative.sub.maximal_cells])
                for name in sorted(suite) for kind in KINDS]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "a9f84f8fa92bb5841a3920fa02251bec751a98dd8c93f11728bbce32b978390a")


def candidate_rows(kind, g, cell):
    """The box walls and rows of the kept candidate of `kind` on g whose
    closed region holds the cell: the cells close distinct open regions of
    one dimension, so one candidate does."""
    n, candidates, _ = constructions._candidates(kind, g)
    for _, eq, rows, box in candidates:
        strict = constructions._walls(n, box) + rows
        if all(dot(a, v) <= r for a, r in strict for v in cell.vertices) \
                and all(dot(a, v) == r for a, r in eq for v in cell.vertices):
            return strict
    raise AssertionError(f"no candidate holds {cell}")


class TestCellsFromRows:
    """Each kept cell is built from its walked points.  The box walls and
    rows of its candidate are the reference: its facet vertex sets are
    their maximal tight sets, and each facet row is primitive, valid and
    tight on its own set.  So are the cells of C', read off C, and the
    homogenized lifts, against the lifted rows."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_cells_equal_the_scan(self, kind, suite):
        for name, g in {**suite, "C5": cycle_graph(5)}.items():
            rel = build_family(kind, g).relative
            lift = normal_sr.homogenize(rel)
            rows = [candidate_rows(kind, g, c)
                    for c in rel.complex.maximal_cells]
            lifted = [[((*a, 0), r) for a, r in rs] for rs in rows]
            for cx, sub, rows_of in ((rel.complex, rel.sub, rows),
                                     (lift.complex, lift.sub, lifted)):
                pairs = list(zip(cx.maximal_cells, rows_of))
                # a face's facets are its maximal meets with the facets of
                # a cell holding it
                pairs += [next((face, rs) for cell, rs in pairs
                               if set(face.vertices) <= set(cell.vertices))
                          for face in sub.maximal_cells]
                for cell, rs in pairs:
                    assert_facets_match_rows(cell, rs)
                    assert_rows_fit(cell)


def totally_unimodular(m):
    """Every square minor is 0 or +-1, by exact determinants."""
    rows, cols = len(m), len(m[0]) if m else 0
    for r in range(1, min(rows, cols) + 1):
        for ri in itertools.combinations(range(rows), r):
            for ci in itertools.combinations(range(cols), r):
                if abs(det([[m[i][j] for j in ci] for i in ri])) > 1:
                    return False
    return True


@st.composite
def sign_matrices(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.sampled_from((0, 0, 1, -1))
    return tuple(tuple(draw(entry) for _ in range(cols))
                 for _ in range(rows))


ODD_CYCLE = ((1, 1, 0), (0, 1, 1), (1, 0, 1))  # det 2


class TestUnimodularityCertificate:
    def test_odd_cycle_is_not_totally_unimodular(self):
        assert det([list(row) for row in ODD_CYCLE]) == 2
        assert not totally_unimodular(ODD_CYCLE)

    @settings(max_examples=150, deadline=None)
    @given(sign_matrices())
    def test_network_certificate_implies_unimodular(self, m):
        try:
            constructions._network_certificate(m)
        except InvariantError:
            return
        assert totally_unimodular(m)
        assert totally_unimodular(tuple(zip(*m)))

    @settings(max_examples=150, deadline=None)
    @given(sign_matrices())
    def test_kernel_certificate_implies_unimodular(self, a):
        # rref's kernel basis has an identity block on the free columns
        ncols = len(a[0])
        kernel = [tuple(map(int, row))
                  for row in rational_kernel(a, ncols)
                  if all(x.denominator == 1 for x in row)]
        try:
            constructions._kernel_certificate(kernel, a, ncols)
        except InvariantError:
            return
        assert totally_unimodular(kernel)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_edges=7))
    def test_graph_matrices_pass(self, g):
        for kind in KINDS:
            constructions._certify_unimodular(kind, g)

    def test_odd_cycle_refused_naming_the_column(self):
        with pytest.raises(InvariantError, match=r"column 0 \[1, 0, 1\] is "
                                                 r"not a network column"):
            constructions._network_certificate(ODD_CYCLE)

    def test_odd_cycle_kernel_refused_naming_the_row(self):
        # no matrix rows: the three rows must span all of R^3, and do, but
        # no column of theirs is a unit column
        with pytest.raises(InvariantError, match="row 0 has no identity "
                                                 "column"):
            constructions._kernel_certificate(ODD_CYCLE, (), 3)

    def test_kernel_of_a_matrix_that_is_not_network_refused(self):
        # an identity block spanning the kernel of a, but with the minor
        # [[1, 1], [1, -1]] of determinant -2 in columns 2 and 3
        rows = ((1, 0, 1, 1), (0, 1, 1, -1))
        a = ((-1, -1, 1, 0), (-1, 1, 0, 1))
        assert not totally_unimodular(rows)
        with pytest.raises(InvariantError, match=r"column 0 \[-1, -1\] is "
                                                 r"not a network column"):
            constructions._kernel_certificate(rows, a, 4)

    def test_kernel_certificate_needs_the_whole_kernel(self):
        # one fundamental cycle is orthogonal to the incidence rows and has
        # an identity column, but K3 with a doubled edge has two cycles
        g = Graph((0, 1, 2), ((0, 1), (1, 2), (2, 0), (2, 0)))
        with pytest.raises(InvariantError, match="1 rows, but the kernel "
                                                 "has dimension 2"):
            constructions._kernel_certificate(
                cycle_basis(g)[:1], incidence_matrix(g), 4)

    def test_kernel_rows_must_be_cycles(self):
        with pytest.raises(InvariantError, match="row 0 is not orthogonal "
                                                 "to matrix row 0"):
            constructions._kernel_certificate(((1, 0),), ((1, 1),), 2)


class TestHilbertRoute:
    def test_formula_matches_oracle(self):
        cases = [("chromatic", K2), ("flow", C3), ("modtension", DIGON),
                 ("tension", THETA)]
        for kind, g in cases:
            rel = build_family(kind, g).relative
            f = rel.pulled_f_vector()
            for k in range(1, degree_bound(kind, g) + 3):
                assert hilbert_from_f(f, k) == oracle(kind, g, k), (kind, k)


class TestReorientation:
    def test_counts_stable_under_flips(self):
        for g, flips in [(C3, [0]), (DIGON, [1]), (K2, [0])]:
            h = g.reoriented(flips)
            for kind in KINDS:
                a = build_family(kind, g).relative
                b = build_family(kind, h).relative
                for k in (1, 2, 3):
                    assert a.count_points(k) == b.count_points(k)


class TestCertify:
    # four edges at most: the builds read facets off their rows, and four
    # loops, the largest flow build drawn here, take a fraction of a second
    @settings(max_examples=30, deadline=None)
    @given(graphs(max_edges=4))
    def test_three_routes_agree_on_drawn_multigraphs(self, g):
        for kind in KINDS:
            report = certify(kind, g)
            assert report.agree, report.mismatch()

    # the segment [0, 2] has width two on its facets, and so has the cube
    # minus a vertex on the facet cutting that corner off; pulling the cube
    # minus the origin in lex order is unimodular, some other orders are not
    @pytest.mark.parametrize("points", [
        [(0,), (2,)],
        [p for p in itertools.product((0, 1), repeat=3) if any(p)],
    ], ids=["segment", "cube_minus_vertex"])
    def test_cell_that_is_not_two_level_refused(self, points, monkeypatch):
        cell = polytope.LatticePolytope(points)
        rel = RelativeComplex(PolytopalComplex([cell]), PolytopalComplex(
            [], ambient_dim=cell.ambient_dim))
        monkeypatch.setattr(constructions, "build_family",
                            lambda kind, g: CellFamily((), rel))
        with pytest.raises(CheckFailure, match=re.escape(
                f"flow: cell {list(cell.vertices)} is not two-level, so not "
                f"compressed")):
            certify("flow", K2)

    def test_budget_refused_before_any_method(self, monkeypatch):
        # brute force runs first and took 13 s on K7 before the refusal
        def no_oracle(*args):
            raise AssertionError("an oracle ran before the budget check")

        monkeypatch.setattr(constructions, "oracle", no_oracle)
        with pytest.raises(ValueError,
                           match=r"chromatic: 2097152 candidate cells "
                                 r"exceed the budget of 65536"):
            certify("chromatic", complete_graph(7))

    def test_polynomiality_failure_names_the_k(self, monkeypatch):
        monkeypatch.setattr(constructions, "oracle", lambda kind, g, k: k ** 5)
        # the quadratic through 1, 32, 243 at k = 1, 2, 3 gives 634 at k = 4
        with pytest.raises(CheckFailure, match=re.escape(
                "tension: brute counts: not a polynomial of degree <= 2: "
                "value at k=4 is 1024, interpolant gives 634; polynomiality "
                "of the counting function fails")):
            certify("tension", complete_graph(3), methods=("brute",))

    @pytest.mark.parametrize("methods", [("foo",), (), ("brute", "Hilbert")])
    def test_bad_methods_rejected(self, methods):
        with pytest.raises(ValueError, match=re.escape(repr(METHODS))):
            certify("flow", K2, methods=methods)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'chromatic', 'flow'"):
            certify("colouring", K2)


class TestRefusals:
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_cell_of_the_wrong_dimension(self, kind, monkeypatch):
        # build_family holds every cell to the degree bound; the uncached
        # function is called, so no cached family skips the check
        monkeypatch.setattr(constructions, "degree_bound", lambda *_: -1)
        with pytest.raises(InvariantError, match=(
                rf"^{kind} cell of dimension \d+, expected -1$")):
            build_family.__wrapped__(kind, C3)
