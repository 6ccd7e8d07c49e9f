"""Complex validation, relative counting, complex-wide pulling."""

import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_graphs import graphs

from ehrhil.complexes import (
    InvalidComplexError,
    NotCompressedError,
    PolytopalComplex,
    RelativeComplex,
    SimplicialComplex,
    _components,
    _lp_face_check,
    _mask_reader,
    _pull_face,
    meet_in_common_face,
    pull_complex,
    relative_f_vector,
)
import ehrhil
from ehrhil import constructions
from ehrhil.constructions import KINDS, build_family, degree_bound
from ehrhil.exact import dot, lp_feasible, solve_rational
from ehrhil.graphs import SUITE, Graph, cycle_graph
from ehrhil.io import complex_from_json, complex_to_json
from ehrhil.normal_sr import homogenize
from ehrhil.polytope import LatticePolytope, affine_rank
from ehrhil.srideal import realize_polynomial


def poly(*pts):
    return LatticePolytope(pts)


UNIT_SQUARE = poly((0, 0), (1, 0), (0, 1), (1, 1))
RIGHT_SQUARE = poly((1, 0), (2, 0), (1, 1), (2, 1))


def f_vector(cx):
    """Faces of a polytopal complex counted by dimension."""
    f = [0] * (cx.dim + 1)
    for vs in cx.all_faces:
        f[affine_rank(vs)] += 1
    return tuple(f)


POINT_SETS = st.integers(2, 3).flatmap(lambda n: st.tuples(*[st.lists(
    st.tuples(*[st.integers(0, 2)] * n),
    min_size=1, max_size=5, unique=True)] * 2))


class TestMeetInCommonFace:
    def test_shared_edge(self):
        assert meet_in_common_face(UNIT_SQUARE, RIGHT_SQUARE)

    def test_shared_vertex(self):
        assert meet_in_common_face(UNIT_SQUARE, poly((1, 1), (2, 1), (1, 2), (2, 2)))

    def test_disjoint(self):
        assert meet_in_common_face(UNIT_SQUARE, poly((3, 0), (4, 0), (3, 1), (4, 1)))

    def test_crossing_segments(self):
        assert not meet_in_common_face(poly((0, 0), (2, 2)), poly((0, 2), (2, 0)))

    def test_overlapping_squares(self):
        big = poly((0, 0), (2, 0), (0, 2), (2, 2))
        shifted = poly((1, 0), (3, 0), (1, 2), (3, 2))
        assert not meet_in_common_face(big, shifted)

    def test_vertex_inside_edge(self):
        assert not meet_in_common_face(poly((1, 1)), poly((0, 0), (2, 2)))

    def test_sub_segment(self):
        assert not meet_in_common_face(poly((1,), (2,)), poly((0,), (3,)))

    def test_touching_at_segment_midpoint(self):
        # square corner touching the middle of another square's edge
        below = poly((0, -2), (2, -2), (0, 0), (2, 0))
        above = poly((1, 0), (2, 1), (0, 1))
        assert not meet_in_common_face(below, above)

    def test_parallel_segments_in_space_need_no_lp(self, monkeypatch):
        # no facet row of either segment has the other weakly beyond it,
        # and their boxes overlap; a hull equality of one is constant on
        # the other's line, off its own, so the sets come apart
        calls = []

        def counted(system):
            calls.append(system)
            return lp_feasible(system)

        monkeypatch.setattr(ehrhil.complexes, "lp_feasible", counted)
        p, q = poly((0, 0, 0), (2, 2, 2)), poly((1, 0, 0), (3, 2, 2))
        assert meet_in_common_face(p, q)
        assert meet_in_common_face(q, p)
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(POINT_SETS)
    def test_reduction_agrees_with_lp(self, point_sets):
        a, b = (LatticePolytope(pts) for pts in point_sets)
        assert meet_in_common_face(a, b) == _lp_face_check(a, b)

    def test_suite_complexes_validate_with_no_lp_and_no_face(
            self, suite, monkeypatch):
        # C and C' of every suite pair, built afresh: every pair of cells
        # is decided by cutting vertex sets, along hull equalities too for
        # the cells of C' in parallel planes, so no face polytope is read
        # and no LP is solved
        rels = [build_family.__wrapped__(kind, g).relative
                for g in suite.values() for kind in KINDS]
        complexes = [cx for rel in rels for cx in (rel.complex, rel.sub)]
        assert len(complexes) == 100
        calls = []

        def counting(name, f):
            def wrapped(*args):
                calls.append(name)
                return f(*args)
            return wrapped

        monkeypatch.setattr(ehrhil.complexes, "lp_feasible",
                            counting("lp", lp_feasible))
        for name in ("face", "_read_face"):
            monkeypatch.setattr(LatticePolytope, name, counting(
                name, getattr(LatticePolytope, name)))
        for cx in complexes:
            cx.validate()
        assert calls == []


def intersection_vertices(p, q):
    """Vertices of p cap q, found as its feasible basic solutions."""
    n = p.ambient_dim
    eq = list(p.hull_equalities) + list(q.hull_equalities)
    le = list(p.facets) + list(q.facets)
    found = set()
    for size in range(n + 1):
        for tight in itertools.combinations(le, size):
            rows = eq + list(tight)
            sol = solve_rational([a for a, _ in rows], [b for _, b in rows], n)
            if sol is None or sol[1]:
                continue
            x = sol[0]
            if (all(dot(a, x) == b for a, b in eq)
                    and all(dot(a, x) <= b for a, b in le)):
                found.add(x)
    return found


class TestLpFaceCheck:
    # the shared vertices are the diagonal of the square, not a face; the
    # segment shares only (0, 0) with the square but runs along its edge;
    # an edge of the square shares all its vertices, and they are a face
    @pytest.mark.parametrize("p, q, common, lps", [
        (UNIT_SQUARE, poly((0, 0), (1, 1), (2, 0)), False, 0),
        (poly((0, 0), (2, 0)), UNIT_SQUARE, False, 1),
        (poly((0, 0), (1, 0)), UNIT_SQUARE, True, 0),
    ], ids=["diagonal_not_a_face", "overlap_past_a_vertex", "edge_of_square"])
    def test_lp_calls(self, p, q, common, lps, monkeypatch):
        calls = []

        def counted(system):
            calls.append(system)
            return lp_feasible(system)

        monkeypatch.setattr(ehrhil.complexes, "lp_feasible", counted)
        assert _lp_face_check(p, q) == common
        assert len(calls) == lps

    @settings(max_examples=150, deadline=None)
    @given(POINT_SETS)
    def test_against_intersection_vertices(self, point_sets):
        p, q = (LatticePolytope(pts) for pts in point_sets)
        shared = frozenset(p.vertices) & frozenset(q.vertices)
        common = intersection_vertices(p, q) == shared and (
            not shared or (shared in p.face_vertex_sets
                           and shared in q.face_vertex_sets))
        assert _lp_face_check(p, q) == common


class TestPolytopalComplex:
    def test_two_squares_faces(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE, RIGHT_SQUARE])
        # 6 vertices, 7 edges, 2 squares
        assert f_vector(cx) == (6, 7, 2)
        assert len(cx.all_faces) == 15
        cx.validate()

    def test_generated_by_drops_faces(self):
        edge = poly((0, 0), (1, 0))
        cx = PolytopalComplex.generated_by([UNIT_SQUARE, edge, UNIT_SQUARE])
        assert cx.maximal_cells == (UNIT_SQUARE,)

    def test_generated_by_drops_a_face_of_a_dropped_face(self):
        cube = LatticePolytope(list(itertools.product((0, 1), repeat=3)))
        square = poly((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        edge = poly((0, 0, 0), (1, 0, 0))
        cx = PolytopalComplex.generated_by([edge, square, cube])
        assert cx.maximal_cells == (cube,)

    def test_generated_by_keeps_a_cell_inside_another(self):
        # not a face, so kept for validate() to refuse
        outer, inner = poly((0,), (3,)), poly((1,), (2,))
        cx = PolytopalComplex.generated_by([outer, inner])
        assert cx.maximal_cells == (outer, inner)
        with pytest.raises(InvalidComplexError):
            cx.validate()

    def test_invalid_complex_raises(self):
        cx = PolytopalComplex([poly((0, 0), (2, 2)), poly((0, 2), (2, 0))])
        with pytest.raises(InvalidComplexError):
            cx.validate()

    def test_empty_complex(self):
        cx = PolytopalComplex([], ambient_dim=3)
        assert cx.is_empty
        assert cx.dim == -1
        assert f_vector(cx) == ()
        assert cx.lattice_points(2) == set()
        cx.validate()

    def test_lattice_points_union(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE, RIGHT_SQUARE])
        assert len(cx.lattice_points(1)) == 6
        assert len(cx.lattice_points(2)) == 15  # 5 x 3 grid

    def test_faces_in_hyperplanes(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE])
        boundary = cx.faces_in_hyperplanes(
            [((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1)])
        assert f_vector(boundary) == (4, 4)
        corner = cx.faces_in_hyperplanes([((1, 1), 0)])
        assert f_vector(corner) == (1,)


def reference_sub(cx, planes):
    """C' the long way: every selected face built, then reduced to the
    maximal ones by generated_by."""
    selected = [owner.face(vs) for vs, owner in cx.all_faces.items()
                if any(all(dot(a, v) == b for v in vs) for a, b in planes)]
    return PolytopalComplex.generated_by(selected, ambient_dim=cx.ambient_dim)


@pytest.fixture(scope="module")
def suite_builds(suite):
    """Every suite pair, and C5 in all kinds, built afresh: (name, kind,
    family, polytopes constructed, [(complex, planes, sub) per
    faces_in_hyperplanes call]).  Both entry points that build a polytope
    from scratch are counted: from points and from certified rows."""
    init = LatticePolytope.__init__
    from_rows = LatticePolytope.from_certified_rows
    select = PolytopalComplex.faces_in_hyperplanes
    state = {}

    def counting_init(self, points):
        state["built"] += 1
        init(self, points)

    def counting_from_rows(vertices, rows):
        state["built"] += 1
        return from_rows(vertices, rows)

    def recording_select(self, planes):
        sub = select(self, planes)
        state["calls"].append((self, planes, sub))
        return sub

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LatticePolytope, "__init__", counting_init)
        mp.setattr(LatticePolytope, "from_certified_rows",
                   staticmethod(counting_from_rows))
        mp.setattr(PolytopalComplex, "faces_in_hyperplanes", recording_select)
        for name, g in {**suite, "C5": cycle_graph(5)}.items():
            for kind in KINDS:
                state.update(built=0, calls=[])
                family = build_family.__wrapped__(kind, g)
                out.append((name, kind, family, state["built"],
                            state["calls"]))
    return out


class TestFaceTable:
    def test_owner_is_the_first_cell_with_the_face(self):
        cx = PolytopalComplex.generated_by([RIGHT_SQUARE, UNIT_SQUARE])
        shared = frozenset({(1, 0), (1, 1)})
        assert cx.all_faces[shared] is cx.maximal_cells[0] == UNIT_SQUARE
        assert cx.all_faces[frozenset(RIGHT_SQUARE.vertices)] \
            is cx.maximal_cells[1]

    @pytest.mark.parametrize("cells, planes", [
        ([UNIT_SQUARE], [((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1)]),
        ([UNIT_SQUARE], [((1, 1), 0)]),
        ([UNIT_SQUARE], [((1, 0), 0), ((0, 1), 0)]),
        ([UNIT_SQUARE], [((1, 0), 5)]),
        ([UNIT_SQUARE, RIGHT_SQUARE], [((0, 1), 0), ((0, 1), 1), ((1, 0), 0)]),
        ([UNIT_SQUARE, RIGHT_SQUARE, poly((0, 1), (1, 1), (1, 2))],
         [((0, 1), 0), ((1, 0), 2)]),
        ([UNIT_SQUARE, RIGHT_SQUARE], [((0, 0), 0)]),
        # planes that cut a cell: a diagonal, two opposite corners, and a
        # diagonal of one square next to an edge shared by both
        ([UNIT_SQUARE], [((1, -1), 0)]),
        ([UNIT_SQUARE], [((1, 1), 1)]),
        ([UNIT_SQUARE, RIGHT_SQUARE], [((1, -1), 1), ((0, 1), 1)]),
    ])
    def test_square_selections_match_reference(self, cells, planes):
        cx = PolytopalComplex.generated_by(cells)
        assert cx.faces_in_hyperplanes(planes).maximal_cells \
            == reference_sub(cx, planes).maximal_cells

    def test_suite_selections_match_reference(self, suite_builds):
        for name, kind, _, _, calls in suite_builds:
            for cx, planes, sub in calls:
                assert sub.maximal_cells \
                    == reference_sub(cx, planes).maximal_cells, (name, kind)

    def test_k33_selections_match_reference(self):
        # K3,3 in all five kinds: 656 to 9,779 faces of C
        k33 = Graph(tuple(range(6)),
                    tuple((a, b) for a in range(3) for b in range(3, 6)))
        for kind in KINDS:
            rel = build_family(kind, k33).relative
            planes = constructions._candidates(kind, k33)[2]
            assert rel.sub.maximal_cells \
                == reference_sub(rel.complex, planes).maximal_cells, kind

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_planes_match_reference(self, data):
        # planes through a vertex of the complex, with small normals: they
        # support some cells and cut others; plus facet planes of cells
        name = data.draw(st.sampled_from(sorted(SUITE)))
        kind = data.draw(st.sampled_from(KINDS))
        cx = build_family(kind, SUITE[name]).relative.complex
        if cx.is_empty:
            return
        n = cx.ambient_dim
        verts = sorted({v for c in cx.maximal_cells for v in c.vertices})
        through = st.tuples(st.tuples(*[st.integers(-2, 2)] * n),
                            st.sampled_from(verts)).map(
            lambda av: (av[0], dot(*av)))
        facets = st.sampled_from(
            [ab for c in cx.maximal_cells for ab in c.facets] or [(
                (0,) * n, 0)])
        planes = data.draw(st.lists(st.one_of(through, facets),
                                    max_size=4))
        assert cx.faces_in_hyperplanes(planes).maximal_cells \
            == reference_sub(cx, planes).maximal_cells, (name, kind, planes)

    def test_generated_by_recovers_the_cells_from_all_faces(self, suite):
        rng = random.Random(13)
        for name, g in suite.items():
            for kind in KINDS:
                cx = build_family(kind, g).relative.complex
                polys = list(cx.maximal_cells) + [
                    owner.face(vs) for vs, owner in cx.all_faces.items()]
                rng.shuffle(polys)
                got = PolytopalComplex.generated_by(
                    polys, ambient_dim=cx.ambient_dim)
                assert got.maximal_cells == cx.maximal_cells, (name, kind)

    def test_build_family_builds_only_the_sub_cells(self, suite_builds):
        # one polytope built per certified cell, from its rows; the cells
        # of C' are read off their owners' face lattices
        for name, kind, family, built, _ in suite_builds:
            assert built == len(family.labels), (name, kind)


class TestRelativeComplex:
    def test_half_open_square(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE])
        sub = cx.faces_in_hyperplanes([((1, 0), 0), ((0, 1), 0)])
        rel = RelativeComplex(cx, sub)
        for k in range(1, 5):
            assert rel.count_points(k) == k * k

    def test_open_square(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE])
        sub = cx.faces_in_hyperplanes(
            [((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1)])
        rel = RelativeComplex(cx, sub)
        for k in range(1, 5):
            assert rel.count_points(k) == (k - 1) ** 2

    def test_sub_must_be_faces(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE])
        bad = PolytopalComplex.generated_by([poly((0, 0), (1, 1))])
        with pytest.raises(ValueError, match=re.escape(
                "C' cell [(0, 0), (1, 1)] is not a face of C, so C' is not "
                "a subcomplex")):
            RelativeComplex(cx, bad)

    def test_invariant_holds_under_optimize_flag(self):
        # a pair that skips the constructor's subcomplex check: under
        # python -O an assert would be gone, and count_points would return
        # 0 although the sub does not lie in C
        code = (
            "import sys\n"
            "from ehrhil.complexes import PolytopalComplex, RelativeComplex\n"
            "from ehrhil.polytope import LatticePolytope\n"
            "rel = object.__new__(RelativeComplex)\n"
            "rel.complex = PolytopalComplex([LatticePolytope([(0,), (1,)])])\n"
            "rel.sub = PolytopalComplex([LatticePolytope([(2,), (3,)])])\n"
            "try:\n"
            "    print(rel.count_points(1))\n"
            "except ValueError as exc:\n"
            "    print('optimize', sys.flags.optimize, 'ValueError', exc)\n")
        src = str(Path(ehrhil.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("optimize 1 ValueError")

    def test_invariant_error_names_the_cell(self):
        rel = object.__new__(RelativeComplex)
        rel.complex = PolytopalComplex([poly((0,), (1,))])
        rel.sub = PolytopalComplex([poly((2,), (3,))])
        with pytest.raises(ValueError, match=r"\[\(2,\), \(3,\)\]"):
            rel.count_points(1)

    def test_relative_f_vector_open_square(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE])
        sub = cx.faces_in_hyperplanes(
            [((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1)])
        rel = RelativeComplex(cx, sub)
        # one open diagonal and two open triangles survive
        assert rel.pulled_f_vector() == (0, 1, 2)

    def test_empty_pair(self):
        cx = PolytopalComplex([], ambient_dim=2)
        rel = RelativeComplex(cx, PolytopalComplex([], ambient_dim=2))
        assert rel.count_points(3) == 0
        assert rel.pulled_f_vector() == ()

    @pytest.mark.parametrize("k", [0, -3, 2.0, "2", True])
    def test_bad_dilation_factor_is_refused(self, k):
        # refused before any walk, even where there is nothing to walk
        empty = PolytopalComplex([], ambient_dim=2)
        square = PolytopalComplex.generated_by([UNIT_SQUARE])
        for rel in (RelativeComplex(empty, empty),
                    RelativeComplex(square, square.faces_in_hyperplanes([]))):
            with pytest.raises(ValueError, match="dilation factor k"):
                rel.count_points(k)
            with pytest.raises(ValueError, match="dilation factor k"):
                rel.complex.lattice_points(k)

    def test_carved_gamma_matches_pulling_the_subcomplex(self, suite):
        # pulling C' equals the old carve: the faces of Delta with all their
        # vertices among the lattice points of one cell of C'; and the
        # relative f-vector is the lex order's under every shuffled order
        cx = PolytopalComplex.generated_by([UNIT_SQUARE, RIGHT_SQUARE])
        sub = cx.faces_in_hyperplanes(
            [((0, 1), 0), ((0, 1), 1), ((1, 0), 0)])
        cases = [RelativeComplex(cx, sub)] + [
            build_family(kind, g).relative
            for g in suite.values() for kind in KINDS]
        for rel in cases:
            pts = sorted(rel.complex.lattice_points(1))
            f = rel.pulled_f_vector()
            for seed in range(3):
                order = list(pts)
                random.Random(seed).shuffle(order)
                delta, gamma = rel.pulled_pair(order)
                assert gamma.maximal_simplices == carved_gamma(rel, delta)
                assert relative_f_vector(delta, gamma) == f

    def test_pulled_f_vector_checks_gamma_inside_delta(self):
        # pulling C' apart from C makes Gamma inside Delta a real check
        rel = object.__new__(RelativeComplex)
        rel.complex = PolytopalComplex([poly((0,), (1,))])
        rel.sub = PolytopalComplex([poly((2,), (3,))])
        with pytest.raises(ValueError, match="not a subcomplex"):
            rel.pulled_f_vector()
        with pytest.raises(ValueError, match="not a subcomplex"):
            memo_pulling(rel, None)


def carved_gamma(rel, delta):
    """Maximal faces of delta lying inside some cell of rel.sub."""
    sub_pts = [frozenset(c.lattice_points()) for c in rel.sub.maximal_cells]
    inside = {s for s in delta.faces if any(s <= pts for pts in sub_pts)}
    return frozenset(s for s in inside if not any(s < t for t in inside))


def listed_count(rel, k):
    """The count by listing: the points of k*C that are not in k*C'."""
    return len(rel.complex.lattice_points(k) - rel.sub.lattice_points(k))


def scanned_plan(rel):
    """_open_faces the long way: a face of C is dropped when its vertex set
    lies in the vertex set of some cell of C'."""
    faces = rel.complex.all_faces
    subs = [frozenset(cell.vertices) for cell in rel.sub.maximal_cells]
    plan = []
    for cell in rel.complex.maximal_cells:
        kept, dropped = [], []
        for vs in cell.face_vertex_sets:
            if faces[vs] is cell and not any(vs <= s for s in subs):
                kept.append(vs)
            else:
                dropped.append(vs)
        plan.append((cell, kept, dropped))
    return plan


class TestOpenFaceCount:
    """count_points sums open faces; listing the points is the reference."""

    def test_plan_matches_the_subset_scan(self, suite_builds):
        rels = [family.relative for _, _, family, _, _ in suite_builds]
        for rel in rels + [realize_polynomial((0, 0, 1, 2))]:
            assert rel._open_faces == scanned_plan(rel), rel

    def test_suite_pairs(self, suite):
        for name, g in suite.items():
            for kind in KINDS:
                rel = build_family(kind, g).relative
                for k in range(1, degree_bound(kind, g) + 3):
                    assert rel.count_points(k) == listed_count(rel, k), \
                        (name, kind, k)

    @pytest.mark.parametrize("f", [(1,), (0, 1), (1, 2, 1), (0, 0, 6, 6),
                                   (2, 0, 3), (0, 3, 0, 1)])
    def test_realized_pairs(self, f):
        rel = realize_polynomial(f)
        for k in range(1, len(f) + 3):
            assert rel.count_points(k) == listed_count(rel, k), k

    def test_shared_faces_count_once(self):
        # two squares and a triangle around shared edges and vertices,
        # minus a boundary path: every face is owned by one cell
        cx = PolytopalComplex.generated_by(
            [UNIT_SQUARE, RIGHT_SQUARE, poly((0, 1), (1, 1), (1, 2))])
        sub = cx.faces_in_hyperplanes([((0, 1), 0), ((1, 0), 2)])
        for rel in (RelativeComplex(cx, sub),
                    RelativeComplex(cx, PolytopalComplex([], ambient_dim=2))):
            for k in range(1, 7):
                assert rel.count_points(k) == listed_count(rel, k), k

    def test_a_repeated_cell_counts_once(self):
        cx = PolytopalComplex([UNIT_SQUARE, UNIT_SQUARE])
        assert cx.maximal_cells == (UNIT_SQUARE,)
        rel = RelativeComplex(cx, PolytopalComplex([], ambient_dim=2))
        assert [rel.count_points(k) for k in (1, 2, 3)] == [4, 9, 16]


class TestPulling:
    def test_pull_two_squares_consistent(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE, RIGHT_SQUARE])
        tri = pull_complex(cx)
        assert len(tri.maximal_simplices) == 4
        # open faces tile the union: interior counts add up for dilates
        for k in (1, 2, 3):
            total = sum(
                len(LatticePolytope(s).interior_lattice_points(k))
                for s in tri.faces if s)
            assert total == len(cx.lattice_points(k))

    def test_not_compressed_raises(self):
        cx = PolytopalComplex.generated_by([poly((0,), (2,))])
        rel = RelativeComplex(cx, PolytopalComplex([], ambient_dim=1))
        assert pull_complex(cx).first_non_unimodular() == [(0,), (2,)]
        with pytest.raises(NotCompressedError, match=r"\[\(0,\), \(2,\)\]"):
            rel.pulled_f_vector()
        # an order pulling from the middle splits into unit cells instead
        order = [(1,), (0,), (2,)]
        tri = pull_complex(cx, order=order)
        assert tri.first_non_unimodular() is None
        assert tri.maximal_simplices == frozenset(
            {frozenset({(0,), (1,)}), frozenset({(1,), (2,)})})
        assert rel.pulled_f_vector(order) == (3, 2)

    def test_first_non_unimodular_is_the_least_in_sorted_order(self):
        tri = SimplicialComplex([((0, 0), (1, 0), (0, 1)),
                                 ((5, 0), (7, 0), (5, 1)),
                                 ((2, 0), (4, 0), (2, 1))])
        assert tri.first_non_unimodular() == [(2, 0), (2, 1), (4, 0)]

    def test_order_must_cover(self):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE])
        with pytest.raises(ValueError):
            pull_complex(cx, order=[(0, 0), (1, 1)])

    def test_pull_polytope(self):
        tri = pull_complex(PolytopalComplex([UNIT_SQUARE]))
        assert len(tri.maximal_simplices) == 2
        assert tri.f_vector() == (4, 5, 2)

    def test_geom_simplicial_f_vector(self):
        tri = SimplicialComplex([((0, 0), (1, 0), (0, 1))])
        assert tri.f_vector() == (3, 3, 1)
        assert tri.dim == 2
        assert len(tri.faces) == 8

    def test_relative_f_vector_subcomplex_check(self):
        delta = SimplicialComplex([((0, 0), (1, 0))])
        gamma = SimplicialComplex([((5, 5),)])
        with pytest.raises(ValueError):
            relative_f_vector(delta, gamma)


def literal_pulling(rel, order):
    """The memo's reference: Delta and Gamma pulled cell by cell, and the
    relative f-vector listed off every subset of their simplices."""
    delta, gamma = rel.pulled_pair(order)
    return delta, gamma, relative_f_vector(delta, gamma)


def memo_pulling(rel, order):
    """Delta, Gamma and f off the face memo, as `triangulate` reads them."""
    return rel._pull_by_face(
        order, [frozenset(c.vertices) for c in rel.sub.maximal_cells])


@st.composite
def relative_pairs(draw):
    """A polytope in [0, 2]^d (d = 2, 3), often with lattice points that
    are not vertices, alone or with its mirror image in x_0 = 0 (the two
    meet in a common face), and sometimes with a far translate, a second
    connected component; C' a random set of faces; a random order."""
    d = draw(st.sampled_from([2, 3]))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=1,
                        max_size=6, unique=True))
    cells = [LatticePolytope(pts)]
    if draw(st.booleans()):
        cells.append(LatticePolytope([(-p[0], *p[1:]) for p in pts]))
    if draw(st.booleans()):
        cells.append(LatticePolytope([(p[0] + 10, *p[1:]) for p in pts]))
    cx = PolytopalComplex(cells)
    faces = sorted(cx.all_faces, key=sorted)
    chosen = draw(st.lists(st.sampled_from(faces), max_size=4))
    sub = PolytopalComplex.generated_by(
        [cx.all_faces[vs].face(vs) for vs in chosen], ambient_dim=d)
    order = draw(st.permutations(sorted(cx.lattice_points(1))))
    return RelativeComplex(cx, sub), order


class TestPullByFace:
    """One pulling per face of C gives the literal pulled pair's Delta,
    Gamma and relative f-vector."""

    def test_suite_pairs_in_sorted_and_shuffled_orders(self, suite):
        cx = PolytopalComplex.generated_by([UNIT_SQUARE, RIGHT_SQUARE])
        sub = cx.faces_in_hyperplanes(
            [((0, 1), 0), ((0, 1), 1), ((1, 0), 0)])
        cases = [RelativeComplex(cx, sub),
                 realize_polynomial((1, 0, 2, 1))] + [
            build_family(kind, g).relative
            for g in suite.values() for kind in KINDS]
        for rel in cases:
            pts = sorted(rel.complex.lattice_points(1))
            orders = [None]
            for seed in range(3):
                order = list(pts)
                random.Random(seed).shuffle(order)
                orders.append(order)
            for order in orders:
                assert memo_pulling(rel, order) \
                    == literal_pulling(rel, order), (rel, order)

    @settings(max_examples=80, deadline=None)
    @given(relative_pairs())
    def test_drawn_pairs_with_non_vertex_points(self, drawn):
        rel, order = drawn
        delta, gamma, f = literal_pulling(rel, order)
        assert memo_pulling(rel, order) == (delta, gamma, f)
        # with no face named, no pulling of C' is read
        assert rel._pull_by_face(order) == (delta, SimplicialComplex([]), f)
        bad = delta.first_non_unimodular()
        if bad is None:
            assert rel.pulled_f_vector(order) == f
        else:
            with pytest.raises(NotCompressedError,
                               match=re.escape(f"simplex {bad} is not")):
                rel.pulled_f_vector(order)

    def test_components_join_cells_through_shared_vertices(self):
        # segments a and b stand apart until c joins them, through a vertex
        # of b that is not its first; d stays apart, and each part keeps
        # the plan's order
        a, b, c, d = (poly(*ends) for ends in (
            ((0, 0), (1, 0)), ((5, 0), (6, 1)), ((1, 0), (6, 1)),
            ((9, 0), (10, 0))))
        parts = _components([(a, 0), (d, 1), (b, 2), (c, 3)])
        assert list(parts) == [[(a, 0), (b, 2), (c, 3)], [(d, 1)]]

    def test_order_must_cover_the_complex(self):
        rel = RelativeComplex(PolytopalComplex([UNIT_SQUARE]),
                              PolytopalComplex([], ambient_dim=2))
        with pytest.raises(ValueError, match="missing lattice points"):
            rel.pulled_f_vector([(0, 0), (1, 1)])


def face_memo(cell, order):
    """The pulling memo of one cell under `order`, as _pull_by_face fills
    it, and the cell's map from vertex sets to masks."""
    bit = {p: 1 << i for i, p in enumerate(order)}
    mask = _mask_reader(cell, cell.lattice_points(1), bit)
    memo = {}
    _pull_face(memo, mask(frozenset(cell.vertices)), cell.dim,
               [mask(t) for t in cell._facet_vertex_sets])
    return memo, mask


def assert_interior_counts_add_up(cell, order):
    """Every face of the cell is memoized, and the interior counts of a
    face's faces sum to the f-vector of its pulling, listed off every
    nonempty subset of its maximal simplices."""
    memo, mask = face_memo(cell, order)
    masks = {vs: mask(vs) for vs in cell.face_vertex_sets}
    assert set(memo) == set(masks.values())
    for vs, m in masks.items():
        faces = set()
        for s in memo[m][0]:
            sub = s
            while sub:  # every nonempty sub-mask of s
                faces.add(sub)
                sub = (sub - 1) & s
        listed = [0] * max(map(int.bit_count, faces))
        for sub in faces:
            listed[sub.bit_count() - 1] += 1
        summed = map(sum, itertools.zip_longest(
            *(memo[masks[ws]][1] for ws in masks if ws <= vs), fillvalue=0))
        assert tuple(summed) == tuple(listed), (cell, order, m)


class TestPullFace:
    """The memo of `_pull_face`, one face's entry against its faces'."""

    @pytest.mark.parametrize("points", [
        list(itertools.product((0, 1), repeat=4)),
        list(itertools.product((0, 1, 2), repeat=2)),
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
         (0, 0, -1)],
    ], ids=["4-cube", "3x3 square", "doubled 3-simplex", "square pyramid",
            "octahedron"])
    def test_fixed_cells(self, points):
        cell = LatticePolytope(points)
        pts = sorted(cell.lattice_points(1))
        for seed in range(3):
            order = list(pts)
            random.Random(seed).shuffle(order)
            assert_interior_counts_add_up(cell, order)

    def test_a_meet_of_far_facets_on_a_near_one(self):
        # the first point (1, 0, 1) lies inside an edge; the apex (2, 1, 1)
        # lies on four facets, so the facets missing that point meet in it
        # while a facet through the point holds it too
        cell = LatticePolytope(
            [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 1, 1)])
        assert_interior_counts_add_up(cell, [
            (1, 0, 1), (1, 0, 0), (1, 0, 2), (0, 0, 1), (2, 1, 1), (0, 0, 0)])

    @settings(max_examples=60, deadline=None)
    @given(relative_pairs())
    def test_drawn_cells(self, drawn):
        rel, order = drawn
        for cell in rel.complex.maximal_cells:
            pts = set(cell.lattice_points(1))
            assert_interior_counts_add_up(
                cell, [p for p in order if p in pts])


def per_face_count(rel, k):
    """count_points face by face, the reference for its grouped terms: each
    cell's kept faces walked open, or the cell walked closed less its
    dropped faces."""
    total = 0
    for cell, kept, dropped in rel._open_faces:
        closed = len(dropped) < len(kept)
        part = sum(cell.count_points(k, vs)
                   for vs in (dropped if closed else kept))
        total += cell.count_points(k) - part if closed else part
    return total


def assert_counts_per_face(rel, kmax=6):
    for k in range(1, kmax + 1):
        assert rel.count_points(k) == per_face_count(rel, k), (rel, k)


def as_read_back(rel, how):
    if how == "homogenized":
        return homogenize(rel)
    if how == "json":
        return complex_from_json(complex_to_json(rel))
    return rel


class TestCountProgram:
    """count_points walks each distinct frame once per k: its grouped terms
    sum to the per-face count over _open_faces."""

    def test_suite_builds(self, suite_builds):
        for name, kind, family, _, _ in suite_builds:
            for how in ("built", "homogenized", "json"):
                assert_counts_per_face(as_read_back(family.relative, how))

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_edges=4), st.sampled_from(KINDS),
           st.sampled_from(["built", "homogenized", "json"]))
    def test_drawn_multigraphs(self, g, kind, how):
        assert_counts_per_face(as_read_back(build_family(kind, g).relative,
                                            how))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_drawn_realized_vectors(self, f):
        assert_counts_per_face(realize_polynomial(f))

    @settings(max_examples=60, deadline=None)
    @given(relative_pairs())
    def test_drawn_pairs(self, drawn):
        rel, _ = drawn
        assert_counts_per_face(rel)
        for k in (1, 2):
            assert rel.count_points(k) == listed_count(rel, k), k

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=6,
        unique=True)))
    def test_one_cell_with_empty_sub_is_one_closed_term(self, pts):
        cell = LatticePolytope(pts)
        rel = RelativeComplex(PolytopalComplex([cell]),
                              PolytopalComplex([], ambient_dim=len(pts[0])))
        assert rel._count_program == ((1, cell._frame[2], 0),)
        assert_counts_per_face(rel)

    def test_k3_chromatic_terms(self, suite):
        rel = build_family("chromatic", suite["K3"]).relative
        assert sum(len(kept) for _, kept, _ in rel._open_faces) == 12
        # six open triangles and six open edges, one frame each
        assert sorted((len(plan[1]), c, step)
                      for c, plan, step in rel._count_program) \
            == [(2, 6, 1), (3, 6, 1)]

    def test_realized_vector_terms(self):
        # one frame per dimension: two closed points, three open triangles
        # and an open tetrahedron
        rel = realize_polynomial((2, 0, 3, 1))
        assert sorted((len(plan[1]), c, step)
                      for c, plan, step in rel._count_program) \
            == [(0, 2, 0), (2, 3, 1), (3, 1, 1)]

    def test_a_closed_cell_and_an_open_copy_stay_apart(self):
        # [0, 1] counted closed and [3, 4] open share one frame: only the
        # step tells their walks apart
        cx = PolytopalComplex([poly((0,), (1,)), poly((3,), (4,))])
        sub = PolytopalComplex([poly((3,)), poly((4,))])
        rel = RelativeComplex(cx, sub)
        assert len(rel._count_program) == 2
        assert [rel.count_points(k) for k in (1, 2, 3)] == [2, 4, 6]
        assert_counts_per_face(rel)

    def test_equal_normals_and_boxes_with_other_sides_stay_apart(self):
        # two pentagons in [0, 3]^2 cut by x + y <= 5 and <= 4: the same
        # rows but for one right-hand side, and the same box
        cx = PolytopalComplex([
            poly((0, 0), (3, 0), (3, 2), (2, 3), (0, 3)),
            poly((5, 0), (8, 0), (8, 1), (6, 3), (5, 3))])
        rel = RelativeComplex(cx, PolytopalComplex([], ambient_dim=2))
        assert len(rel._count_program) == 2
        assert rel.count_points(1) == 15 + 13
        for k in (1, 2, 3):
            assert rel.count_points(k) == listed_count(rel, k), k

    def test_dropped_faces_are_subtracted(self):
        # a square less one corner: counted closed, less the corner
        cx = PolytopalComplex([UNIT_SQUARE])
        sub = PolytopalComplex([poly((1, 1))])
        rel = RelativeComplex(cx, sub)
        assert sorted((c, step) for c, _, step in rel._count_program) \
            == [(-1, 1), (1, 0)]
        assert [rel.count_points(k) for k in (1, 2, 3)] == [3, 8, 15]


class TestRefusals:
    @pytest.mark.parametrize("build, message", [
        (lambda: PolytopalComplex([UNIT_SQUARE, poly((0, 0, 0), (1, 0, 0))]),
         r"^cells live in different ambient spaces$"),
        (lambda: PolytopalComplex([UNIT_SQUARE], ambient_dim=3),
         r"^ambient_dim does not match the cells$"),
        (lambda: RelativeComplex(PolytopalComplex([UNIT_SQUARE]),
                                 PolytopalComplex([poly((0, 0, 0))])),
         r"^ambient spaces differ$"),
    ], ids=["mixed cells", "ambient_dim", "pair"])
    def test_ambient_spaces_must_agree(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
