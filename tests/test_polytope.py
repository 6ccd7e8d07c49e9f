"""Lattice polytope structure: facets, faces, points, pulling."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ehrhil.polytope as polytope_module
from ehrhil.constructions import KINDS, build_family
from ehrhil.exact import (
    InvariantError,
    LinearSystem,
    dot,
    lp_feasible,
)
from ehrhil.graphs import cycle_graph
from ehrhil.normal_sr import homogenize
from ehrhil.polytope import (
    IntegralityError,
    LatticePolytope,
    _faces_below,
    affine_rank,
    simplex_is_unimodular,
)
from ehrhil.srideal import realize_polynomial
from test_exact import minors_gcd

SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
CUBE = LatticePolytope(itertools.product((0, 1), repeat=3))
TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])
SEGMENT2 = LatticePolytope([(0,), (2,)])
REEVE = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
CROSS = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])


def in_hull(point, vertices, k=1):
    """Independent membership test: is point/k a convex combination?"""
    m = len(vertices)
    n = len(point)
    eq = [(tuple(k * v[c] for v in vertices), point[c]) for c in range(n)]
    eq.append(((1,) * m, 1))
    le = [(tuple(-1 if j == t else 0 for j in range(m)), 0) for t in range(m)]
    return lp_feasible(LinearSystem(m, eq=eq, le=le)) is not None


def points_reference(p, k):
    """The k-th dilate by brute force, in lex order: every integer point of
    k times the bounding box with a.x == k*c on each hull equality and
    a.x <= k*b on each facet.  It shares no walk, plan or frame with the
    listing it checks."""
    box = [range(k * lo, k * hi + 1) for lo, hi in p.bounding_box]
    return tuple(x for x in itertools.product(*box)
                 if all(dot(h, x) == k * c for h, c in p.hull_equalities)
                 and all(dot(a, x) <= k * b for a, b in p.facets))


def open_points_reference(p, k, closed=None):
    """The open k-th dilate: the points of the brute closed one (or of
    `closed`, when given) strictly inside each facet."""
    if closed is None:
        closed = points_reference(p, k)
    return tuple(q for q in closed
                 if all(dot(a, q) < k * b for a, b in p.facets))


def record_reductions(monkeypatch):
    """From now on, append the arguments of every `column_echelon` call
    that polytope.py makes to the returned list."""
    reduce, calls = polytope_module.column_echelon, []

    def counting_reduce(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(polytope_module, "column_echelon", counting_reduce)
    return calls


class TestBasicStructure:
    def test_square(self):
        assert SQUARE.dim == 2
        assert len(SQUARE.vertices) == 4
        assert len(SQUARE.facets) == 4
        assert SQUARE.hull_equalities == ()
        assert len(SQUARE.face_vertex_sets) == 9  # 4 + 4 + 1

    def test_cube_faces(self):
        assert len(CUBE.facets) == 6
        assert len(CUBE.face_vertex_sets) == 27  # 8 + 12 + 6 + 1

    def test_interior_points_redundant_input(self):
        p = LatticePolytope([(0, 0), (4, 0), (0, 4), (1, 1), (2, 2)])
        assert p.vertices == ((0, 0), (0, 4), (4, 0))

    def test_lower_dimensional(self):
        seg = LatticePolytope([(0, 0), (1, 1)])
        assert seg.dim == 1
        assert seg.hull_equalities == (((1, -1), 0),)
        assert len(seg.facets) == 2
        assert seg.is_two_level()

    def test_fractional_coordinates_rejected(self):
        # int() would round these to (0, 0) instead of refusing them
        with pytest.raises(ValueError, match=r"\(Fraction\(1, 2\), 0\)"):
            LatticePolytope([(Fraction(1, 2), 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError, match=r"\(0\.9, 0\.2\)"):
            LatticePolytope([(0.9, 0.2), (1, 0), (0, 1)])
        integral = LatticePolytope([(Fraction(2, 2), 0), (0, 0), (0, 1)])
        assert integral == TRIANGLE
        assert all(type(c) is int for v in integral.vertices for c in v)

    def test_point(self):
        pt = LatticePolytope([(3, -2)])
        assert pt.dim == 0
        assert pt.facets == ()
        assert pt.lattice_points(5) == ((15, -10),)
        assert pt.is_two_level()

    def test_contains_scaled(self):
        assert SQUARE.contains((3, 2), k=3)
        assert not SQUARE.contains((4, 2), k=3)
        assert SQUARE.contains((Fraction(1, 2), Fraction(1, 2)))

    def test_affine_rank(self):
        assert affine_rank([]) == -1
        assert affine_rank([(1, 2)]) == 0
        assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
        assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2


def vertex_lp_reference(points):
    """The points outside the hull of the others, one LP each."""
    pts = sorted(set(points))
    return tuple(p for i, p in enumerate(pts)
                 if not in_hull(p, pts[:i] + pts[i + 1:]))


def unit_box_points():
    """(points in {0, 1}^n, shift) for n = 1..4: a unit box anywhere."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1,
                 max_size=2 ** n),
        st.tuples(*[st.integers(-3, 3)] * n)))


def no_walk(*args):
    raise AssertionError("a lattice walk ran")


class TestVertexRule:
    # points in one unit box are all vertices, with no vertex LP
    @settings(max_examples=60, deadline=None)
    @given(unit_box_points())
    def test_unit_box_points_match_the_vertex_lp(self, drawn):
        points, shift = drawn
        shifted = [tuple(x + s for x, s in zip(p, shift)) for p in points]
        assert LatticePolytope(shifted).vertices \
            == vertex_lp_reference(shifted)

    def test_unit_box_needs_no_vertex_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("a vertex LP ran")

        monkeypatch.setattr(polytope_module, "lp_feasible", no_lp)
        assert CUBE.vertices == LatticePolytope(CUBE.vertices).vertices
        assert len(LatticePolytope(
            itertools.product((2, 3), (-1, 0), (5, 6))).vertices) == 8

    @settings(max_examples=60, deadline=None)
    @given(unit_box_points())
    def test_unit_box_points_are_the_vertices_with_no_walk(self, drawn):
        # the box's lattice points are cube vertices, so the hull's are
        # extreme: the reference tests every point of the box
        points, shift = drawn
        p = LatticePolytope([tuple(x + s for x, s in zip(q, shift))
                             for q in points])
        box = itertools.product(*(range(lo, hi + 1)
                                  for lo, hi in p.bounding_box))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope_module, "_walk", no_walk)
            got = p.lattice_points(1)
        assert got == p.vertices == tuple(x for x in box if p.contains(x))

    def test_a_wider_box_is_still_walked(self):
        seg = LatticePolytope([(0, 0), (2, 0)])
        assert seg.lattice_points(1) == ((0, 0), (1, 0), (2, 0))

    def test_cells_and_realized_simplices_are_never_walked(self, monkeypatch):
        # built afresh, so no cached list answers for the walk
        rels = [build_family.__wrapped__(kind, cycle_graph(4)).relative
                for kind in KINDS]
        rels.append(realize_polynomial((1, 2, 0, 1)))
        monkeypatch.setattr(polytope_module, "_walk", no_walk)
        for rel in rels:
            for cell in rel.complex.maximal_cells:
                assert cell.lattice_points(1) == cell.vertices

    @pytest.mark.parametrize("points, vertices", [
        ([(0,), (1,), (2,)], ((0,), (2,))),
        ([(0, 0), (1, 0), (2, 0), (1, 1)], ((0, 0), (1, 1), (2, 0))),
    ])
    def test_wider_point_sets_drop_their_non_vertices(self, points,
                                                      vertices):
        assert LatticePolytope(points).vertices == vertices \
            == vertex_lp_reference(points)


class TestLatticePoints:
    def test_square_counts(self):
        # Ehrhart of the unit square is (k+1)^2
        for k in range(1, 5):
            assert len(SQUARE.lattice_points(k)) == (k + 1) ** 2
            assert len(SQUARE.interior_lattice_points(k)) == (k - 1) ** 2

    def test_lex_order(self):
        pts = SQUARE.lattice_points(2)
        assert pts == tuple(sorted(pts))
        assert pts[0] == (0, 0) and pts[-1] == (2, 2)
        for k in (3, 70):  # no list is kept, so each is walked afresh
            assert SQUARE.lattice_points(k) \
                == tuple(itertools.product(range(k + 1), repeat=2))

    def test_triangle_counts(self):
        for k in range(1, 6):
            expected = (k + 1) * (k + 2) // 2
            assert len(TRIANGLE.lattice_points(k)) == expected

    def test_lower_dim_counts(self):
        seg = LatticePolytope([(0, 0), (2, 2)])
        assert seg.lattice_points(1) == ((0, 0), (1, 1), (2, 2))
        assert seg.lattice_points(3) == tuple((i, i) for i in range(7))

    def test_reeve_is_empty(self):
        assert len(REEVE.vertices) == REEVE.dim + 1
        assert REEVE.lattice_points(1) == REEVE.vertices

    def test_count_open_faces(self):
        # Ehrhart-Macdonald on the square: open square (k-1)^2, open edge
        # k-1, vertex 1; the faces' counts add up to the closed (k+1)^2
        edge = frozenset({(0, 0), (1, 0)})
        for k in range(1, 5):
            assert SQUARE.count_points(k) == (k + 1) ** 2
            assert SQUARE.count_points(k, SQUARE.vertices) == (k - 1) ** 2
            assert SQUARE.count_points(k, edge) == k - 1
            assert SQUARE.count_points(k, [(1, 1)]) == 1
            assert sum(SQUARE.count_points(k, vs)
                       for vs in SQUARE.face_vertex_sets) == (k + 1) ** 2

    def test_frames_are_built_once_per_face(self, monkeypatch):
        # each face's frame and walk plan live on the face and serve every
        # k, so a second round of counts, a new k, or a listing, makes no
        # column reduction and builds no plan
        p = LatticePolytope([(x, y, -x - y, 1) for x, y in
                             [(0, 0), (2, 0), (0, 1), (1, 2)]])
        faces = p.face_vertex_sets
        counts = [p.count_points(k, vs) for k in (1, 2) for vs in faces]
        assert all("_frame" in p.face(vs).__dict__ for vs in faces)
        calls, plans = [], []
        plan = polytope_module._plan
        monkeypatch.setattr(polytope_module, "column_echelon",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(polytope_module, "_plan",
                            lambda *args: plans.append(args) or plan(*args))
        assert counts == [p.count_points(k, vs)
                          for k in (1, 2) for vs in faces]
        opened = sum(p.count_points(5, vs) for vs in faces)
        assert p.count_points(5) == opened
        assert calls == [] and plans == []
        assert opened == len(p.lattice_points(5))
        assert calls == [] and plans == []

    def test_counts_in_an_index_two_image(self):
        # the unit square's image holds the image of its centre, (1, 0, 2)
        p = mapped(INDEX_TWO_MAPS[0])(SQUARE)
        assert p.dim == 2 and p.ambient_dim == 3
        for k in (1, 2, 3):
            assert p.count_points(k) == len(p.lattice_points(k)) \
                == (2 * k + 1) ** 2 - 2 * k * (k + 1)
            assert p.count_points(k, p.vertices) \
                == len(p.interior_lattice_points(k))
        assert (1, 0, 2) in p.lattice_points(1)

    def test_lattice_coordinates(self):
        # below full dimension: an index-two image, a lifted triangle and a
        # saturated image; each facet row is the facet in the coordinates
        for p in (mapped(INDEX_TWO_MAPS[0])(SQUARE),
                  lifted(LatticePolytope([(0, 0), (2, 1), (1, 3)])),
                  mapped(SATURATED_MAP)(CROSS)):
            coords, rows, _ = p._frame
            p0 = p.vertices[0]
            assert p.dim == len(coords[0]) < p.ambient_dim
            assert coords[0] == (0,) * p.dim
            assert len(rows) == len(p.facets)
            for v, y in zip(p.vertices, coords):
                z = [x - o for x, o in zip(v, p0)]
                for (r, s), (a, b) in zip(rows, p.facets):
                    assert dot(r, y) == dot(a, z) and s == b - dot(a, p0)
        # a facet that is not integral on the lattice is refused
        square = LatticePolytope(SQUARE.vertices)
        square.facets = (((Fraction(1, 2), 0), 1),)
        with pytest.raises(InvariantError, match="not integral"):
            square.count_points(1)

    def test_count_points_in_ambient_dimension_zero(self):
        point = LatticePolytope([()])
        assert point.lattice_points(3) == ((),)
        assert point.count_points(3) == point.count_points(3, [()]) == 1

    def test_count_points_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SQUARE.count_points(0)
        with pytest.raises(ValueError, match="not a face"):
            SQUARE.count_points(1, [(0, 0), (1, 1)])

    @pytest.mark.parametrize("k", [0, -3, 2.0, 1.5, "2", None, True])
    def test_bad_dilation_factor_is_refused(self, k, monkeypatch):
        # refused before any walk, whatever the polytope
        monkeypatch.setattr(polytope_module, "_walk", None)
        square = LatticePolytope(SQUARE.vertices)
        for call in (square.count_points, square.lattice_points,
                     lambda k: square.count_points(k, [(0, 0)]),
                     square.interior_lattice_points,
                     square.face([(0, 0), (1, 0)]).interior_lattice_points):
            with pytest.raises(ValueError, match="dilation factor k"):
                call(k)


def assert_listing_matches_the_reference(p, ks=(1, 2, 3), closed=False):
    """Every face of p, read off p, lists its open dilates, and its closed
    ones too when asked, as the brute reference does."""
    for vs in p.face_vertex_sets:
        face = p.face(vs)
        for k in ks:
            want = points_reference(face, k)
            if closed:
                assert face.lattice_points(k) == want, (sorted(vs), k)
            assert face.interior_lattice_points(k) \
                == open_points_reference(face, k, want), (sorted(vs), k)


class TestOpenListing:
    """lattice_points and interior_lattice_points walk the frame and map
    each point back; a brute enumeration of the box is the reference."""

    def test_suite_faces(self, suite):
        for g in suite.values():
            for kind in KINDS:
                rel = build_family(kind, g).relative
                for cx in (rel.complex, homogenize(rel).complex):
                    for cell in cx.maximal_cells:
                        assert_listing_matches_the_reference(cell,
                                                             closed=True)

    def test_images_below_full_dimension(self):
        # index-two images hold lattice points that are not images of
        # lattice points; the saturated image and the lifted triangle do not
        for p in (*(mapped(m)(q) for m, q in zip(INDEX_TWO_MAPS,
                                                 (SQUARE, CUBE))),
                  mapped(SATURATED_MAP)(CROSS),
                  lifted(LatticePolytope([(0, 0), (2, 1), (1, 3)]))):
            assert p.dim < p.ambient_dim
            assert_listing_matches_the_reference(p, ks=(1, 2, 3, 4))
        # the unit square's image holds the image of its centre inside
        p = mapped(INDEX_TWO_MAPS[0])(SQUARE)
        assert p.interior_lattice_points(1) == ((1, 0, 2),)

    def test_vertices_and_ambient_dimension_zero(self):
        # a vertex has an empty basis, and keeps every coordinate
        point = LatticePolytope([()])
        assert point._basis == []
        for k in (1, 2, 3):
            assert point.interior_lattice_points(k) == ((),)
            assert SQUARE.face([(1, 1)]).interior_lattice_points(k) \
                == ((k, k),)
            v = lifted(TRIANGLE).vertices[-1]
            assert lifted(TRIANGLE).face([v]).interior_lattice_points(k) \
                == (tuple(k * x for x in v),)
            assert LatticePolytope([(3, -1, 2)]).interior_lattice_points(k) \
                == ((3 * k, -k, 2 * k),)

    def test_the_basis_is_built_once(self, monkeypatch):
        # the frame and the basis live on the polytope: a second listing,
        # at any k, makes no column reduction and builds no basis
        p = mapped(INDEX_TWO_MAPS[1])(CUBE)
        first = p.interior_lattice_points(2)
        calls = []
        monkeypatch.setattr(polytope_module, "column_echelon",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(polytope_module, "staircase_basis",
                            lambda *args: calls.append(args))
        assert p.interior_lattice_points(2) == first
        assert len(p.interior_lattice_points(3)) \
            == p.count_points(3, p.vertices)
        assert calls == []

    @pytest.mark.parametrize("patch, message", [
        (lambda y: tuple(2 * c for c in y), "leaves a remainder"),
        (lambda y: (0,) * len(y), "misses a pivot row"),
    ], ids=["doubled", "zeroed"])
    def test_a_broken_staircase_is_refused(self, patch, message):
        # a staircase that does not come from a unimodular reduction is
        # caught by the basis, which names the polytope
        square = LatticePolytope(SQUARE.vertices)
        coords, rows, plan = square._frame
        square._frame = (tuple(map(patch, coords)), rows, plan)
        with pytest.raises(InvariantError,
                           match=rf"LatticePolytope\(dim=2.*{message}"):
            square.interior_lattice_points(1)


def brute_walk(rows, box, k, step):
    """Points of k times the box with a.x <= k*s - step, in lex order."""
    return [x for x in itertools.product(
                *(range(k * lo, k * hi + 1) for lo, hi in box))
            if all(dot(a, x) <= k * s - step for a, s in rows)]


@st.composite
def walk_systems(draw):
    n = draw(st.integers(0, 3))
    box = [(lo, lo + draw(st.integers(-1, 3)))
           for lo in draw(st.lists(st.integers(-2, 2), min_size=n,
                                   max_size=n))]
    coeff = st.sampled_from([0, 0, 1, -1, 2, -2, 3])
    rows = draw(st.lists(st.tuples(st.tuples(*[coeff] * n),
                                   st.integers(-3, 4)), max_size=4))
    return rows, box


class TestWalk:
    """_walk over a _plan against enumeration of the whole scaled box."""

    @settings(max_examples=150, deadline=None)
    @given(walk_systems(), st.integers(1, 4), st.integers(0, 1))
    # a zero last, next-to-last or only coefficient
    @example(([((1, 0), 2), ((0, -1), 0), ((-1, 1), 1)], [(0, 3), (-1, 2)]),
             3, 1)
    @example(([((1, 0, 2), 3), ((0, 1, -1), 1), ((0, 0, 1), 1),
               ((1, -1, 0), 0)], [(0, 2), (-1, 1), (0, 2)]), 2, 0)
    @example(([((0,), -1)], [(0, 2)]), 1, 0)
    # an empty box, an infeasible system, no coordinates
    @example(([((1, 1), 2)], [(0, 2), (1, 0)]), 2, 0)
    @example(([((1, 1), -1), ((-1, -1), -1)], [(-2, 2), (-2, 2)]), 2, 1)
    @example(([((), 0)], []), 3, 1)
    @example(([((), 1)], []), 1, 1)
    def test_walk_matches_the_box(self, system, k, step):
        rows, box = system
        want = brute_walk(rows, box, k, step)
        plan = polytope_module._plan(rows, box)
        got = []
        assert polytope_module._walk(plan, k, step, got) == len(got)
        assert got == want
        assert polytope_module._walk(plan, k, step) == len(want)


class TestFromInequalities:
    def unit_box_system(self, n):
        le = []
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            le.append((e, 1))
            le.append((tuple(-v for v in e), 0))
        return LinearSystem(n, le=le)

    def test_square_roundtrip(self):
        p = LatticePolytope.from_inequalities(self.unit_box_system(2), ((0, 1), (0, 1)))
        assert p == SQUARE

    def test_slice(self):
        sys = LinearSystem(2, eq=[((1, 1), 1)],
                           le=[((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
        p = LatticePolytope.from_inequalities(sys, ((0, 1), (0, 1)))
        assert p.vertices == ((0, 1), (1, 0))

    def test_fractional_vertex_rejected(self):
        sys = LinearSystem(2, le=[((2, 2), 1), ((-1, 0), 0), ((0, -1), 0)])
        with pytest.raises(IntegralityError):
            LatticePolytope.from_inequalities(sys, ((0, 1), (0, 1)))

    def test_no_points_rejected(self):
        sys = LinearSystem(1, le=[((3,), 2), ((-3,), -1)])  # 1/3 <= x <= 2/3
        with pytest.raises(IntegralityError):
            LatticePolytope.from_inequalities(sys, ((0, 1),))


class TestPredicates:
    def test_unimodular(self):
        assert simplex_is_unimodular([(0, 0), (1, 0), (0, 1)])
        assert simplex_is_unimodular([(0, 0), (1, 1)])
        assert not simplex_is_unimodular([(0, 0), (2, 0)])
        assert not simplex_is_unimodular(REEVE.vertices)
        # more points than a simplex has
        assert not simplex_is_unimodular([(0, 0), (1, 0), (0, 1), (1, 1)])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=n + 1,
        max_size=n + 1)))
    def test_unimodular_determinant_matches_smith_form(self, pts):
        # the edge rows span the hull lattice exactly when every Smith
        # invariant factor is 1, that is when the gcd of their maximal
        # minors is 1; the minors are Leibniz sums, not eliminations
        rows = [[p - q for p, q in zip(v, pts[0])] for v in pts[1:]]
        assert simplex_is_unimodular(pts) == (minors_gcd(rows, len(rows)) == 1)

    def test_two_level(self):
        assert SQUARE.is_two_level()
        assert CUBE.is_two_level()
        assert TRIANGLE.is_two_level()
        assert not SEGMENT2.is_two_level()
        assert not CROSS.is_two_level()  # diagonal facets jump by 2

    def test_two_level_reads_the_hull_lattice_once(self, monkeypatch):
        # is_two_level and the closed count share one frame, read off the
        # column reduction that construction took for the dimension, so
        # the two together make no further one
        # full-dimensional with 6 facets, and a square in 3-space with 4
        flat = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        polys = [LatticePolytope(CUBE.vertices), LatticePolytope(flat)]
        calls = record_reductions(monkeypatch)
        for p in polys:
            calls.clear()
            assert p.is_two_level()
            assert p.count_points(2) == 3 ** p.dim
            assert calls == [], len(p.facets)

    def test_a_face_makes_one_reduction_for_everything(self, monkeypatch):
        # a face read off a lattice has no hull yet; its dimension, hull
        # equalities, two-level test, counts and listings, closed and open,
        # all read one column reduction of its vertex differences; here
        # the facet x + y + z = 2 of twice the standard simplex, lifted
        p = LatticePolytope([(x, y, z, 1) for x, y, z in
                             [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]])
        top = frozenset(v for v in p.vertices if v[0] + v[1] + v[2] == 2)
        calls = record_reductions(monkeypatch)
        face = p.face(top)
        assert calls == []
        assert face.dim == 2
        assert face.hull_equalities == (((0, 0, 0, 1), 1),
                                        ((1, 1, 1, 0), 2))
        assert not face.is_two_level()
        assert face.count_points(2) == 15
        assert len(face.lattice_points(2)) == 15
        assert len(face.interior_lattice_points(2)) == 3
        assert len(calls) == 1

    def test_empty_polytope(self):
        assert SQUARE.is_empty_polytope()
        assert CUBE.is_empty_polytope()
        assert not SEGMENT2.is_empty_polytope()
        assert not CROSS.is_empty_polytope()  # origin is not a vertex

    def test_reeve_not_normal(self):
        assert REEVE.normality_counterexample() == (2, (1, 1, 1))

    def test_normal_examples(self):
        for p in (SQUARE, CUBE, TRIANGLE, SEGMENT2):
            assert p.normality_counterexample() is None


class TestPulling:
    def test_segment_min_endpoint_keeps_cell(self):
        # the whole segment [0, 2] is a simplex, so pulling from an endpoint
        # never splits it: the recursion returns it whole
        rank = {(0,): 0, (1,): 1, (2,): 2}
        assert SEGMENT2.pull_maximal_simplices(rank) == [((0,), (2,))]

    def test_segment_min_middle_splits(self):
        rank = {(1,): 0, (0,): 1, (2,): 2}
        cells = SEGMENT2.pull_maximal_simplices(rank)
        assert sorted(cells) == [((0,), (1,)), ((1,), (2,))]

    def test_square_two_triangles(self):
        rank = {p: i for i, p in enumerate(SQUARE.lattice_points())}
        cells = SQUARE.pull_maximal_simplices(rank)
        assert len(cells) == 2
        for cell in cells:
            assert (0, 0) in cell  # pulled point sits in every maximal cell
            assert simplex_is_unimodular(cell)

    def test_compressed(self):
        assert SQUARE.is_compressed(order_budget=24)
        assert TRIANGLE.is_compressed(order_budget=6)
        assert CUBE.is_compressed()     # sampled orders
        assert not SEGMENT2.is_compressed(order_budget=6)
        assert not CROSS.is_compressed(order_budget=120)

    def test_pull_restricts_to_faces(self):
        # triangulating a face with the same order matches the restriction
        # of the triangulation of the whole polytope
        rank = {p: i for i, p in enumerate(CUBE.lattice_points())}
        maximal = CUBE.pull_maximal_simplices(rank)
        all_faces = set()
        for cell in maximal:
            for r in range(1, len(cell) + 1):
                all_faces.update(map(frozenset, itertools.combinations(cell, r)))
        for tight in CUBE._facet_vertex_sets:
            facet = CUBE.face(tight)
            sub = facet.pull_maximal_simplices(rank)
            sub_faces = set()
            for cell in sub:
                for r in range(1, len(cell) + 1):
                    sub_faces.update(map(frozenset, itertools.combinations(cell, r)))
            restricted = {f for f in all_faces
                          if all(facet.contains(p) for p in f)}
            assert sub_faces == restricted

    @pytest.mark.parametrize("points", [
        [(0, 0), (2, 0), (0, 2)],
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
        list(itertools.product((0, 1, 2), repeat=3)),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_walk_per_pulling(self, points, reverse, monkeypatch):
        # the faces the recursion visits take their points from the
        # polytope's own list instead of walking their boxes again
        box = sorted(itertools.product(range(3), repeat=len(points[0])),
                     reverse=reverse)
        rank = {p: i for i, p in enumerate(box)}
        walks = []
        walk = polytope_module._walk

        def counting_walk(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(polytope_module, "_walk", counting_walk)
        LatticePolytope(points).pull_maximal_simplices(rank)
        assert len(walks) == 1


def small_polytopes():
    boxes = st.integers(0, 2)
    return st.lists(
        st.tuples(boxes, boxes), min_size=2, max_size=6, unique=True,
    ).map(LatticePolytope)


def small_solids():
    bits = st.integers(0, 1)
    return st.lists(
        st.tuples(bits, bits, bits), min_size=4, max_size=8, unique=True,
    ).map(LatticePolytope)


def lifted(p):
    """p carried into the plane x0 + x1 + x2 = 0 one dimension up, where
    every facet has many integral normals."""
    return LatticePolytope((x, y, -x - y, *rest) for x, y, *rest in p.vertices)


# x -> (x, 2x + 3y, y) maps Z^2 onto the lattice points of its image plane;
# these two have maximal minors with gcd 2, so the image lattice has index 2
SATURATED_MAP = ((1, 0), (2, 3), (0, 1))
INDEX_TWO_MAPS = (((1, 1), (1, -1), (1, 3)),
                  ((1, 1, 0), (1, -1, 0), (0, 0, 2), (1, 0, 1)))


def mapped(matrix):
    """The image of a polytope under the injective integral map x -> M x.

    Where the maximal minors of M have a common factor, the image lattice
    is not saturated: the image polytope holds lattice points that are
    not images of lattice points.
    """
    def image(p):
        return LatticePolytope(tuple(dot(row, v) for row in matrix)
                               for v in p.vertices)
    return image


def reference_is_compressed(p, order_budget, seed):
    """is_compressed by the literal loop: the same orders and draws, one
    fresh pulling per order and a unimodularity test of every cell."""
    if not p.is_empty_polytope():
        return False
    pts = p.lattice_points()
    if math.factorial(len(pts)) <= order_budget:
        orders = itertools.permutations(pts)
    else:
        rng = random.Random(seed)
        orders = [pts]
        for _ in range(order_budget):
            perm = list(pts)
            rng.shuffle(perm)
            orders.append(perm)
    for order in orders:
        rank = {q: i for i, q in enumerate(order)}
        for cell in p.pull_maximal_simplices(rank):
            if not simplex_is_unimodular(cell):
                return False
    return True


def cube_shapes():
    """Full-dimensional 0/1 polytopes of dimension 3 and 4, some carried
    into a hyperplane one dimension up, the same on every run."""
    rng = random.Random(3)
    shapes = []
    for dim, sizes in ((3, range(4, 9)), (4, range(5, 11))):
        cube = list(itertools.product((0, 1), repeat=dim))
        for size in sizes:
            for _ in range(4):
                pts = rng.sample(cube, size)
                while affine_rank(pts) != dim:
                    pts = rng.sample(cube, size)
                shapes.append(LatticePolytope(pts))
    shapes.append(LatticePolytope(itertools.product((0, 1), repeat=4)))
    return shapes + [lifted(p) for p in shapes[::5]]


def non_vertex_shapes():
    """Polytopes with lattice points besides their vertices, or leaving one
    unit cube, the same on every run: twice the unit triangle and simplex,
    the 3 x 3 square, two empty simplices, and images under a map whose
    image lattice has index two."""
    twice = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    shapes = [twice, LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)]),
              LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]),
              LatticePolytope([(0, 0, 0), (2, 1, 0), (1, 1, 0), (0, 0, 1)]),
              LatticePolytope(REEVE.vertices)]
    return shapes + [mapped(INDEX_TWO_MAPS[0])(p)
                     for p in (TRIANGLE, SQUARE, twice)]


def assert_face_is_rebuilt(face, vs):
    """A face read off its parent equals the polytope rebuilt from vs.

    Facet normals may differ: below full dimension they are unique only
    modulo the hull equalities.  So the normals are checked for validity
    and everything derived from them for equality.
    """
    ref = LatticePolytope(vs)
    assert face.vertices == ref.vertices
    assert face.dim == ref.dim
    assert face.hull_equalities == ref.hull_equalities
    assert len(set(face._facet_vertex_sets)) == len(face.facets)
    assert set(face._facet_vertex_sets) == set(ref._facet_vertex_sets)
    assert face.face_vertex_sets == ref.face_vertex_sets
    for k in (1, 2, 3):
        assert face.lattice_points(k) == ref.lattice_points(k), k
    assert face.is_two_level() == ref.is_two_level()
    for (a, b), tight in zip(face.facets, face._facet_vertex_sets):
        values = [dot(a, v) for v in face.vertices]
        assert max(values) <= b
        assert {v for v, x in zip(face.vertices, values) if x == b} == tight


def fields(p):
    return p.vertices, p.facets, p._facet_vertex_sets, p.hull_equalities


SQUARE_WALLS = [((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1)]


class TestSubsetScan:
    @pytest.mark.parametrize("dim, echelons", [
        (3, 27),   # 1 hull, 20 planes and 6 facet rows
        (4, 150),  # 1 hull, 140 hyperplanes, 1 subset that spans none
                   # met before its hyperplanes, and 8 facet rows
    ])
    def test_one_elimination_per_hyperplane(self, dim, echelons,
                                            monkeypatch):
        calls = record_reductions(monkeypatch)
        cube = LatticePolytope(itertools.product((0, 1), repeat=dim))
        assert len(calls) == echelons
        assert len(cube.facets) == 2 * dim

    @pytest.mark.parametrize("axis", range(3))
    def test_hull_equalities_hide_no_subset(self, axis):
        # below full dimension the kernel columns constant on the vertices
        # are hull equalities, tight on every vertex; a scan that took
        # them for hyperplanes would skip every later subset.  Which column
        # the elimination gives first depends on the plane's axis.
        def lift(x, y):
            p = [x, y]
            p.insert(axis, 1)
            return tuple(p)

        square = LatticePolytope(lift(x, y) for x in (0, 1) for y in (0, 1))
        normal = tuple(int(i == axis) for i in range(3))
        assert square.hull_equalities == ((normal, 1),)
        assert sorted(map(sorted, square._facet_vertex_sets)) == sorted(
            [lift(x, y) for x, y in edge] for edge in (
                ((0, 0), (0, 1)), ((0, 0), (1, 0)),
                ((0, 1), (1, 1)), ((1, 0), (1, 1))))


class TestFromCertifiedRows:
    def test_square_matches_the_scan(self):
        got = LatticePolytope.from_certified_rows(SQUARE.vertices, SQUARE_WALLS)
        assert fields(got) == fields(SQUARE)

    def test_slice_matches_the_scan(self):
        # x + y = 1 in the unit square; the equation is tight everywhere,
        # and the slack row x + y <= 3 is tight nowhere
        verts = ((0, 1), (1, 0))
        rows = SQUARE_WALLS + [((1, 1), 1), ((-1, -1), -1), ((1, 1), 3)]
        got = LatticePolytope.from_certified_rows(verts, rows)
        assert fields(got) == fields(LatticePolytope(verts))

    def test_missing_wall_refused(self):
        with pytest.raises(InvariantError, match="fewer than the dimension"):
            LatticePolytope.from_certified_rows(
                SQUARE.vertices, SQUARE_WALLS[:-1])

    def test_tight_set_short_of_a_facet_refused(self):
        # x + y <= 2 touches the square at (1, 1) only, and no other row
        # holds that vertex
        rows = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]
        with pytest.raises(InvariantError, match="spans dimension 0, not 1"):
            LatticePolytope.from_certified_rows(SQUARE.vertices, rows)

    def test_violated_row_refused(self):
        with pytest.raises(InvariantError, match="fails on the vertices"):
            LatticePolytope.from_certified_rows(
                SQUARE.vertices, SQUARE_WALLS + [((1, 1), 1)])

    @pytest.mark.parametrize("verts", [(), ((1, 0), (0, 1)),
                                       ((0, 0), (0, 0), (1, 0))])
    def test_unsorted_or_repeated_vertices_refused(self, verts):
        with pytest.raises(ValueError, match="sorted distinct"):
            LatticePolytope.from_certified_rows(verts, SQUARE_WALLS)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_polytopes(), small_solids(),
                     small_polytopes().map(lifted),
                     small_solids().map(lifted),
                     small_polytopes().map(mapped(SATURATED_MAP))),
           st.integers(-2, 2))
    def test_any_normal_of_each_facet_gives_the_scan(self, p, shift):
        # each facet row moved by a multiple of a hull equality is another
        # normal of the same facet; the result must not depend on which
        rows = list(p.facets) * 2
        for h, c in p.hull_equalities[:1]:
            rows = [(tuple(x + shift * y for x, y in zip(a, h)), b + shift * c)
                    for a, b in rows]
        got = LatticePolytope.from_certified_rows(p.vertices, rows)
        assert fields(got) == fields(p)


class TestTrustedFaces:
    # Each polytope is one of its own faces, so these also check that every
    # facet is listed once.  The tension and modtension cells of K3_pendant
    # are 3-dimensional in R^4, like the lifted solids, with quadrilateral
    # facets reached by several normals.

    def test_suite_cell_faces_match_rebuild(self, suite):
        for name, g in suite.items():
            for kind in KINDS:
                cells = build_family(kind, g).relative.complex.maximal_cells
                for cell in cells:
                    for vs in cell.face_vertex_sets:
                        assert_face_is_rebuilt(cell.face(vs), vs)

    def test_suite_faces_keep_their_owners_rows(self, suite):
        # a face read off its owner has the vertices, hull and facet sets
        # of the polytope rebuilt from its vertices, while its facet rows
        # are its owner's, each valid on the face and tight on its own set
        for name, g in suite.items():
            for kind in KINDS:
                cx = build_family(kind, g).relative.complex
                for vs, owner in cx.all_faces.items():
                    face, ref = owner.face(vs), LatticePolytope(vs)
                    assert face.vertices == ref.vertices
                    assert face.dim == ref.dim
                    assert face.hull_equalities == ref.hull_equalities
                    assert set(face._facet_vertex_sets) \
                        == set(ref._facet_vertex_sets)
                    for row, tight in zip(face.facets,
                                          face._facet_vertex_sets):
                        assert row in owner.facets
                        a, b = row
                        values = [dot(a, v) for v in face.vertices]
                        assert max(values) == b
                        assert {v for v, x in zip(face.vertices, values)
                                if x == b} == tight

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_polytopes(), small_polytopes().map(lifted),
                     small_solids().map(lifted)))
    def test_faces_match_rebuild(self, p):
        for vs in p.face_vertex_sets:
            face = p.face(vs)
            assert_face_is_rebuilt(face, vs)
            # a face of a face is read off the face, not off p
            for ws in face.face_vertex_sets:
                sub, ref = face.face(ws), p.face(ws)
                assert sub.vertices == ref.vertices
                assert sub.hull_equalities == ref.hull_equalities
                assert set(sub._facet_vertex_sets) \
                    == set(ref._facet_vertex_sets)


def facet_intersections(p):
    """Every nonempty intersection of the vertex set with some of the facet
    sets, listed subset by subset: the faces, by definition."""
    facets = p._facet_vertex_sets
    out = set()
    for r in range(len(facets) + 1):
        for chosen in itertools.combinations(facets, r):
            meet = frozenset(p.vertices).intersection(*chosen)
            if meet:
                out.add(meet)
    return out


def closure_shapes():
    return st.one_of(
        small_polytopes(), small_solids(),
        small_polytopes().map(lifted), small_solids().map(lifted),
        small_polytopes().map(mapped(SATURATED_MAP)),
        small_polytopes().map(mapped(INDEX_TWO_MAPS[0])),
        small_solids().map(mapped(INDEX_TWO_MAPS[1])))


class TestFaceClosure:
    """face_vertex_sets closes the vertex set under the facet sets one facet
    at a time (`_faces_below`); the pulling memo closes masks the same way."""

    @settings(max_examples=80, deadline=None)
    @given(closure_shapes())
    def test_every_facet_intersection(self, p):
        assert p.face_vertex_sets == facet_intersections(p)

    @pytest.mark.parametrize("points, faces", [
        (list(itertools.product((0, 1), repeat=4)), 81),  # 3^4
        ([(0,) * 5] + [tuple(int(i == j) for i in range(5))
                       for j in range(5)], 63),  # 2^6 - 1
        ([(3, -1)], 1),
    ], ids=["4-cube", "unimodular 5-simplex", "point"])
    def test_face_counts(self, points, faces):
        p = LatticePolytope(points)
        assert len(p.face_vertex_sets) == faces
        assert p.face_vertex_sets == facet_intersections(p)

    @settings(max_examples=60, deadline=None)
    @given(closure_shapes(), st.randoms(use_true_random=False))
    def test_masks_follow_the_vertex_sets(self, p, rng):
        order = list(p.vertices)
        rng.shuffle(order)
        bit = {v: 1 << i for i, v in enumerate(order)}

        def mask(vs):
            return sum(bit[v] for v in vs)
        got = _faces_below(mask(p.vertices),
                           [mask(t) for t in p._facet_vertex_sets])
        assert got == set(map(mask, p.face_vertex_sets))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_a_bare_simplex_has_every_nonempty_sub_mask(self, n):
        top = (1 << n) - 1
        facets = [top ^ (1 << i) for i in range(n)] if n > 1 else []
        assert _faces_below(top, facets) == set(range(1, top + 1))

    def test_frozensets_and_no_facets(self):
        top = frozenset("abc")
        assert _faces_below(top, []) == {top}
        assert _faces_below(top, [frozenset("ab"), frozenset("c")]) \
            == {top, frozenset("ab"), frozenset("c")}


class TestLazyHull:
    def test_face_makes_no_elimination_until_its_hull_is_read(
            self, monkeypatch):
        # dim and hull_equalities are taken by one elimination on first
        # read; a face read off the face lattice makes none until then
        p = LatticePolytope(CUBE.vertices)
        calls = record_reductions(monkeypatch)
        faces = [p.face(vs) for vs in sorted(p.face_vertex_sets, key=sorted)]
        for f in faces:
            f.face_vertex_sets, f.bounding_box, f.lattice_points(1)
            for vs in f.face_vertex_sets:
                f.face(vs)
        assert calls == []
        for f in faces:
            f.dim, f.hull_equalities, f.dim
        # the cube is its own face, its hull taken when it was built
        assert len(calls) == len(faces) - 1


class TestPullingOnce:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_polytopes(), small_solids(),
                     small_polytopes().map(lifted),
                     small_solids().map(lifted),
                     small_polytopes().map(mapped(SATURATED_MAP)),
                     small_polytopes().map(mapped(INDEX_TWO_MAPS[0]))),
           st.integers(-1, 0), st.integers(0, 5))
    def test_is_compressed_matches_the_literal_loop(self, p, past, seed):
        # the budget sits at n! (every order) or one below it (the lex
        # order and n! - 1 shuffles), or is small where n! is too large
        n = len(p.lattice_points())
        budget = math.factorial(n) + past if n <= 5 else 10 + past
        assert p.is_compressed(budget, seed) \
            == reference_is_compressed(p, budget, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_polytopes(), small_solids(),
                     small_solids().map(lifted)),
           st.randoms(use_true_random=False))
    def test_a_shared_memo_gives_the_fresh_cells(self, p, rng):
        # a memo kept across orders hands a face's pulling to every order
        # that restricts to the same order on its points, and only to those
        memo, pts = {}, list(p.lattice_points())
        for _ in range(5):
            rng.shuffle(pts)
            rank = {q: i for i, q in enumerate(pts)}
            fresh = LatticePolytope(p.vertices).pull_maximal_simplices(rank)
            assert sorted(p.pull_maximal_simplices(rank, memo)) \
                == sorted(fresh)

    def test_cube_shapes_are_pinned(self):
        # facets, compressedness under sampled orders and the pulled cells
        # of 0/1 polytopes, hashed; pinned when every face was pulled
        # afresh under every order, every simplex tested each time it
        # appeared and the scan took one elimination per subset
        rows = []
        for i, p in enumerate(cube_shapes()):
            pts, rng = list(p.lattice_points()), random.Random(i)
            orders = [rng.sample(pts, len(pts)) for _ in range(3)]
            rows.append((p.vertices, p.facets,
                         [sorted(t) for t in p._facet_vertex_sets],
                         p.hull_equalities,
                         p.is_compressed(order_budget=20, seed=i),
                         [sorted(p.pull_maximal_simplices(
                             {q: j for j, q in enumerate(order)}))
                          for order in orders]))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "e4162ed7cd8e52f8ffd5222091e9c54c56fcdb6fb394bbb7825f394bd905773e")

    def test_non_vertex_points_are_pinned(self):
        # the pulled cells under seeded orders and the sampled verdicts of
        # polytopes with lattice points besides their vertices or outside
        # one unit cube, hashed; pinned when pulling recursed through built
        # face polytopes.  Neither pulling nor the verdict builds a face.
        rows = []
        for i, p in enumerate(non_vertex_shapes()):
            pts, rng = list(p.lattice_points()), random.Random(i)
            orders = [rng.sample(pts, len(pts)) for _ in range(3)]
            rows.append((p.vertices, len(pts),
                         p.is_compressed(order_budget=20, seed=i),
                         [sorted(p.pull_maximal_simplices(
                             {q: j for j, q in enumerate(order)}))
                          for order in orders]))
            assert p._face_cache == {}
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "3b0aec770d5c017e63cfad56ceeaf500e394bf6d23e485f8c105c7748ce41111")

    def test_is_compressed_lists_the_points_once(self, monkeypatch):
        # an empty polytope outside one unit cube, under all 24 orders
        p = LatticePolytope([(0, 0, 0), (2, 1, 0), (1, 1, 0), (0, 0, 1)])
        walks = []
        walk = polytope_module._walk

        def counting_walk(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(polytope_module, "_walk", counting_walk)
        assert p.is_compressed()
        assert len(walks) == 1

    @pytest.mark.parametrize("n, budget, seed", [
        (3, 6, 0), (3, 5, 2), (4, 10, 1), (5, 50, 0), (6, 0, 3)])
    def test_orders_follow_the_eager_sequence(self, n, budget, seed):
        if math.factorial(n) <= budget:
            want = list(itertools.permutations(range(n)))
        else:
            rng = random.Random(seed)
            want = [tuple(range(n))]
            for _ in range(budget):
                perm = list(range(n))
                rng.shuffle(perm)
                want.append(tuple(perm))
        got = polytope_module._orders(n, budget, seed)
        assert list(map(tuple, got)) == want

    def test_a_failed_order_draws_no_more(self, monkeypatch):
        # Reeve's tetrahedron is an empty simplex, not unimodular, so the
        # lex order already fails and no shuffle is drawn
        drawn, orders = [], polytope_module._orders

        def counting_orders(*args):
            for order in orders(*args):
                drawn.append(order)
                yield order

        monkeypatch.setattr(polytope_module, "_orders", counting_orders)
        assert not LatticePolytope(REEVE.vertices).is_compressed(10)
        assert len(drawn) == 1


class TestRandomized:
    @settings(max_examples=60, deadline=None)
    @given(small_polytopes())
    def test_facets_support(self, p):
        for v in p.vertices:
            assert p.contains(v)
        for a, b in p.facets:
            assert any(sum(c * x for c, x in zip(a, v)) == b for v in p.vertices)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_polytopes(), small_solids(),
                     small_polytopes().map(lifted),
                     small_solids().map(lifted)))
    def test_rows_cut_out_the_polytope(self, p):
        # the scan's facets and hull equalities, as a system over p's box,
        # must cut out p: exact LP bounds every facet of the region's
        # lattice hull, so a missing, loose or violated facet shows
        system = LinearSystem(p.ambient_dim, eq=p.hull_equalities,
                              le=p.facets)
        got = LatticePolytope.from_inequalities(system, p.bounding_box)
        assert fields(got) == fields(p)

    @settings(max_examples=30, deadline=None)
    @given(small_polytopes(), st.integers(1, 2))
    def test_points_match_hull_membership(self, p, k):
        listed = set(p.lattice_points(k))
        lo = [k * b[0] for b in p.bounding_box]
        hi = [k * b[1] for b in p.bounding_box]
        for cand in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            assert (cand in listed) == in_hull(cand, p.vertices, k)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        small_polytopes(), small_solids().map(lifted),
        small_polytopes().map(mapped(SATURATED_MAP)),
        small_polytopes().map(mapped(INDEX_TWO_MAPS[0])),
        small_solids().map(mapped(INDEX_TWO_MAPS[1]))))
    def test_count_points_matches_listed_points(self, p):
        # lower-dimensional polytopes are counted in their own lattice
        # coordinates, and every face, vertices included, in its own; the
        # brute enumeration of the box is the reference
        for k in (1, 2, 3):
            assert p.count_points(k) == len(points_reference(p, k)), k
            for vs in p.face_vertex_sets:
                want = open_points_reference(LatticePolytope(vs), k)
                assert p.count_points(k, vs) == len(want), (sorted(vs), k)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        small_polytopes(), small_solids().map(lifted),
        small_polytopes().map(mapped(SATURATED_MAP)),
        small_polytopes().map(mapped(INDEX_TWO_MAPS[0])),
        small_solids().map(mapped(INDEX_TWO_MAPS[1]))))
    def test_open_listing_matches_the_filter(self, p):
        # every face, vertices included, read off p and rebuilt
        for vs in p.face_vertex_sets:
            for face in (p.face(vs), LatticePolytope(vs)):
                for k in (1, 2, 3):
                    assert face.interior_lattice_points(k) \
                        == open_points_reference(face, k), (sorted(vs), k)

    @settings(max_examples=60, deadline=None)
    @given(small_polytopes())
    def test_two_level_matches_compressed(self, p):
        # two-level is read in the frame, so it must not move when p is
        # carried onto the lattice points of a plane in 3-space; with at
        # most 5 lattice points every pulling order is tried, and two-level
        # is compressed (Sullivant 2006)
        two = p.is_two_level()
        assert lifted(p).is_two_level() == two
        assert mapped(SATURATED_MAP)(p).is_two_level() == two
        if len(p.lattice_points()) <= 5:
            assert p.is_compressed(order_budget=120) == two

    @settings(max_examples=40, deadline=None)
    @given(small_polytopes(), st.randoms(use_true_random=False))
    def test_pull_covers_disjointly(self, p, rng):
        order = list(p.lattice_points())
        rng.shuffle(order)
        rank = {pt: i for i, pt in enumerate(order)}
        maximal = p.pull_maximal_simplices(rank)
        v = min(p.lattice_points(), key=rank.__getitem__)
        faces = set()
        for cell in maximal:
            assert v in cell
            assert affine_rank(cell) == len(cell) - 1 == p.dim
            for r in range(1, len(cell) + 1):
                faces.update(map(frozenset, itertools.combinations(cell, r)))
        # open faces tile the polytope: relative interior counts add up
        for k in (1, 2):
            total = 0
            for f in faces:
                total += len(LatticePolytope(f).interior_lattice_points(k))
            assert total == len(p.lattice_points(k))


class TestRefusals:
    @pytest.mark.parametrize("build, message", [
        (lambda: LatticePolytope([]),
         r"^a lattice polytope needs at least one point$"),
        (lambda: LatticePolytope([(0, 0), (1,)]),
         r"^points live in different ambient spaces$"),
        (lambda: LatticePolytope.from_inequalities(
            LinearSystem(1, le=[((1,), 1)], lt=[((-1,), 0)]), [(0, 1)]),
         r"^from_inequalities expects a closed system$"),
        (lambda: LatticePolytope.from_inequalities(
            LinearSystem(1, le=[((1,), 1), ((-1,), 0)]), [(0, 1), (0, 1)]),
         r"^box arity mismatch$"),
    ], ids=["no points", "mixed points", "open system", "box"])
    def test_bad_input(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
