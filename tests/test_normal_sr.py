"""Term orders, homogenization, and witnessed monomial counting."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ehrhil import normal_sr
from ehrhil.complexes import PolytopalComplex, RelativeComplex
from ehrhil.constructions import KINDS, build_family, oracle
from ehrhil.exact import InvariantError, dot
from ehrhil.graphs import SUITE, complete_graph
from ehrhil.normal_sr import (
    GREVLEX,
    GRLEX,
    NormalityError,
    PointVariableTable,
    TermOrder,
    hilbert_normal,
    homogenize,
    minimal_representatives,
    polytopal_sr_membership,
)
from ehrhil.polytope import LatticePolytope
from ehrhil.srideal import realize_polynomial
from test_graphs import graphs

DEGREE2 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def segment_pair():
    seg = LatticePolytope([(0,), (2,)])
    cx = PolytopalComplex.generated_by([seg])
    ends = cx.faces_in_hyperplanes([((1,), 0), ((1,), 2)])
    return homogenize(RelativeComplex(cx, ends))


def open_square_pair():
    sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    cx = PolytopalComplex.generated_by([sq])
    sub = cx.faces_in_hyperplanes(
        [((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((0, 1), 1)])
    return homogenize(RelativeComplex(cx, sub))


class TestTermOrder:
    def test_grlex_degree_two(self):
        assert sorted(DEGREE2, key=GRLEX.key) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_grevlex_degree_two(self):
        assert sorted(DEGREE2, key=GREVLEX.key) == [
            (0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]

    def test_degree_dominates(self):
        for order in (GRLEX, GREVLEX):
            assert order.key((0, 0, 1)) < order.key((2, 0, 0))
            assert order.key((0, 0, 0)) < order.key((1, 0, 0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TermOrder("lex")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=2,
                    max_size=2, unique=True),
           st.tuples(*[st.integers(0, 3)] * 3))
    def test_total_and_translation_invariant(self, pair, shift):
        a, b = pair
        for order in (GRLEX, GREVLEX):
            assert order.key(a) != order.key(b)
            if order.key(a) < order.key(b):
                moved_a = tuple(x + s for x, s in zip(a, shift))
                moved_b = tuple(x + s for x, s in zip(b, shift))
                assert order.key(moved_a) < order.key(moved_b)


class TestHomogenize:
    def test_lifts_to_height_one(self):
        rel = segment_pair()
        assert rel.complex.ambient_dim == 2
        assert all(v[-1] == 1
                   for c in rel.complex.maximal_cells for v in c.vertices)

    def test_counts_preserved(self):
        sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        cx = PolytopalComplex.generated_by([sq])
        rel = RelativeComplex(cx, cx.faces_in_hyperplanes([((1, 0), 0)]))
        lifted = homogenize(rel)
        for k in (1, 2, 3):
            assert lifted.count_points(k) == rel.count_points(k)

    def test_table_requires_height_one(self):
        sq = PolytopalComplex.generated_by(
            [LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])])
        with pytest.raises(ValueError, match="homogenized"):
            PointVariableTable.from_complex(sq)


class TestMembership:
    def test_support_inside_one_cell(self):
        rel = open_square_pair()
        table = PointVariableTable.from_complex(rel.complex)
        a = [0] * len(table)
        a[0] = 2
        a[1] = 1
        assert not polytopal_sr_membership(table, a, rel.complex)

    def test_split_support_is_in_ideal(self):
        left = LatticePolytope([(0, 0), (1, 0)])
        right = LatticePolytope([(2, 0), (3, 0)])
        cx = homogenize(RelativeComplex(
            PolytopalComplex.generated_by([left, right]),
            PolytopalComplex([], ambient_dim=2))).complex
        table = PointVariableTable.from_complex(cx)
        a = [1 if p in ((0, 0, 1), (3, 0, 1)) else 0 for p in table.points]
        assert polytopal_sr_membership(table, a, cx)


class TestSegmentCounts:
    def test_counts(self):
        rel = segment_pair()
        assert hilbert_normal(rel, 1) == 1
        assert hilbert_normal(rel, 2) == 3
        assert [hilbert_normal(rel, k) for k in (1, 2, 3, 4)] == [1, 3, 5, 7]

    def test_pinned_witnesses(self):
        rel = segment_pair()
        # table is ((0,1), (1,1), (2,1)); the point (2,2) has two
        # representations and the two orders pick opposite ones
        assert minimal_representatives(rel, 2, GREVLEX)[(2, 2)] == (1, 0, 1)
        assert minimal_representatives(rel, 2, GRLEX)[(2, 2)] == (0, 2, 0)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            hilbert_normal(segment_pair(), 0)

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, "2"])
    def test_bad_dilation_factor_is_refused(self, k, monkeypatch):
        # refused before the point table and the normality search, even
        # where there is nothing to search
        def searched(cx):
            raise AssertionError("the normality search ran")

        monkeypatch.setattr(normal_sr, "_require_normal_faces", searched)
        empty = PolytopalComplex([], ambient_dim=2)
        k3 = homogenize(build_family("chromatic", complete_graph(3)).relative)
        for rel in (RelativeComplex(empty, empty), k3):
            with pytest.raises(ValueError, match="dilation factor k"):
                minimal_representatives(rel, k)


def _all_representations(rel, table, z, k):
    """Every admissible degree-k exponent vector for z, by brute force."""
    reps = set()
    sub_cells = rel.sub.maximal_cells
    for cell in rel.complex.maximal_cells:
        pts = sorted(cell.lattice_points())

        def grow(i, rem, acc):
            if i == len(pts):
                if all(x == 0 for x in rem):
                    reps.add(tuple(acc))
                return
            for e in range(rem[-1] + 1):
                grow(i + 1, tuple(r - e * c for r, c in zip(rem, pts[i])),
                     acc + [(pts[i], e)])

        grow(0, tuple(z), [])
    out = set()
    for rep in reps:
        supp = [p for p, e in rep if e]
        if any(all(c.contains(p) for p in supp) for c in sub_cells):
            continue
        vec = [0] * len(table)
        for p, e in rep:
            if e:
                vec[table.points.index(p)] = e
        out.add(tuple(vec))
    return out


SUITE_PAIRS = [("K3", "chromatic"), ("theta", "flow"), ("C4", "modtension")]


def suite_pair(name, kind):
    return homogenize(build_family(kind, SUITE[name]).relative)


class TestWitnesses:
    @pytest.mark.parametrize("order", [GRLEX, GREVLEX])
    def test_witnesses_are_minimal(self, order):
        for rel in (segment_pair(), open_square_pair()):
            table = PointVariableTable.from_complex(rel.complex)
            for k in (1, 2, 3):
                found = minimal_representatives(rel, k, order)
                assert len(found) == rel.count_points(k)
                for z, vec in found.items():
                    assert sum(vec) == k
                    assert tuple(
                        sum(e * p[c] for e, p in zip(vec, table.points))
                        for c in range(rel.complex.ambient_dim)) == z
                    assert not polytopal_sr_membership(table, vec,
                                                       rel.complex)
                    everything = _all_representations(rel, table, z, k)
                    assert vec in everything
                    assert vec == min(everything, key=order.key)

    @pytest.mark.parametrize("order", [GRLEX, GREVLEX],
                             ids=lambda o: o.kind)
    @pytest.mark.parametrize("name, kind", SUITE_PAIRS)
    def test_witnesses_are_the_brute_force_minimum(self, name, kind, order):
        rel = suite_pair(name, kind)
        table = PointVariableTable.from_complex(rel.complex)
        for k in (1, 2):
            found = minimal_representatives(rel, k, order)
            assert len(found) == rel.count_points(k)
            for z, vec in found.items():
                everything = _all_representations(rel, table, z, k)
                assert vec == min(everything, key=order.key), (z, k)

    @pytest.mark.parametrize("name, kind", SUITE_PAIRS)
    def test_no_lp_is_solved(self, name, kind, monkeypatch):
        rel = suite_pair(name, kind)

        def solved(system):
            raise AssertionError("the witness search solved an LP")

        monkeypatch.setattr(normal_sr, "lp_feasible", solved)
        for k in (1, 2, 3):
            for order in (GRLEX, GREVLEX):
                found = minimal_representatives(rel, k, order)
                assert len(found) == rel.count_points(k)

    def test_point_table_is_listed_once_per_complex(self, monkeypatch):
        # the table's points are cached on the complex, so a second search
        # on the same pair lists no cell's points for it
        rel = suite_pair("C4", "tension")
        listed = []
        union = PolytopalComplex.lattice_points

        def counting(cx, k=1):
            listed.append(k)
            return union(cx, k)

        monkeypatch.setattr(PolytopalComplex, "lattice_points", counting)
        first = minimal_representatives(rel, 2)
        assert listed == [1]
        assert minimal_representatives(rel, 2) == first
        assert listed == [1]


def brute_sums(points, k, dim):
    """Every sum of at most k of the points in Z^dim, repeats allowed."""
    return {tuple(map(sum, zip((0,) * dim, *pick)))
            for d in range(k + 1)
            for pick in itertools.combinations_with_replacement(points, d)}


@st.composite
def lifted_cube_subsets(draw):
    """Lattice points of a 0/1 polytope of dimension <= 3, at height one."""
    dim = draw(st.integers(1, 3))
    cube = list(itertools.product((0, 1), repeat=dim))
    verts = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=6,
                          unique=True))
    return sorted(LatticePolytope([(*v, 1) for v in verts]).lattice_points())


class TestSuffixSums:
    @settings(max_examples=40, deadline=None)
    @given(lifted_cube_subsets(), st.integers(1, 3), st.booleans())
    def test_matches_integer_reachability(self, points, k, backwards):
        seq = points[::-1] if backwards else points
        reach = normal_sr._suffix_sums(seq, k)
        for i in range(len(seq) + 1):
            assert {s for s, last in reach.items() if last >= i} == \
                brute_sums(seq[i:], k, len(seq[0])), i
        for s, last in reach.items():
            # a sum of seq[last:] is a sum of seq[i:] for every i <= last
            assert normal_sr._representation_feasible(seq[last:], s), s

    def test_sharper_than_the_rational_relaxation(self):
        # (1, 1) is half of each end of [0, 2] at height one, but no sum
        seq = [(0, 1), (2, 1)]
        assert normal_sr._representation_feasible(seq, (1, 1))
        assert (1, 1) not in normal_sr._suffix_sums(seq, 2)
        assert normal_sr._suffix_sums(seq, 2) == {
            (0, 0): 2, (2, 1): 1, (4, 2): 1, (0, 1): 0, (2, 2): 0, (0, 2): 0}


class TestAgainstGeometry:
    def test_matches_relative_counts(self):
        chromatic = build_family("chromatic", complete_graph(2)).relative
        cases = [segment_pair(), open_square_pair(), homogenize(chromatic)]
        for rel in cases:
            for k in (1, 2, 3, 4):
                expect = rel.count_points(k)
                assert hilbert_normal(rel, k, GREVLEX) == expect
                assert hilbert_normal(rel, k, GRLEX) == expect

    def test_chromatic_matches_oracle(self):
        g = complete_graph(2)
        lifted = homogenize(build_family("chromatic", g).relative)
        for k in (1, 2, 3, 4):
            assert hilbert_normal(lifted, k) == oracle("chromatic", g, k)


def listed_witnesses(rel, k, order):
    """The witnesses the long way: every point of k*C not in k*C', each
    searched in the face minimal_face_at finds around it."""
    table = PointVariableTable.from_complex(rel.complex)
    out = {}
    for z in sorted(rel.complex.lattice_points(k) - rel.sub.lattice_points(k)):
        face = rel.complex.minimal_face_at(z, k)
        seq = sorted(face.lattice_points(), reverse=order.kind != "grlex")
        sol = normal_sr._minimal_representation(
            seq, normal_sr._suffix_sums(seq, k), z, order)
        vec = [0] * len(table)
        for p, e in sol.items():
            vec[table.points.index(p)] = e
        out[z] = tuple(vec)
    return out


OPEN_FACE_PAIRS = [
    pytest.param(functools.partial(suite_pair, name, kind),
                 id=f"{name}-{kind}")
    for name, kind in SUITE_PAIRS + [("C4", "tension")]] + [
    pytest.param(lambda: homogenize(realize_polynomial((0, 1, 2))),
                 id="realized")]


class TestOpenFaceWalk:
    """The witness search walks the pair's open faces; listing the points
    and finding each one's face is the reference."""

    @pytest.mark.parametrize("order", [GRLEX, GREVLEX], ids=lambda o: o.kind)
    @pytest.mark.parametrize("make", OPEN_FACE_PAIRS)
    def test_matches_the_listed_points(self, make, order):
        rel = make()
        for k in (1, 2, 3):
            found = minimal_representatives(rel, k, order)
            want = listed_witnesses(rel, k, order)
            assert list(found.items()) == list(want.items()), k

    def test_no_point_is_listed_or_located(self, monkeypatch):
        # the variable table lists the points of C once, at k = 1; C' here
        # holds an open boundary, so faces of C are dropped
        rel = homogenize(realize_polynomial((0, 1, 2)))
        assert not rel.sub.is_empty
        want = {(k, order.kind): listed_witnesses(rel, k, order)
                for k in (1, 2, 3) for order in (GRLEX, GREVLEX)}
        assert [len(want[k, "grlex"]) for k in (1, 2, 3)] == [0, 1, 4]
        listed = PolytopalComplex.lattice_points

        def only_at_one(self, k=1):
            if k != 1:
                raise AssertionError(f"the complex was listed at k = {k}")
            return listed(self, k)

        def located(self, z, k):
            raise AssertionError("minimal_face_at was called")

        monkeypatch.setattr(PolytopalComplex, "lattice_points", only_at_one)
        monkeypatch.setattr(PolytopalComplex, "minimal_face_at", located)
        for (k, kind), witnesses in want.items():
            assert minimal_representatives(rel, k, TermOrder(kind)) \
                == witnesses


class TestDrawnMultigraphs:
    """Loops, parallel edges and components, in every kind, homogenized."""

    @settings(max_examples=15, deadline=None)
    @given(graphs(max_edges=3))
    def test_matches_the_listed_points(self, g):
        for kind in KINDS:
            rel = homogenize(build_family(kind, g).relative)
            for k in (1, 2):
                for order in (GRLEX, GREVLEX):
                    found = minimal_representatives(rel, k, order)
                    want = listed_witnesses(rel, k, order)
                    assert list(found.items()) == list(want.items()), \
                        (kind, k, order.kind)


class TestMinimalFace:
    @pytest.mark.parametrize("name, kind", [
        ("K3", "chromatic"), ("theta", "flow"), ("C4", "modtension"),
        ("C4", "tension")])
    def test_target_lies_in_the_relative_interior(self, name, kind, suite):
        # the face containing z/k in its relative interior is unique, so
        # this pins minimal_face_at without forming a rational point
        rel = homogenize(build_family(kind, suite[name]).relative)
        seen = 0
        for k in (1, 2, 3):
            targets = rel.complex.lattice_points(k) - rel.sub.lattice_points(k)
            seen += len(targets)
            for z in targets:
                face = rel.complex.minimal_face_at(z, k)
                assert face.contains(z, k), (z, k)
                assert all(dot(a, z) < k * b for a, b in face.facets), (z, k)
        assert seen

    def test_outside_point(self):
        rel = segment_pair()
        assert rel.complex.minimal_face_at((3, 1), 1) is None
        assert rel.complex.minimal_face_at((2, 1), 1).vertices == ((2, 1),)


class TestNormalityRejection:
    def test_reeve_simplex_rejected(self):
        reeve = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        assert reeve.normality_counterexample() == (2, (1, 1, 1))
        cx = PolytopalComplex.generated_by([reeve])
        rel = homogenize(RelativeComplex(cx, PolytopalComplex(
            [], ambient_dim=3)))
        with pytest.raises(NormalityError):
            hilbert_normal(rel, 2)

    def test_verdict_is_cached_on_the_polytope(self, monkeypatch):
        reeve = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        first = reeve.normality_counterexample()

        def listed(self, k=1):
            raise AssertionError("the normality search ran again")

        monkeypatch.setattr(LatticePolytope, "lattice_points", listed)
        assert reeve.normality_counterexample() is first

    def test_empty_complex(self):
        empty = PolytopalComplex([], ambient_dim=2)
        assert hilbert_normal(RelativeComplex(empty, empty), 3) == 0


class TestRefusals:
    @pytest.mark.parametrize("pair", [segment_pair, open_square_pair])
    def test_a_target_off_its_height(self, pair, monkeypatch):
        # every target of a homogenized pair lies at height k; one lifted
        # a level up is refused before any search
        inner = LatticePolytope.interior_lattice_points
        monkeypatch.setattr(
            LatticePolytope, "interior_lattice_points",
            lambda p, k=1: tuple((*z[:-1], z[-1] + 1) for z in inner(p, k)))
        with pytest.raises(InvariantError, match=r"\) is not at height 2$"):
            minimal_representatives(pair(), 2)
