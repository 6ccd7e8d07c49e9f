"""JSON round trips and input validation."""

from fractions import Fraction

import pytest

from ehrhil import complexes
from ehrhil.constructions import build_family
from ehrhil.graphs import Graph, complete_graph
from ehrhil.io import (
    InputError,
    complex_from_json,
    complex_to_json,
    graph_from_json,
    graph_to_json,
    polynomial_to_json,
    polytope_from_json,
    read_json_file,
)
from ehrhil.polynomials import BinomialPolynomial, interpolate
from ehrhil.srideal import realize_polynomial


class TestGraphJson:
    def test_round_trip(self):
        g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("b", "b")))
        assert graph_from_json(graph_to_json(g)) == g

    def test_document_shape(self):
        doc = graph_to_json(Graph(("u", "v"), (("u", "v"),)))
        assert doc == {"vertices": ["u", "v"],
                       "edges": [{"tail": "u", "head": "v"}]}

    @pytest.mark.parametrize("data", [
        [],
        {"vertices": ["a"]},
        {"vertices": "ab", "edges": []},
        {"vertices": ["a"], "edges": [["a", "a"]]},
        {"vertices": ["a"], "edges": [{"tail": "a"}]},
        {"vertices": ["a"], "edges": [{"tail": "a", "head": "z"}]},
        {"vertices": ["a", "a"], "edges": []},
        {"vertices": ["a", "b"], "edges": [{"tail": ["a"], "head": "b"}]},
        {"vertices": ["a", "b"], "edges": [{"tail": "a", "head": {"v": "b"}}]},
    ])
    def test_rejects(self, data):
        with pytest.raises(InputError):
            graph_from_json(data)


class TestPolytopeJson:
    def test_round_trip(self):
        doc = {"ambient_dim": 2, "vertices": [[0, 2], [2, 0], [0, 0], [1, 1]]}
        q = polytope_from_json(doc)
        assert [list(v) for v in q.vertices] == [[0, 0], [0, 2], [2, 0]]

    @pytest.mark.parametrize("data", [
        {"ambient_dim": 2},
        {"ambient_dim": -1, "vertices": [[0]]},
        {"ambient_dim": 2, "vertices": []},
        {"ambient_dim": 2, "vertices": [[0, 0, 0]]},
        {"ambient_dim": 1, "vertices": [[True]]},
        {"ambient_dim": 1, "vertices": [["0"]]},
        {"ambient_dim": True, "vertices": [[0], [1]]},
    ])
    def test_rejects(self, data):
        with pytest.raises(InputError):
            polytope_from_json(data)


class TestComplexJson:
    def test_round_trip_counts(self):
        rel = build_family("chromatic", complete_graph(2)).relative
        loaded = complex_from_json(complex_to_json(rel))
        for k in (1, 2, 3, 4):
            assert loaded.count_points(k) == rel.count_points(k)

    def test_round_trip_flow(self):
        g = Graph(("a", "b"), (("a", "b"), ("b", "a")))
        rel = build_family("flow", g).relative
        loaded = complex_from_json(complex_to_json(rel))
        assert loaded.complex == rel.complex
        assert loaded.sub == rel.sub

    def test_cells_with_apart_boxes_need_no_lp(self, monkeypatch):
        # validate() meets every pair of cells; most realized cells lie
        # apart in some coordinate, which settles the pair with no LP
        def solved(system):
            raise AssertionError("validate() solved an LP")

        rel = realize_polynomial((0, 0, 2, 3))
        monkeypatch.setattr(complexes, "lp_feasible", solved)
        loaded = complex_from_json(complex_to_json(rel))
        assert loaded.complex == rel.complex
        assert loaded.sub == rel.sub

    def test_sub_faces_omitted_when_empty(self):
        doc = complex_to_json(complex_from_json(
            {"vertices": [[0], [1]], "faces": [[0, 1]]}))
        assert "sub_faces" not in doc

    def test_empty_complex(self):
        rel = complex_from_json({"vertices": [], "faces": []})
        assert rel.complex.is_empty
        assert rel.count_points(3) == 0

    def test_sub_face_must_be_a_face(self):
        data = {"vertices": [[0], [2], [1]],
                "faces": [[0, 1]],
                "sub_faces": [[2]]}
        with pytest.raises(InputError, match="subcomplex"):
            complex_from_json(data)

    def test_overlapping_cells_rejected(self):
        # [0, 2] and [1, 3] meet in [1, 2], a face of neither
        data = {"vertices": [[0], [1], [2], [3]], "faces": [[0, 2], [1, 3]]}
        with pytest.raises(InputError, match="do not form a complex"):
            complex_from_json(data)

    @pytest.mark.parametrize("data", [
        # a segment inside a segment, sharing no endpoint or one
        {"vertices": [[0], [1], [2], [3]], "faces": [[0, 3], [1, 2]]},
        {"vertices": [[0], [1], [2], [3]], "faces": [[0, 3], [0, 1]]},
        # half the square, cut along a diagonal that is no face
        {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
         "faces": [[0, 1, 2, 3], [0, 1, 2]]},
    ])
    def test_nested_cells_rejected(self, data):
        # the inner cell lies in the outer one but is not its face
        with pytest.raises(InputError, match="do not form a complex"):
            complex_from_json(data)

    @pytest.mark.parametrize("data", [
        {"faces": []},
        {"vertices": [[0]], "faces": [[]]},
        {"vertices": [[0]], "faces": [[1]]},
        {"vertices": [[0], [1, 1]], "faces": [[0]]},
        {"vertices": [[0]], "faces": [[0, "0"]]},
    ])
    def test_rejects(self, data):
        with pytest.raises(InputError):
            complex_from_json(data)


class TestPolynomialJson:
    def test_round_trip(self):
        p = interpolate(((1, 0), (2, 0), (3, 6), (4, 24)), 3)
        doc = polynomial_to_json(p)
        assert doc == {"monomial": ["0", "2", "-3", "1"],
                       "binomial": ["0", "0", "6", "6"]}
        assert BinomialPolynomial(tuple(map(Fraction, doc["monomial"]))) == p


def _not_json(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text("vertices: [a, b]\n", encoding="utf-8")
    return read_json_file(path)


class TestRefusals:
    @pytest.mark.parametrize("read, message", [
        (_not_json, r"graph\.json is not valid JSON: Expecting value"),
        (lambda _: graph_from_json({"vertices": ["a"], "edges": "a->a"}),
         r"^graph edges must be a list$"),
        (lambda _: complex_from_json({"vertices": [[0], [1]], "faces": 0}),
         r"^faces must be a list of faces$"),
        (lambda _: complex_from_json({"vertices": [[0], [1]],
                                      "faces": [[0, 1]],
                                      "sub_faces": {"0": [0]}}),
         r"^sub_faces must be a list of faces$"),
        (lambda _: complex_from_json({"vertices": "0 1", "faces": [[0, 1]]}),
         r"^complex vertices must be a list of lattice points$"),
        # the first point is not a list, so it gives no ambient dimension
        (lambda _: complex_from_json({"vertices": [5, [1]], "faces": [[1]]}),
         r"^complex vertices must be a list of lattice points$"),
        # no index range to name when there are no vertices
        (lambda _: complex_from_json({"vertices": [], "faces": [[0]]}),
         r"^faces: each face must be a nonempty list of vertex indices "
         r"\(the vertex list is empty\)$"),
    ], ids=["not JSON", "edges", "faces", "sub_faces", "vertices",
            "first point not a list", "no vertices"])
    def test_bad_input(self, read, message, tmp_path):
        with pytest.raises(InputError, match=message):
            read(tmp_path)
