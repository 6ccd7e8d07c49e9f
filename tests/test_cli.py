"""End-to-end command line behaviour, including exit codes."""

import json
import subprocess
import sys
import time

import pytest

from ehrhil import io
from ehrhil.cli import main
from ehrhil.complexes import relative_f_vector
from ehrhil.constructions import KindReport, MethodRun
from ehrhil.polynomials import BinomialPolynomial

K3 = {"vertices": ["a", "b", "c"],
      "edges": [{"tail": "a", "head": "b"},
                {"tail": "b", "head": "c"},
                {"tail": "a", "head": "c"}]}
BRIDGE = {"vertices": ["a", "b"], "edges": [{"tail": "a", "head": "b"}]}


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3))
    return str(path)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestCertify:
    def test_k3_passes(self, k3_file, capsys):
        assert main(["certify", k3_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "[0, 0, 6, 6]" in out  # chromatic binomial basis

    def test_json_report(self, k3_file, capsys):
        assert main(["certify", k3_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "PASS"
        chrom = next(kr for kr in report["kinds"]
                     if kr["kind"] == "chromatic")
        assert chrom["polynomial"]["binomial"] == ["0", "0", "6", "6"]
        assert chrom["realizable"] is True
        assert {m["method"] for m in chrom["methods"]} == {
            "brute", "geometric", "hilbert"}

    def test_malformed_graph(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"vertices": ["a"]})
        assert main(["certify", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_edge_endpoint_not_a_name(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {
            "vertices": ["a", "b"], "edges": [{"tail": ["a"], "head": "b"}]})
        assert main(["certify", path]) == 2
        assert "edge {'tail': ['a'], 'head': 'b'}" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["certify", "/nonexistent/graph.json"]) == 2


class TestPoly:
    def test_bridge_flow_is_zero(self, tmp_path, capsys):
        path = write(tmp_path, "bridge.json", BRIDGE)
        assert main(["poly", "flow", path]) == 0
        out = capsys.readouterr().out
        assert '"monomial": ["0"]' in out

    def test_single_method(self, k3_file, capsys):
        assert main(["poly", "chromatic", k3_file,
                     "--method", "brute", "--kmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "agreement" not in out
        assert '"binomial": ["0", "0", "6", "6"]' in out

    def test_kmax_raised_to_degree_plus_one(self, k3_file, capsys):
        assert main(["poly", "chromatic", k3_file, "--kmax", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.strip().startswith("4") for row in rows)

    def test_unknown_kind(self, k3_file, capsys):
        assert main(["poly", "euler", k3_file]) == 2

    def test_brute_over_the_budget_is_refused(self, k3_file, capsys,
                                              monkeypatch):
        monkeypatch.setattr("ehrhil.graphs._DP_BUDGET", 1)
        assert main(["poly", "flow", k3_file, "--method", "brute"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dynamic program of an estimated ")
        assert err.rstrip().endswith("states exceeds the budget of 1")
        assert "Traceback" not in err


class TestRealize:
    def test_negative_rejected(self, capsys):
        assert main(["realize", "--coeffs", "-1,1"]) == 2
        assert "not realizable" in capsys.readouterr().err

    def test_fractional_rejected(self, capsys):
        assert main(["realize", "--coeffs", "1/2"]) == 2
        assert "not realizable" in capsys.readouterr().err

    def test_garbage_rejected(self, capsys):
        assert main(["realize", "--coeffs", "1,x"]) == 2

    def test_over_budget_refused_at_once(self, capsys):
        start = time.monotonic()
        assert main(["realize", "--coeffs", "1000000"]) == 2
        assert time.monotonic() - start < 1
        assert "1000000 faces" in capsys.readouterr().err

    def test_round_trip(self, capsys):
        assert main(["realize", "--coeffs", "0,2,1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f_vector"] == [0, 2, 1]
        assert report["triangulated_f_vector"] == [0, 2, 1]
        # 2(k-1) + C(k-1,2) at k=1..4
        assert report["counts"] == [0, 2, 5, 9]


class TestComplexAndTriangulate:
    def test_export_then_triangulate(self, k3_file, tmp_path, capsys):
        out = str(tmp_path / "k3chrom.json")
        assert main(["complex", "chromatic", k3_file, "--out", out]) == 0
        capsys.readouterr()
        assert main(["triangulate", out]) == 0
        text = capsys.readouterr().out
        assert "relative f-vector: [0, 0, 6, 6]" in text

    def test_exported_document_loads(self, k3_file, tmp_path):
        out = tmp_path / "flow.json"
        assert main(["complex", "flow", k3_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) <= {"vertices", "faces", "sub_faces"}

    def test_triangulate_relative(self, tmp_path, capsys):
        # pulling at an endpoint keeps [0,2] whole: one non-unimodular cell
        path = write(tmp_path, "seg.json", {
            "vertices": [[0], [2]], "faces": [[0, 1]],
            "sub_faces": [[0], [1]]})
        assert main(["triangulate", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relative_f_vector"] == [0, 1]
        assert report["triangulation"]["faces"] == [[0, 1]]
        assert report["triangulation"]["sub_faces"] == [[0], [1]]

    def test_triangulate_reads_both_components(self, tmp_path, capsys):
        # two squares, and far off a doubled triangle with points that are
        # not vertices; C' has faces in both components
        data = {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1],
                             [10, 0], [12, 0], [10, 2]],
                "faces": [[0, 1, 2, 3], [1, 3, 4, 5], [6, 7, 8]],
                "sub_faces": [[0, 2], [4, 5], [6, 7]]}
        assert main(["triangulate", write(tmp_path, "two.json", data),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        delta, gamma = io.complex_from_json(data).pulled_pair()
        assert report == {
            "triangulation": io.cells_to_json(delta.maximal_simplices,
                                              gamma.maximal_simplices),
            "f_vector": list(delta.f_vector()),
            "relative_f_vector": list(relative_f_vector(delta, gamma))}

    def test_non_unimodular_simplex_warned(self, tmp_path, capsys):
        # [0, 2] has 3 lattice points, but f = [2, 1] counts 2 at k = 1
        path = write(tmp_path, "seg.json", {
            "vertices": [[0], [2]], "faces": [[0, 1]]})
        assert main(["triangulate", path]) == 0
        captured = capsys.readouterr()
        assert "relative f-vector: [2, 1]" in captured.out
        assert captured.err == (
            "warning: pulled simplex [[0], [2]] is not unimodular, so the "
            "relative f-vector does not count lattice points\n")

    def test_unimodular_triangulation_is_quiet(self, k3_file, tmp_path,
                                                capsys):
        out = str(tmp_path / "k3flow.json")
        assert main(["complex", "flow", k3_file, "--out", out]) == 0
        capsys.readouterr()
        assert main(["triangulate", out, "--json"]) == 0
        assert capsys.readouterr().err == ""

    def test_overlapping_cells_rejected(self, tmp_path, capsys):
        # the union [0, 3] has 4, 7, 10 points at k = 1, 2, 3; counting the
        # two segments as a complex would give 4, 6, 8
        path = write(tmp_path, "overlap.json", {
            "vertices": [[0], [1], [2], [3]], "faces": [[0, 2], [1, 3]]})
        assert main(["triangulate", path]) == 2
        captured = capsys.readouterr()
        assert "do not form a complex" in captured.err
        assert "f-vector" not in captured.out

    def test_nested_cells_rejected(self, tmp_path, capsys):
        # [1, 2] lies inside [0, 3] but is not its face
        path = write(tmp_path, "nested.json", {
            "vertices": [[0], [1], [2], [3]], "faces": [[0, 3], [1, 2]]})
        assert main(["triangulate", path]) == 2
        assert "do not form a complex" in capsys.readouterr().err


class TestCheckCompressed:
    def test_unit_square(self, tmp_path, capsys):
        path = write(tmp_path, "sq.json", {
            "ambient_dim": 2,
            "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        assert main(["check-compressed", path]) == 0
        out = capsys.readouterr().out
        assert "two-level: yes" in out
        assert "compressed: yes" in out

    def test_long_segment_fails(self, tmp_path, capsys):
        path = write(tmp_path, "seg.json", {
            "ambient_dim": 1, "vertices": [[0], [2]]})
        assert main(["check-compressed", path]) == 1
        captured = capsys.readouterr()
        assert "compressed: no" in captured.out
        assert "non-unimodular" in captured.err

    def test_cube_minus_a_vertex_is_decided_not_sampled(self, tmp_path,
                                                         capsys):
        # the facet x+y+z <= 2 takes the values 0, 1, 2: width two
        cube = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        path = write(tmp_path, "cut.json", {
            "ambient_dim": 3, "vertices": cube[:-1]})
        assert main(["check-compressed", path]) == 1
        assert "two-level: no" in capsys.readouterr().out
        assert main(["check-compressed", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"two_level": False, "compressed": False}

    @pytest.mark.parametrize("flag", ["--orders", "--seed"])
    def test_sampling_options_are_gone(self, tmp_path, flag):
        path = write(tmp_path, "sq.json", {
            "ambient_dim": 2,
            "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        assert main(["check-compressed", path, flag, "5"]) == 2


class TestHilbertNormal:
    def test_chromatic_complex_counts(self, k3_file, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        main(["complex", "chromatic", k3_file, "--out", out])
        capsys.readouterr()
        assert main(["hilbert-normal", out, "--k", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 6

    def test_orders_agree(self, tmp_path, capsys):
        path = write(tmp_path, "seg.json", {
            "vertices": [[0], [2]], "faces": [[0, 1]],
            "sub_faces": [[0], [1]]})
        counts = {}
        for order in ("grlex", "grevlex"):
            assert main(["hilbert-normal", path, "--k", "2",
                         "--order", order, "--json"]) == 0
            counts[order] = json.loads(capsys.readouterr().out)["count"]
        assert counts == {"grlex": 3, "grevlex": 3}

    def test_k_must_be_positive(self, tmp_path, capsys):
        path = write(tmp_path, "seg.json",
                     {"vertices": [[0], [1]], "faces": [[0, 1]]})
        assert main(["hilbert-normal", path, "--k", "0"]) == 2

    def test_non_normal_face_fails(self, tmp_path, capsys):
        # Reeve simplex: empty but not normal, (1,1,1) has no representation
        path = write(tmp_path, "reeve.json", {
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]],
            "faces": [[0, 1, 2, 3]]})
        assert main(["hilbert-normal", path, "--k", "2"]) == 1
        assert "check failed" in capsys.readouterr().err


class TestMismatchMessage:
    def test_names_the_broken_equality(self):
        kr = KindReport(
            kind="flow", degree=1, ks=(1, 2),
            polynomial=BinomialPolynomial((0,)),
            runs=(MethodRun("brute", (0, 0), 1),
                  MethodRun("geometric", (0, 1), 1)))
        assert not kr.agree
        message = kr.mismatch()
        assert "k=2" in message
        assert "brute=0" in message and "geometric=1" in message


def test_module_entry_point(k3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ehrhil", "certify", k3_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: PASS" in proc.stdout
