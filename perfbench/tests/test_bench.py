"""The benchmark's own checks: manifest, golden answers, drift, trace counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
The drift and trace tests certify the whole suite (about four minutes).
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import make_golden
import run
import tracing
import workloads
from ehrhil import cli, graphs, io
from ehrhil.constructions import KINDS, build_family
from ehrhil.polytope import LatticePolytope

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_manifest_is_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()


def test_golden_answers_come_from_the_oracles():
    assert json.loads(workloads.GOLDEN_PATH.read_text()) == make_golden.golden()


def test_pipeline_matches_cli_certify(tmp_path, capsys):
    """The suite chain gives the ks, bases and verdict `ehrhil certify` gives."""
    for name, g in workloads.SUITE.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(io.graph_to_json(g)))
        cli.main(["certify", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        agree = True
        for kind, kr in zip(KINDS, report["kinds"]):
            ks, brute, lattice, hilbert, poly = workloads.certify(kind, g)
            assert kr["kind"] == kind
            assert tuple(kr["ks"]) == ks, name
            assert kr["polynomial"]["binomial"] == workloads.basis(poly), name
            agree = agree and brute == lattice == hilbert
        assert report["verdict"] == ("PASS" if agree else "FAIL"), name


def clear_caches():
    build_family.cache_clear()
    for oracle in (graphs.chromatic_bf, graphs.int_flow_bf, graphs.mod_flow_bf,
                   graphs.int_tension_bf, graphs.mod_tension_bf):
        oracle.cache_clear()


def test_cold_guard_rejects_a_warm_cache():
    clear_caches()
    child.require_cold()
    graphs.chromatic_bf(workloads.SUITE["K2"], 2)
    try:
        with pytest.raises(RuntimeError, match="chromatic_bf"):
            child.require_cold()
    finally:
        clear_caches()


def test_library_errors_fail_their_step_only():
    def broken(check):
        LatticePolytope([])

    steps = [workloads.Step("bad", broken),
             workloads.Step("good", lambda check: check(True, "fine"))]
    spans, checks = child.run_pass(steps, None)
    assert len(spans) == 2
    assert checks.attempted == 2
    assert checks.failures == ["bad: ValueError: a lattice polytope needs "
                               "at least one point"]


def test_pulling_counts_a_missed_non_compressed_polytope(monkeypatch):
    """With only the lex order sampled, the cube minus its origin passes as
    compressed; the workload must report that as a failed check."""
    monkeypatch.setattr(workloads, "PULLING_BUDGET", 0)
    cube = itertools.product((0, 1), repeat=3)
    points = [p for p in cube if p != (0, 0, 0)]
    results = []
    workloads._pulling_item(points, [points], 0,
                            lambda ok, what: results.append((ok, what)))
    assert (False, "is_two_level False, sampled is_compressed True") in results


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pulling",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def traced(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert list(m) == [name for name, *_ in tracing.per_layer_metrics()]
    return m


def test_traced_suite_reproduces_the_lp_counts():
    m = traced("suite")
    # LP calls under build_family: candidate filter, cell certification,
    # vertex extraction
    assert m["constructions.candidates"] == 996
    assert m["constructions.lp.certify.calls"] == 1448
    assert m["constructions.lp.vertex.calls"] == 620
    assert m["trace.coverage"] > 0.9
    shares, _ = run.layer_shares(m)
    assert shares["constructions"] + shares["exact"] + shares["polytope"] \
        >= 0.9


def test_traced_dilate_is_counting():
    m = traced("dilate")
    assert m["exact.lp.filter.calls"] + m["exact.lp.certify.calls"] \
        + m["exact.lp.vertex.calls"] == 0
    _, spans = run.layer_shares(m)
    assert spans["polytope.lattice_points"] + spans["complexes.count_points"] \
        >= 0.9
