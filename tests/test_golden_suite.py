"""Byte-for-byte `ehrhil complex` and `ehrhil triangulate --json` on the suite.

For each of the 50 (graph, kind) pairs, the relative complex is exported
with `ehrhil complex` and pulled with `ehrhil triangulate --json`, both run
in-process through `cli.main`.  The expected complex document and
triangulation report live in tests/golden/pulled_suite.json, one pair per
line.  After an intended output change, regenerate that file with

    PYTHONPATH=src python3 tests/test_golden_suite.py
"""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ehrhil import cli, io
from ehrhil.constructions import KINDS
from ehrhil.graphs import SUITE, Graph

GOLDEN = Path(__file__).with_name("golden") / "pulled_suite.json"
PAIRS = [(name, kind) for name in sorted(SUITE) for kind in KINDS]


def _dump(doc):
    # the layout of io.write_json_file and of the CLI's --json reports
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def pair_outputs(name, kind, folder):
    """The complex file and triangulate report for one pair, as text."""
    g = SUITE[name]
    labelled = Graph(tuple(str(v) for v in g.vertices),
                     tuple((str(t), str(h)) for t, h in g.edges))
    graph = Path(folder) / "graph.json"
    graph.write_text(json.dumps(io.graph_to_json(labelled)))
    out = Path(folder) / "complex.json"
    _run(["complex", kind, str(graph), "--out", str(out)])
    return (out.read_text(encoding="utf-8"),
            _run(["triangulate", str(out), "--json"]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_suite(golden):
    assert sorted(golden) == sorted(f"{n} {k}" for n, k in PAIRS)


@pytest.mark.parametrize("name, kind", PAIRS)
def test_suite_pair_matches_golden(name, kind, golden, tmp_path):
    complex_text, triangulate_text = pair_outputs(name, kind, tmp_path)
    expected = golden[f"{name} {kind}"]
    assert complex_text == _dump(expected["complex"])
    assert triangulate_text == _dump(expected["triangulate"])


def regenerate():
    lines = []
    with tempfile.TemporaryDirectory() as folder:
        for name, kind in PAIRS:
            entry = {key: json.loads(text) for key, text in zip(
                ("complex", "triangulate"), pair_outputs(name, kind, folder))}
            lines.append(f'"{name} {kind}": '
                         + json.dumps(entry, sort_keys=True,
                                      separators=(",", ":")))
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
