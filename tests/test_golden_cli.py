"""Byte-for-byte output of `ehrhil certify` and `ehrhil poly` on the suite.

Each suite graph is written as JSON with string labels and run through
`cli.main` in-process, so the oracle and construction caches are shared with
the other tests.  The only run-dependent output is the timing: the `ms`
column of the certify table and the `"ms"` fields of the JSON report, which
are masked before comparing.  The expected outputs live in tests/golden/ as
`<graph>.certify.txt`, `<graph>.certify.json` and `<graph>.poly.txt`; after
an intended output change, rewrite them from `masked_outputs`.
"""

import json
import re
from pathlib import Path

import pytest

from ehrhil import cli, io
from ehrhil.graphs import Graph

GOLDEN = Path(__file__).with_name("golden")
NAMES = sorted(p.name.split(".")[0] for p in GOLDEN.glob("*.certify.txt"))


def _mask_ms_column(text):
    # the table is right-justified with two-space gaps, so the ms column is
    # everything between the end of "sampled k" and the gap before "agreement"
    lines = text.splitlines(keepends=True)
    header = lines[1]
    end = header.index("  agreement")
    start = header.index("sampled k") + len("sampled k")
    return "".join(line[:start] + line[end:] if 1 <= i < len(lines) - 1
                   else line for i, line in enumerate(lines))


def _mask_ms_fields(text):
    return re.sub(r'"ms": \d+', '"ms": 0', text)


def _run(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def masked_outputs(g, tmp_path, capsys):
    """The three pinned outputs for graph `g`, timings masked."""
    labelled = Graph(tuple(str(v) for v in g.vertices),
                     tuple((str(t), str(h)) for t, h in g.edges))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(io.graph_to_json(labelled)))
    return {
        "certify.txt": _mask_ms_column(_run(capsys, ["certify", str(path)])),
        "certify.json": _mask_ms_fields(
            _run(capsys, ["certify", str(path), "--json"])),
        "poly.txt": _run(capsys,
                         ["poly", "chromatic", str(path), "--kmax", "6"]),
    }


def test_golden_files_cover_the_suite(suite):
    assert NAMES == sorted(suite)


@pytest.mark.parametrize("name", NAMES)
def test_cli_output_matches_golden(name, suite, tmp_path, capsys):
    outputs = masked_outputs(suite[name], tmp_path, capsys)
    for suffix, text in outputs.items():
        expected = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
        assert text == expected, f"{name}.{suffix}"
