"""Regenerate perfbench/golden.json from the brute-force oracles alone.

    python3 perfbench/make_golden.py

bases:  binomial basis of each suite (graph, kind), interpolated from brute
        force counts at k = 1..degree+2 (the suite and dilate workloads).
normal: brute force count of each normal-workload complex at each k.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)
from ehrhil.constructions import KINDS, degree_bound, oracle  # noqa: E402
from ehrhil.polynomials import interpolate  # noqa: E402


def golden():
    bases = {}
    for name, g in workloads.SUITE.items():
        bases[name] = {}
        for kind in KINDS:
            d = degree_bound(kind, g)
            values = [(k, oracle(kind, g, k)) for k in range(1, d + 3)]
            bases[name][kind] = workloads.basis(interpolate(values, d))
    normal = {f"{name}/{kind}": [oracle(kind, workloads.SUITE[name], k)
                                 for k in workloads.NORMAL_KS]
              for name, kind in workloads.NORMAL_CASES}
    return {"bases": bases, "normal": normal}


def render(data):
    """JSON with one line per graph or case."""
    parts = [",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                        for key, value in data[section].items())
             for section in ("bases", "normal")]
    return ('{"bases": {\n' + parts[0] + '\n },\n "normal": {\n'
            + parts[1] + "\n }\n}\n")


if __name__ == "__main__":
    workloads.GOLDEN_PATH.write_text(render(golden()))
