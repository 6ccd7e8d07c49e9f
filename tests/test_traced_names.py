"""Every library attribute the benchmark's tracer wraps still exists, and
its counters still read the results they are given.

perfbench/tracing.py replaces module functions and class methods by name
and reads sizes off their results; a refactor that renames one or changes
its result type breaks the traced benchmark runs.  The tracer module is
loaded from its file and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

from ehrhil import constructions, normal_sr
from ehrhil.complexes import PolytopalComplex, RelativeComplex
from ehrhil.exact import LinearSystem
from ehrhil.graphs import path_graph
from ehrhil.polytope import LatticePolytope

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module, attr, span in _tracing().FUNCTIONS:
        mod = importlib.import_module(f"ehrhil.{module}")
        assert callable(getattr(mod, attr, None)), span


def test_traced_methods_are_defined_on_their_class():
    # install() reads cls.__dict__, so an inherited method would not do
    for module, cls_name, attr, span in _tracing().METHODS:
        cls = getattr(importlib.import_module(f"ehrhil.{module}"), cls_name)
        assert attr in cls.__dict__, span


def test_counters_read_the_results():
    tracer = _tracing().Tracer()
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    rel = RelativeComplex(PolytopalComplex([square]),
                          PolytopalComplex([], ambient_dim=2))
    g = path_graph(2)
    calls = [
        (constructions.build_family, "constructions.build_family",
         ("chromatic", g)),
        (RelativeComplex.pulled_pair, "complexes.pulled_pair", (rel,)),
        (LatticePolytope.lattice_points, "polytope.lattice_points",
         (square,)),
        (normal_sr.minimal_representatives,
         "normal_sr.minimal_representatives", (normal_sr.homogenize(rel), 1)),
        (constructions.oracle, "graphs.oracle", ("chromatic", g, 2)),
        (constructions.lp_feasible, "exact.lp.filter",
         (LinearSystem(1, le=[((1,), 1)]),)),
    ]
    for fn, span, args in calls:
        tracer._wrap(fn, span)(*args)
    for counter in ("cells", "simplices", "points", "witnesses", "states",
                    "lp.size"):
        assert tracer.counts[counter] > 0, counter
