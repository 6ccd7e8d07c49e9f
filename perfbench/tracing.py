"""Spans around the calls into each ehrhil layer, installed from outside.

``Tracer.install()`` replaces the module and class attributes that the
library and the workloads call by name with wrappers that record one span
per call: name, start, end, parent span and the id of the step it ran in.
Nothing under ``src/`` changes, and an untraced run installs nothing.
Spans stay in memory; ``metrics()`` reduces them to the per-layer numbers
and ``dump()`` writes them out at the end of the run.

A span's layer is the first part of its name, the ehrhil module that does
the work.  Times are given as shares of the traced pass's wall time, so
that a layer a workload bypasses reads 0 as a ratio, not as a time:
``.share`` is inclusive time (outermost call of a recursion only),
``.self_share`` the span minus the time its child spans cover.  The
absolute times are in the span file.
"""

import importlib
import json
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, attribute, span): functions looked up by module attribute
FUNCTIONS = (
    ("constructions", "build_family", "constructions.build_family"),
    ("constructions", "oracle", "graphs.oracle"),
    ("constructions", "lp_feasible", "exact.lp.filter"),
    ("polytope", "lp_maximize", "exact.lp.certify"),
    ("polytope", "lp_feasible", "exact.lp.vertex"),
    ("normal_sr", "lp_feasible", "exact.lp.normal"),
    ("normal_sr", "minimal_representatives",
     "normal_sr.minimal_representatives"),
    ("complexes", "relative_f_vector", "complexes.relative_f_vector"),
    ("srideal", "hilbert_from_f", "srideal.hilbert_from_f"),
    ("polynomials", "interpolate", "polynomials.interpolate"),
)

# (module, class, method, span)
METHODS = (
    ("polytope", "LatticePolytope", "__init__", "polytope.init"),
    ("polytope", "LatticePolytope", "from_inequalities",
     "polytope.from_inequalities"),
    ("polytope", "LatticePolytope", "face", "polytope.face"),
    ("polytope", "LatticePolytope", "lattice_points",
     "polytope.lattice_points"),
    ("polytope", "LatticePolytope", "pull_maximal_simplices",
     "polytope.pull_maximal_simplices"),
    ("polytope", "LatticePolytope", "is_two_level", "polytope.is_two_level"),
    ("polytope", "LatticePolytope", "is_compressed", "polytope.is_compressed"),
    ("complexes", "PolytopalComplex", "generated_by",
     "complexes.generated_by"),
    ("complexes", "PolytopalComplex", "faces_in_hyperplanes",
     "complexes.faces_in_hyperplanes"),
    ("complexes", "PolytopalComplex", "minimal_face_at",
     "complexes.minimal_face_at"),
    ("complexes", "RelativeComplex", "count_points", "complexes.count_points"),
    ("complexes", "RelativeComplex", "pulled_pair", "complexes.pulled_pair"),
    ("complexes", "RelativeComplex", "pulled_f_vector",
     "complexes.pulled_f_vector"),
)

SPANS = tuple(s for *_, s in FUNCTIONS) + tuple(s for *_, s in METHODS)
LP_SPANS = ("exact.lp.filter", "exact.lp.certify", "exact.lp.vertex",
            "exact.lp.normal")

# (metric, unit, better) beyond the calls / share / self_share of every span
COUNTERS = (
    ("constructions.candidates", "count", "lower"),
    ("constructions.cells", "count", "higher"),
    ("constructions.keep_ratio", "ratio", "higher"),
    ("constructions.lp.certify.calls", "count", "lower"),
    ("constructions.lp.vertex.calls", "count", "lower"),
    ("exact.lp_feasible.feasible_ratio", "ratio", "higher"),
    ("exact.lp.size_mean", "count", "lower"),
    ("polytope.face.built", "count", "lower"),
    ("polytope.points", "count", "lower"),
    ("polytope.is_compressed.pulls", "count", "lower"),
    ("complexes.simplices", "count", "lower"),
    ("normal_sr.witnesses", "count", "higher"),
    ("normal_sr.lp_per_witness", "ratio", "lower"),
    ("graphs.states", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

# metrics the run script adds from its traced and untraced passes
PASS_METRICS = (
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics():
    """Every metric a traced run reports, as (name, unit, better)."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"),
                (f"{span}.share", "ratio", "lower"),
                (f"{span}.self_share", "ratio", "lower")]
    return out + list(COUNTERS) + list(PASS_METRICS)


def _oracle_states(kind, g, k):
    """Size of the itertools.product the brute-force oracle walks."""
    if kind == "chromatic":
        return 0 if g.has_loop() else k ** len(g.vertices)
    values = 2 * k - 2 if kind in ("flow", "tension") else k - 1
    return values ** len(g.edges)


def _lp_size(system):
    rows = len(system.eq) + len(system.le) + len(system.lt)
    return system.n_vars * rows


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, step id)
        self.step = None
        self.counts = Counter()
        self._stack = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.step)
            if name in LP_SPANS:
                counts["lp.size"] += _lp_size(args[0])
                if name != "exact.lp.certify":
                    counts["lp_feasible.calls"] += 1
                    counts["lp_feasible.feasible"] += result is not None
            elif name == "graphs.oracle":
                counts["states"] += _oracle_states(*args)
            elif name == "constructions.build_family":
                counts["cells"] += len(result.labels)
            elif name == "polytope.lattice_points":
                counts["points"] += len(result)
            elif name == "complexes.pulled_pair":
                counts["simplices"] += len(result[0].maximal_simplices)
            elif name == "normal_sr.minimal_representatives":
                counts["witnesses"] += len(result)
            return result

        return traced

    def install(self):
        """Replace the traced attributes of the imported ehrhil modules."""
        for module, attr, name in FUNCTIONS:
            mod = importlib.import_module(f"ehrhil.{module}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"ehrhil.{module}"),
                          cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    # -- reduction ------------------------------------------------------------

    def _ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def metrics(self, wall_s):
        """The per-layer metrics of a pass whose steps took wall_s."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        under_build = Counter()
        parents = Counter()
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_s[i]
            ancestors = set(self._ancestors(i))
            if name not in ancestors:
                incl[name] += dur
            if "constructions.build_family" in ancestors:
                under_build[name] += 1
            if parent < 0:
                covered += dur
            else:
                parents[name, spans[parent][0]] += 1
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.share"] = incl[span] / wall_s
            out[f"{span}.self_share"] = self_s[span] / wall_s
        c = self.counts
        candidates = under_build["exact.lp.filter"]
        lp_calls = sum(calls[s] for s in LP_SPANS)
        out.update({
            "constructions.candidates": candidates,
            "constructions.cells": c["cells"],
            "constructions.keep_ratio": c["cells"] / candidates
            if candidates else 0.0,
            "constructions.lp.certify.calls": under_build["exact.lp.certify"],
            "constructions.lp.vertex.calls": under_build["exact.lp.vertex"],
            "exact.lp_feasible.feasible_ratio":
                c["lp_feasible.feasible"] / c["lp_feasible.calls"]
                if c["lp_feasible.calls"] else 0.0,
            "exact.lp.size_mean": c["lp.size"] / lp_calls if lp_calls else 0.0,
            "polytope.face.built": parents["polytope.init", "polytope.face"],
            "polytope.points": c["points"],
            "polytope.is_compressed.pulls":
                parents["polytope.pull_maximal_simplices",
                        "polytope.is_compressed"],
            "complexes.simplices": c["simplices"],
            "normal_sr.witnesses": c["witnesses"],
            "normal_sr.lp_per_witness":
                calls["exact.lp.normal"] / c["witnesses"]
                if c["witnesses"] else 0.0,
            "graphs.states": c["states"],
            "trace.spans": len(spans),
            "trace.coverage": covered / wall_s,
        })
        return out

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
