"""Relative polytopal complexes that count colorings, flows, and tensions.

Each of the five counting functions of a graph is realized as the lattice
point count of a relative complex:

  chromatic    cells of the hyperplane arrangement x_head = x_tail inside
               the unit cube over the vertices, minus those hyperplanes and
               the upper cube facets (a half-open cube decomposition)
  flow         unit boxes of the flow space slice of (-1,1)^E, minus the
               outer cube boundary and the coordinate hyperplanes
  modflow      slices {Af = b} of the unit cube over the edges, minus the
               cube boundary
  tension      as flow, with the cycle space in place of the flow space
  modtension   as modflow, with cycle sums in place of vertex balances

Candidate cells are kept only when their open part is nonempty (exact LP),
then rebuilt from their inequality description so that fractional vertices
are caught instead of silently rounded: the matrices involved are totally
unimodular, and `from_inequalities` turns that argument into a check.

`certify` checks one counting function three ways on one graph: brute-force
enumeration, the lattice points of the relative complex, and the Hilbert
function of its pulled triangulation must agree at every sampled k.
"""

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

from .complexes import PolytopalComplex, RelativeComplex
from .exact import InvariantError, LinearSystem, lp_feasible
from .graphs import (
    chromatic_bf,
    cycle_basis,
    incidence_matrix,
    int_flow_bf,
    int_tension_bf,
    mod_flow_bf,
    mod_tension_bf,
)
from .polynomials import interpolate
from .polytope import LatticePolytope
from .srideal import hilbert_from_f


@dataclass(frozen=True, eq=False)
class CellFamily:
    """A construction's kept candidates and the relative complex they form."""

    kind: str
    graph: object
    labels: tuple
    relative: RelativeComplex


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _assemble(cells, ambient, planes):
    # each cell closes a distinct nonempty open region (a sign vector, box
    # or slice), so none lies in another and all of them are maximal
    total = PolytopalComplex(cells, ambient_dim=ambient)
    return RelativeComplex(total, total.faces_in_hyperplanes(planes))


def _build_chromatic(g):
    nv = len(g.vertices)
    if g.has_loop():
        empty = PolytopalComplex([], ambient_dim=nv)
        return (), RelativeComplex(empty, empty)
    idx = {v: i for i, v in enumerate(g.vertices)}
    edge_rows = [tuple((j == idx[h]) - (j == idx[t]) for j in range(nv))
                 for t, h in g.edges]
    bounds = []
    for v in range(nv):
        bounds.append((tuple(-x for x in _unit(nv, v)), 0))
        bounds.append((_unit(nv, v), 1))
    labels, cells = [], []
    for sigma in itertools.product((1, -1), repeat=len(g.edges)):
        rows = [(tuple(-s * x for x in row), 0)
                for s, row in zip(sigma, edge_rows)]
        if lp_feasible(LinearSystem(nv, lt=bounds + rows)) is None:
            continue
        cell = LatticePolytope.from_inequalities(
            LinearSystem(nv, le=bounds + rows), [(0, 1)] * nv)
        labels.append(sigma)
        cells.append(cell)
    planes = [(row, 0) for row in edge_rows]
    planes += [(_unit(nv, v), 1) for v in range(nv)]
    return tuple(labels), _assemble(cells, nv, planes)


def _interval_cells(g, matrix):
    """Unit boxes a + [0,1]^E meeting the solution space of `matrix` openly."""
    ne = len(g.edges)
    eq = [(row, 0) for row in matrix]
    labels, cells = [], []
    for a in itertools.product((-1, 0), repeat=ne):
        strict = []
        for e, lo in enumerate(a):
            strict.append((tuple(-x for x in _unit(ne, e)), -lo))
            strict.append((_unit(ne, e), lo + 1))
        if lp_feasible(LinearSystem(ne, eq=eq, lt=strict)) is None:
            continue
        cell = LatticePolytope.from_inequalities(
            LinearSystem(ne, eq=eq, le=strict),
            [(lo, lo + 1) for lo in a])
        labels.append(a)
        cells.append(cell)
    planes = [(_unit(ne, e), c) for e in range(ne) for c in (-1, 0, 1)]
    return tuple(labels), _assemble(cells, ne, planes)


def _slice_cells(g, matrix, ranges):
    """Unit cube slices {matrix . y = b} with nonempty open part."""
    ne = len(g.edges)
    strict = []
    box = []
    for e in range(ne):
        strict.append((tuple(-x for x in _unit(ne, e)), 0))
        strict.append((_unit(ne, e), 1))
        box.append((0, 1))
    labels, cells = [], []
    for b in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        eq = [(row, rhs) for row, rhs in zip(matrix, b)]
        if lp_feasible(LinearSystem(ne, eq=eq, lt=strict)) is None:
            continue
        cell = LatticePolytope.from_inequalities(
            LinearSystem(ne, eq=eq, le=strict), box)
        labels.append(b)
        cells.append(cell)
    planes = [(_unit(ne, e), c) for e in range(ne) for c in (0, 1)]
    return tuple(labels), _assemble(cells, ne, planes)


def _build_int_flow(g):
    rows = [row for row in incidence_matrix(g) if any(row)]
    return _interval_cells(g, rows)


def _build_int_tension(g):
    return _interval_cells(g, list(cycle_basis(g)))


def _build_mod_flow(g):
    # vertex balances of points in the open cube stay within these degrees
    idx = {v: i for i, v in enumerate(g.vertices)}
    indeg = [0] * len(g.vertices)
    outdeg = [0] * len(g.vertices)
    for t, h in g.edges:
        if t != h:
            indeg[idx[h]] += 1
            outdeg[idx[t]] += 1
    ranges = [(-o, i) for o, i in zip(outdeg, indeg)]
    return _slice_cells(g, incidence_matrix(g), ranges)


def _build_mod_tension(g):
    basis = cycle_basis(g)
    ranges = [(-sum(x == -1 for x in c), sum(x == 1 for x in c))
              for c in basis]
    return _slice_cells(g, basis, ranges)


_SPECS = {
    "chromatic": (_build_chromatic, chromatic_bf,
                  lambda g: len(g.vertices)),
    "flow": (_build_int_flow, int_flow_bf,
             lambda g: g.cyclomatic_number()),
    "modflow": (_build_mod_flow, mod_flow_bf,
                lambda g: g.cyclomatic_number()),
    "tension": (_build_int_tension, int_tension_bf,
                lambda g: g.tension_rank()),
    "modtension": (_build_mod_tension, mod_tension_bf,
                   lambda g: g.tension_rank()),
}

KINDS = tuple(_SPECS)


def _spec(kind):
    if kind not in _SPECS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    return _SPECS[kind]


def degree_bound(kind, g):
    """Degree of the counting polynomial; also the cell dimension."""
    return _spec(kind)[2](g)


def oracle(kind, g, k):
    """The brute-force count the construction must reproduce."""
    return _spec(kind)[1](g, k)


@lru_cache(maxsize=None)
def build_family(kind, g):
    builder, _, bound = _spec(kind)
    labels, relative = builder(g)
    expected = bound(g)
    for cell in relative.complex.maximal_cells:
        if cell.dim != expected:
            raise InvariantError(
                f"{kind} cell of dimension {cell.dim}, expected {expected}")
    return CellFamily(kind, g, labels, relative)


METHODS = ("brute", "geometric", "hilbert")


class CheckFailure(RuntimeError):
    """A cross-check between two counting routes did not hold."""


@dataclass(frozen=True)
class MethodRun:
    method: str
    values: tuple
    ms: int


@dataclass(frozen=True)
class KindReport:
    kind: str
    degree: int
    ks: tuple
    polynomial: object
    runs: tuple

    @property
    def agree(self):
        return all(r.values == self.runs[0].values for r in self.runs)

    def mismatch(self):
        """Name the first broken equality: the two methods and the k."""
        base = self.runs[0]
        for other in self.runs[1:]:
            for k, a, b in zip(self.ks, base.values, other.values):
                if a != b:
                    return (
                        f"{self.kind}: {base.method}={a} but {other.method}="
                        f"{b} at k={k}; the equality enumeration = "
                        f"lattice-point count = Hilbert function fails")
        return f"{self.kind}: methods disagree"


def _method_values(method, kind, g, ks):
    if method == "brute":
        return tuple(oracle(kind, g, k) for k in ks)
    rel = build_family(kind, g).relative
    if method == "geometric":
        return tuple(rel.count_points(k) for k in ks)
    f = rel.pulled_f_vector()
    return tuple(hilbert_from_f(f, k) for k in ks)


def certify(kind, g, methods=METHODS, kmax=None):
    """Count `kind` on g by each method at k = 1..top and interpolate.

    top is degree+2 by default; a `kmax` below degree+1 is raised to it, or
    the interpolation would be under-determined.  The polynomial comes from
    the first method's values; CheckFailure is raised when they are not a
    polynomial of degree at most the bound.
    """
    if not methods or any(m not in METHODS for m in methods):
        raise ValueError(f"methods {tuple(methods)!r}: expected a nonempty "
                         f"selection of {METHODS}")
    d = degree_bound(kind, g)
    top = d + 2 if kmax is None else max(kmax, d + 1)
    ks = tuple(range(1, top + 1))
    runs = []
    for method in methods:
        start = time.perf_counter_ns()
        values = _method_values(method, kind, g, ks)
        ms = (time.perf_counter_ns() - start) // 1_000_000
        runs.append(MethodRun(method, values, ms))
    try:
        poly = interpolate(tuple(zip(ks, runs[0].values)), d)
    except ValueError as exc:
        raise CheckFailure(
            f"{kind}: {runs[0].method} counts are not a polynomial of "
            f"degree <= {d}; polynomiality of the counting function fails"
        ) from exc
    return KindReport(kind, d, ks, poly, tuple(runs))
