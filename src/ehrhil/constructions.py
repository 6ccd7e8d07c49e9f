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

Each construction generates candidate cells from one matrix (incidence
rows or the cycle basis), and one loop serves all five.  A slice whose
right-hand side b has lam.b != 0 for some lam in the matrix's left kernel
holds no point at all, so it is never a candidate; the budget counts the
candidates before that filter.  That matrix is certified totally
unimodular once per build: the incidence matrix by Heller-Tompkins, the
cycle basis by its identity block over the incidence kernel.  By
Hoffman-Kruskal every candidate's closed region is then the hull of its
lattice points, so one walk of the candidate's box decides it without
LP: it is kept when every strict row is strict on some walked point, and
the kept cell is the hull of those points.  Those points lie in one unit
cube, so all of them are vertices with no LP, and the cell is built from
them like any polytope, its facets by double description.  `lp_family`,
which filters by exact LP and certifies each cell by `from_inequalities`,
is the reference the tests hold this to.

`certify` checks one counting function three ways on one graph:
enumeration (a frontier dynamic program), the lattice points of the
relative complex, and the Hilbert function of its pulled triangulation must
agree at every sampled k.  Before pulling, every maximal cell must be
two-level (width one on each facet).  Two-level lattice polytopes are
exactly the compressed ones (Sullivant 2006, Thm 2.4): every pulling
triangulation of them is unimodular, so the Hilbert route gives one
f-vector whatever the pulling order.
"""

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .complexes import PolytopalComplex, RelativeComplex
from .exact import (
    InvariantError,
    LinearSystem,
    column_echelon,
    dot,
    lp_feasible,
    rational_rank,
)
from .graphs import (
    CACHE_SIZE,
    chromatic_dp,
    cycle_basis,
    incidence_matrix,
    int_flow_dp,
    int_tension_dp,
    mod_flow_dp,
    mod_tension_dp,
)
from .polynomials import interpolate
from .polytope import LatticePolytope, _plan, _walk
from .srideal import hilbert_from_f

# refuse constructions beyond 2^16 candidate cells, counted before the
# slices' left-kernel filter, each at most one walk of its box: K6
# chromatic (2^15, a 4.8-6.5 s build on one core, Python 3.11) and K3,3
# modflow (4,096 candidates, 580 walked) pass, K7 chromatic (2^21, 64
# times K6's candidates) and Petersen modflow (4^10) are refused
_CANDIDATE_BUDGET = 2 ** 16


@dataclass(frozen=True, eq=False)
class CellFamily:
    """A construction's kept candidates and the relative complex they form."""

    labels: tuple
    relative: RelativeComplex


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _network_certificate(matrix):
    """Raise InvariantError unless every column is a network column.

    Heller & Tompkins (1956): a matrix with entries in {0, +1, -1} and at
    most one +1 and one -1 in each column is totally unimodular (every
    square minor is 0 or +-1), and so is its transpose.
    """
    for j, col in enumerate(zip(*matrix)):
        if (any(x not in (-1, 0, 1) for x in col)
                or col.count(1) > 1 or col.count(-1) > 1):
            raise InvariantError(
                f"column {j} {list(col)} is not a network column, so the "
                f"matrix is not certified totally unimodular")


def _kernel_certificate(rows, matrix, ncols):
    """Raise InvariantError unless `rows` is a unimodular kernel basis.

    `matrix` A (ncols columns) must pass the network certificate; `rows`
    must be orthogonal to it, as many as its nullity, and each row r needs
    its own column j_r where r is 1 and every other row 0.  The rows then
    span the kernel, and the columns outside J = {j_r} hold a nonsingular
    square submatrix B of A, with the rows R: up to column order, rows =
    [-(B^-1 A_RJ)^T | I].  Every minor of B^-1 A_R is a minor of A over
    det B = +-1, so the rows are totally unimodular (Schrijver 1986,
    section 19.1).
    """
    _network_certificate(matrix)
    nullity = ncols - rational_rank(matrix)
    if len(rows) != nullity:
        raise InvariantError(
            f"{len(rows)} rows, but the kernel has dimension {nullity}")
    for r, row in enumerate(rows):
        for i, a in enumerate(matrix):
            if dot(row, a):
                raise InvariantError(
                    f"row {r} is not orthogonal to matrix row {i}")
    owned = set()
    for col in zip(*rows):
        support = [r for r, x in enumerate(col) if x]
        if len(support) == 1 and col[support[0]] == 1:
            owned.add(support[0])
    for r in range(len(rows)):
        if r not in owned:
            raise InvariantError(
                f"row {r} has no identity column (1 there, 0 in every "
                f"other row), so the rows are not certified totally "
                f"unimodular")


def _certify_unimodular(kind, g):
    """The `kind` matrix of g is totally unimodular, or InvariantError.

    Every candidate system stacks that matrix, with sign flips, on unit
    rows for the box; both keep total unimodularity.  So by Hoffman &
    Kruskal (1956) every candidate's closed region is an integral polytope.
    """
    incidence = incidence_matrix(g)
    if _spec(kind)[1] is cycle_basis:
        _kernel_certificate(cycle_basis(g), incidence, len(g.edges))
    else:
        _network_certificate(incidence)


def _walls(n, box):
    """Rows a.x <= r of the box's walls, two per coordinate."""
    rows = []
    e = [0] * n
    for i, (lo, hi) in enumerate(box):
        e[i] = -1
        down = tuple(e)
        e[i] = 1
        rows += [(down, -lo), (tuple(e), hi)]
        e[i] = 0
    return rows


def _relative(n, labels, cells, planes):
    # each cell closes a distinct nonempty open region (a sign vector, box
    # or slice), so none lies in another and all of them are maximal
    total = PolytopalComplex(cells, ambient_dim=n)
    return tuple(labels), RelativeComplex(
        total, total.faces_in_hyperplanes(planes))


def _cells(n, candidates, planes):
    """Kept labels and the relative complex (C, C') of the candidates.

    A candidate (label, eq, rows, box) stands for the open region where
    the equations eq hold, strictly inside the box and strictly below the
    rows.  Its closure is an integral polytope (`_certify_unimodular`), so
    it is the hull of the lattice points one walk of the box lists.  The
    open region holds a point exactly when every strict row is strict on
    some listed point: their centroid is then strict on all of them.  The
    kept cell is that hull, built from the listed points, which are its
    vertices as they lie in one unit cube.  C' is the part of C lying in
    the hyperplanes `planes`.
    """
    labels, cells = [], []
    for label, eq, rows, box in candidates:
        closed = list(rows)
        for a, b in eq:
            closed += [(a, b), (tuple(-c for c in a), -b)]
        pts = []
        _walk(_plan(closed, box), 1, 0, pts)  # the walk keeps to the box
        strict = _walls(n, box) + rows
        if pts and all(any(dot(a, p) < r for p in pts) for a, r in strict):
            labels.append(label)
            cells.append(LatticePolytope(pts))
    return _relative(n, labels, cells, planes)


def lp_family(kind, g):
    """build_family by exact LP, without the unimodularity certificate.

    The reference the tests hold the lattice-point route to: a candidate
    is kept when an LP finds a point of its open region, and its closure is
    certified by `from_inequalities`, one LP per facet and hull equation.
    """
    n, candidates, planes = _candidates(kind, g)
    labels, cells = [], []
    for label, eq, rows, box in candidates:
        strict = _walls(n, box) + rows
        if lp_feasible(LinearSystem(n, eq=eq, lt=strict)) is None:
            continue
        labels.append(label)
        cells.append(LatticePolytope.from_inequalities(
            LinearSystem(n, eq=eq, le=strict), box))
    return CellFamily(*_relative(n, labels, cells, planes))


def _chromatic(g, incidence):
    """Sign vectors of x_head - x_tail over the open unit cube."""
    n = len(g.vertices)
    edges = list(zip(*incidence))  # column e of the incidence matrix
    planes = [(row, 0) for row in edges] + [(_unit(n, v), 1) for v in range(n)]
    # a loop admits no proper colouring: no candidate to walk
    count = 0 if g.has_loop() else 2 ** len(edges)
    signs = itertools.product((1, -1), repeat=len(edges)) if count else ()
    return n, count, ((sigma, (), [(tuple(-s * x for x in row), 0)
                                   for s, row in zip(sigma, edges)],
                       [(0, 1)] * n)
                      for sigma in signs), planes


def _boxes(g, matrix):
    """Unit boxes a + [0,1]^E meeting the solution space of `matrix` openly."""
    n = len(g.edges)
    # the zero row of an isolated vertex constrains nothing
    eq = [(row, 0) for row in matrix if any(row)]
    planes = [(_unit(n, e), c) for e in range(n) for c in (-1, 0, 1)]
    return n, 2 ** n, ((a, eq, [], [(lo, lo + 1) for lo in a])
                       for a in itertools.product((-1, 0), repeat=n)), planes


def _slices(g, matrix):
    """Unit cube slices {matrix . y = b} with nonempty open part.

    On the cube a row's value lies between the sum of its negative entries
    and the sum of its positive ones, which bounds every right-hand side b.
    A slice is a candidate only when lam.b = 0 for every lam in the left
    kernel of the matrix, as lam.b = (lam . matrix).y = 0 at any solution
    y; one column echelon of the transpose gives that kernel.  For the
    incidence matrix the kernel is spanned by the component indicators, so
    the balances must sum to zero on each component; the cycle basis has
    none.  The count returned is of every b in the ranges, so the budget
    refuses what it refused before the filter.
    """
    n = len(g.edges)
    ranges = [range(sum(x for x in row if x < 0),
                    sum(x for x in row if x > 0) + 1) for row in matrix]
    pivots, _, u = column_echelon(list(zip(*matrix)), len(matrix))
    kernel = u[len(pivots):]
    planes = [(_unit(n, e), c) for e in range(n) for c in (0, 1)]
    return n, math.prod(map(len, ranges)), (
        (b, list(zip(matrix, b)), [], [(0, 1)] * n)
        for b in itertools.product(*ranges)
        if not any(dot(lam, b) for lam in kernel)), planes


# kind: (candidate generator, the matrix it is fed, oracle, degree)
_SPECS = {
    "chromatic": (_chromatic, incidence_matrix, chromatic_dp,
                  lambda g: len(g.vertices)),
    "flow": (_boxes, incidence_matrix, int_flow_dp,
             lambda g: g.cyclomatic_number()),
    "modflow": (_slices, incidence_matrix, mod_flow_dp,
                lambda g: g.cyclomatic_number()),
    "tension": (_boxes, cycle_basis, int_tension_dp,
                lambda g: g.tension_rank()),
    "modtension": (_slices, cycle_basis, mod_tension_dp,
                   lambda g: g.tension_rank()),
}

KINDS = tuple(_SPECS)


def _spec(kind):
    if kind not in _SPECS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    return _SPECS[kind]


def degree_bound(kind, g):
    """Degree of the counting polynomial; also the cell dimension."""
    return _spec(kind)[3](g)


def oracle(kind, g, k):
    """The enumeration route's count, which the construction must reproduce.

    It is the frontier dynamic program of `graphs` (the "brute" method),
    which counts what the naive `*_bf` enumerations count and, like them,
    knows nothing of the geometry.
    """
    return _spec(kind)[2](g, k)


def _candidates(kind, g):
    """(n, candidates, planes) of `kind` on g, refused beyond the budget."""
    generator, matrix, _, _ = _spec(kind)
    n, count, candidates, planes = generator(g, matrix(g))
    if count > _CANDIDATE_BUDGET:
        raise ValueError(f"{kind}: {count} candidate cells exceed the "
                         f"budget of {_CANDIDATE_BUDGET}")
    return n, candidates, planes


@lru_cache(maxsize=CACHE_SIZE)
def build_family(kind, g):
    """Cells of the `kind` construction on g, and the relative complex."""
    n, candidates, planes = _candidates(kind, g)
    _certify_unimodular(kind, g)
    labels, relative = _cells(n, candidates, planes)
    expected = degree_bound(kind, g)
    for cell in relative.complex.maximal_cells:
        if cell.dim != expected:
            raise InvariantError(
                f"{kind} cell of dimension {cell.dim}, expected {expected}")
    return CellFamily(labels, relative)


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
    # two-level cells are compressed: any pulling order gives this f-vector
    for cell in rel.complex.maximal_cells:
        if not cell.is_two_level():
            raise CheckFailure(
                f"{kind}: cell {list(cell.vertices)} is not two-level, so not "
                f"compressed; the Hilbert route could depend on the pulling "
                f"order")
    f = rel.pulled_f_vector()
    return tuple(hilbert_from_f(f, k) for k in ks)


def certify(kind, g, methods=METHODS, kmax=None):
    """Count `kind` on g by each method at k = 1..top and interpolate.

    top is degree+2 by default; a `kmax` below degree+1 is raised to it, or
    the interpolation would be under-determined.  The polynomial comes from
    the first method's values; when they are not a polynomial of degree at
    most the bound, CheckFailure names the first k off the interpolant.
    """
    if not methods or any(m not in METHODS for m in methods):
        raise ValueError(f"methods {tuple(methods)!r}: expected a nonempty "
                         f"selection of {METHODS}")
    if {"geometric", "hilbert"} & set(methods):
        _candidates(kind, g)  # refuse an oversized build before any method
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
            f"{kind}: {runs[0].method} counts: {exc}; polynomiality of the "
            "counting function fails") from exc
    return KindReport(kind, d, ks, poly, tuple(runs))
