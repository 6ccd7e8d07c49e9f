"""Monomial counting for relative complexes of normal lattice polytopes.

Cells are placed at height one (final coordinate fixed to 1) so that the
lattice points of the union act as variables of a polynomial ring graded by
the height.  A degree-k monomial stands for the weighted sum of its points,
which lands in the k-th dilate of the union.  Among all monomials
representing the same point and supported inside a single face, only the
one minimal in a term order is kept; when every face is normal, each point
of k(union C minus union C') is hit by exactly one kept monomial, and the
search below produces it as an explicit witness.

Witnesses are read off the kept open faces of `RelativeComplex._open_faces`,
the table `count_points` is compiled from.  A face's targets are listed by
the walk of its own lattice frame that counts it
(`LatticePolytope.interior_lattice_points`), over dim F coordinates.  For
each, one exponent per point of the face being walked is fixed in the
order's direction, the first whose remainder is still an integer sum of
the points left.  One table per face (`_suffix_sums`) decides that, no LP.

Monomials stay implicit throughout: an exponent vector aligned with the
point-variable table is all there is, no ring arithmetic happens anywhere.
"""

from dataclasses import dataclass
from operator import add

from .complexes import PolytopalComplex, RelativeComplex
from .exact import InvariantError, LinearSystem, check_dilation, lp_feasible
from .polytope import LatticePolytope


class NormalityError(ValueError):
    """A face fails normality, so minimal representatives may not exist."""


@dataclass(frozen=True)
class TermOrder:
    """Graded lexicographic or graded reverse lexicographic monomial order."""

    kind: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("grlex", "grevlex"):
            raise ValueError("term order must be 'grlex' or 'grevlex'")

    def key(self, a):
        if self.kind == "grlex":
            return (sum(a), tuple(a))
        return (sum(a), tuple(-x for x in reversed(a)))


GRLEX = TermOrder("grlex")
GREVLEX = TermOrder("grevlex")


def homogenize(rel):
    """Embed a relative complex at height one by appending a coordinate 1.

    Each cell is lifted with its facets, a.x <= b becoming (a, 0).y <= b,
    so the lift needs no scan of vertex subsets.
    """
    def lift(cx):
        cells = [LatticePolytope.from_certified_rows(
                     [(*v, 1) for v in c.vertices],
                     [((*a, 0), b) for a, b in c.facets])
                 for c in cx.maximal_cells]
        ambient = None if cx.ambient_dim is None else cx.ambient_dim + 1
        return PolytopalComplex(cells, ambient_dim=ambient)
    return RelativeComplex(lift(rel.complex), lift(rel.sub))


@dataclass(frozen=True)
class PointVariableTable:
    """Lex-ordered lattice points of the union: the columns of U."""

    points: tuple

    @classmethod
    def from_complex(cls, cx):
        """The table of cx, off its cached sorted points (`cx.points`)."""
        if any(p[-1] != 1 for p in cx.points):
            raise ValueError("complex is not homogenized; lift it to height 1")
        return cls(cx.points)

    def __len__(self):
        return len(self.points)


def polytopal_sr_membership(table, a, cx):
    """Whether x^a lies in the polytopal non-face ideal of the complex.

    True exactly when no face contains the whole support; faces are convex,
    so checking the maximal cells suffices.
    """
    supp = [p for p, e in zip(table.points, a) if e > 0]
    return not any(all(cell.contains(p) for p in supp)
                   for cell in cx.maximal_cells)


def _require_normal_faces(cx):
    # a point of kF, F a face of a cell P, is a sum of k points of P, and F
    # is extreme in P, so all of them lie in F: normal cells have normal faces
    for cell in cx.maximal_cells:
        bad = cell.normality_counterexample()
        if bad is not None:
            k, z = bad
            raise NormalityError(
                f"cell {list(cell.vertices)} is not normal: {z} in the "
                f"{k}-th dilate is not a sum of {k} lattice points")


def _representation_feasible(points, rem):
    """Rational relaxation: can non-negative weights on `points` sum to rem?

    The tests' reference for `_suffix_sums`: every integer sum passes it,
    and some remainders that are no sum pass it too.
    """
    if not points:
        return all(x == 0 for x in rem)
    m = len(points)
    eq = [(tuple(p[c] for p in points), rem[c]) for c in range(len(rem))]
    le = [(tuple(-(j == i) for j in range(m)), 0) for i in range(m)]
    return lp_feasible(LinearSystem(m, eq=eq, le=le)) is not None


def _suffix_sums(seq, k):
    """Every sum of at most k points of a suffix of `seq`, repeats allowed.

    Maps each sum s to the largest i with s a sum of points of seq[i:]
    (len(seq) for the empty sum).  The sums of seq[i:] contain those of
    seq[i+1:], so s is a sum of points of seq[j:] exactly when j <= that
    value.  The points lie at height one, so a sum's last coordinate is its
    number of terms, and the map holds each sum once: at most
    sum_{d <= k} |dF meet Z^n| entries for seq the points of a face F.
    Built from the last point to the first by the unbounded-knapsack
    recurrence sums(i, d) = sums(i+1, d) | (seq[i] + sums(i, d-1)).
    """
    n = len(seq)
    zero = (0,) * len(seq[0])
    reach = {zero: n}
    levels = [[zero]] + [[] for _ in range(k)]
    for i in range(n - 1, -1, -1):
        u = seq[i]
        for d in range(1, k + 1):
            level = levels[d]
            for s in levels[d - 1]:
                t = tuple(map(add, s, u))
                if t not in reach:
                    reach[t] = i
                    level.append(t)
    return reach


def _minimal_representation(seq, reach, z, order):
    """Order-minimal non-negative integer combination of `seq` equal to z.

    `seq` lists the face's points in assignment order and `reach` is their
    `_suffix_sums`.  The assignment direction realizes the order: graded
    lex fixes the smallest variable first trying small exponents first,
    graded reverse lex fixes the largest variable first trying large
    exponents first, so the first solution in that search order is the
    minimum.  An exponent is kept exactly when the remainder is a sum of
    the points after it, so the search never backtracks, and it finds the
    same first solution a rational feasibility prune would.  Returns a
    dict point -> exponent, or None when no combination exists.
    """
    sol = {}
    rem = z
    for i, u in enumerate(seq):
        budget = rem[-1]  # heights are all 1, so this is the missing degree
        exps = range(budget + 1) if order.kind == "grlex" \
            else range(budget, -1, -1)
        for e in exps:
            nxt = tuple(r - e * uc for r, uc in zip(rem, u))
            if reach.get(nxt, -1) > i:
                break
        else:
            return None  # only at i = 0: later remainders are all sums
        if e:
            sol[u] = e
        rem = nxt
    return sol


def minimal_representatives(rel, k, order=GREVLEX):
    """Minimal monomial witness for every lattice point the pair keeps.

    Maps each point of k(union C minus union C') to the exponent vector
    (aligned with the point-variable table) of the order-minimal degree-k
    monomial representing it, points ascending.  All representations of a
    point use only the lattice points of the open face being walked
    (`RelativeComplex._open_faces`): the point sits in its relative
    interior, and faces are extreme sets, so the search never leaves it,
    and one `_suffix_sums` table per face serves all of its points.  Raises
    NormalityError when a point has no representation, a normality failure.
    """
    check_dilation(k)
    cx = rel.complex
    if cx.is_empty:
        return {}
    table = PointVariableTable.from_complex(cx)
    _require_normal_faces(cx)
    pos = {p: i for i, p in enumerate(table.points)}
    out = {}
    for cell, kept, _ in rel._open_faces:
        for face in map(cell.face, kept):
            targets = face.interior_lattice_points(k)
            if not targets:
                continue
            seq = sorted(face.lattice_points(), reverse=order.kind != "grlex")
            reach = _suffix_sums(seq, k)
            for z in targets:
                if z[-1] != k:
                    raise InvariantError(f"{z} is not at height {k}")
                sol = _minimal_representation(seq, reach, z, order)
                if sol is None:
                    raise NormalityError(
                        f"{z} admits no degree-{k} representation inside "
                        f"the face on {list(face.vertices)}, not normal")
                vec = [0] * len(table)
                for p, e in sol.items():
                    vec[pos[p]] = e
                out[z] = tuple(vec)
    return dict(sorted(out.items()))


def hilbert_normal(rel, k, order=GREVLEX):
    """Number of degree-k monomials surviving both ideals: one per point."""
    return len(minimal_representatives(rel, k, order))
