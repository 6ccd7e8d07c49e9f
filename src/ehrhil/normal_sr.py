"""Monomial counting for relative complexes of normal lattice polytopes.

Cells are placed at height one (final coordinate fixed to 1) so that the
lattice points of the union act as variables of a polynomial ring graded by
the height.  A degree-k monomial stands for the weighted sum of its points,
which lands in the k-th dilate of the union.  Among all monomials
representing the same point and supported inside a single face, only the
one minimal in a term order is kept; when every face is normal, each point
of k(union C minus union C') is hit by exactly one kept monomial, and the
search below produces it as an explicit witness.

Monomials stay implicit throughout: an exponent vector aligned with the
point-variable table is all there is, no ring arithmetic happens anywhere.
"""

from dataclasses import dataclass

from .complexes import PolytopalComplex, RelativeComplex
from .exact import InvariantError, LinearSystem, lp_feasible
from .polytope import LatticePolytope, check_dilation


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
    """Embed a relative complex at height one by appending a coordinate 1."""
    def lift(cx):
        cells = [LatticePolytope([(*v, 1) for v in c.vertices])
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
        pts = sorted(cx.lattice_points(1))
        if any(p[-1] != 1 for p in pts):
            raise ValueError("complex is not homogenized; lift it to height 1")
        return cls(tuple(pts))

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
    """Rational relaxation: can non-negative weights on `points` sum to rem?"""
    if not points:
        return all(x == 0 for x in rem)
    m = len(points)
    eq = [(tuple(p[c] for p in points), rem[c]) for c in range(len(rem))]
    le = [(tuple(-(j == i) for j in range(m)), 0) for i in range(m)]
    return lp_feasible(LinearSystem(m, eq=eq, le=le)) is not None


def _minimal_representation(points, z, order):
    """Order-minimal non-negative integer combination of `points` equal to z.

    The assignment direction realizes the order: graded lex fixes the
    smallest variable first trying small exponents first, graded reverse
    lex fixes the largest variable first trying large exponents first, so
    the first complete solution the backtracking finds is the minimum.
    Infeasible branches are cut by an exact rational feasibility check.
    Returns a dict point -> exponent, or None when no combination exists.
    """
    seq = list(points) if order.kind == "grlex" else list(reversed(points))

    def descend(i, rem):
        if i == len(seq):
            return {} if all(x == 0 for x in rem) else None
        u = seq[i]
        budget = rem[-1]  # heights are all 1, so this is the missing degree
        exps = range(budget + 1) if order.kind == "grlex" \
            else range(budget, -1, -1)
        for e in exps:
            nxt = tuple(r - e * uc for r, uc in zip(rem, u))
            if not _representation_feasible(seq[i + 1:], nxt):
                continue
            sol = descend(i + 1, nxt)
            if sol is not None:
                if e:
                    sol[u] = e
                return sol
        return None

    return descend(0, tuple(z))


def minimal_representatives(rel, k, order=GREVLEX):
    """Minimal monomial witness for every lattice point the pair keeps.

    Maps each point of k(union C minus union C') to the exponent vector
    (aligned with the point-variable table) of the order-minimal degree-k
    monomial representing it.  All representations of a point use only the
    lattice points of the smallest face containing point/k: the point sits
    in that face's relative interior, and faces are extreme sets, so the
    search never has to leave it.  Raises NormalityError when a point has
    no representation at all, which is exactly a normality failure.
    """
    check_dilation(k)
    cx = rel.complex
    if cx.is_empty:
        return {}
    table = PointVariableTable.from_complex(cx)
    _require_normal_faces(cx)
    pos = {p: i for i, p in enumerate(table.points)}
    targets = sorted(cx.lattice_points(k) - rel.sub.lattice_points(k))
    out = {}
    for z in targets:
        if z[-1] != k:
            raise InvariantError(f"{z} is not at height {k}")
        face = cx.minimal_face_at(z, k)
        sol = _minimal_representation(sorted(face.lattice_points()), z, order)
        if sol is None:
            raise NormalityError(
                f"{z} admits no degree-{k} representation inside its face; "
                f"the face on {list(face.vertices)} is not normal")
        vec = [0] * len(table)
        for p, e in sol.items():
            vec[pos[p]] = e
        out[z] = tuple(vec)
    return out


def hilbert_normal(rel, k, order=GREVLEX):
    """Number of degree-k monomials surviving both ideals: one per point."""
    return len(minimal_representatives(rel, k, order))
