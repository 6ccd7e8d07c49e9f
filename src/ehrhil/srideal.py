"""Relative Stanley-Reisner counting and realizability of
binomial-coefficient vectors.

The Hilbert function of a relative Stanley-Reisner ideal is available twice:
`hilbert_from_f` evaluates the face-count formula sum_i f_i C(k-1, i), and
`hilbert_by_enumeration` counts degree-k monomials with admissible support
outright.  Keeping both routes is the point; they cross-check each other.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import PolytopalComplex, RelativeComplex, SimplicialComplex
from .exact import check_dilation
from .polytope import LatticePolytope


# Faces of the simplices realize_polynomial may build.  K6's chromatic
# vector (0, 0, 0, 0, 0, 720, 720) has 136,800; pulling and counting it
# take seconds, and the time grows with the face count.
REALIZE_FACE_BUDGET = 2 ** 18


class BudgetError(ValueError):
    """A realization would have more faces than REALIZE_FACE_BUDGET."""


@dataclass(frozen=True)
class RelativeSRIdeal:
    """Monomials whose support is a face of `delta` but not of `sub`; the
    complexes are typically a pulled pair (Delta, Gamma)."""

    delta: SimplicialComplex
    sub: SimplicialComplex

    def __post_init__(self):
        if not self.sub.faces <= self.delta.faces:
            raise ValueError("the second complex is not a subcomplex")


def _face_count(c, message):
    """c as an int; ValueError(message.format(c)) unless c is a non-negative
    int (not a bool) or a Fraction of one, the form `--coeffs` arrives in."""
    if type(c) not in (int, Fraction) or c.denominator != 1 or c < 0:
        raise ValueError(message.format(c))
    return int(c)


def hilbert_from_f(f, k):
    """sum_i f_i C(k-1, i) for an int k >= 1; the alternating sum at k = 0.

    The k = 0 value is the Euler characteristic the alternating sum computes,
    which is what the closed formula degenerates to; it is exposed for
    interpolation checks rather than as a monomial count.  A vector of
    non-negative ints is summed as it is; any other goes through
    `_face_count`, which refuses what is not a face count.
    """
    check_dilation(k, least=0)
    f = tuple(f)
    if not all(type(c) is int and c >= 0 for c in f):
        f = [_face_count(c, "face counts must be non-negative integers, "
                            "got {}") for c in f]
    if k == 0:
        return sum((-1) ** i * c for i, c in enumerate(f))
    return sum(c * math.comb(k - 1, i) for i, c in enumerate(f))


def _compositions(total, n):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first, *rest)


def hilbert_by_enumeration(ideal, k):
    """Count degree-k exponent vectors with support in delta minus sub."""
    kept = ideal.delta.faces - ideal.sub.faces
    count = 0
    for u in _compositions(k, len(ideal.delta.ground)):
        supp = frozenset(v for v, e in zip(ideal.delta.ground, u) if e)
        if supp in kept:
            count += 1
    return count


def realize_polynomial(f):
    """Geometric relative complex whose counting function has f as its
    binomial-basis coefficients: f_i pairwise disjoint closed unimodular
    i-simplices with all boundaries removed.

    Simplex number j sits in the hyperplane (first coordinate) = 2j, so the
    cells never touch and the placement is deterministic.  Each is built
    from its rows (`from_certified_rows`), with no subset scan.  Negative or
    fractional coefficients admit no such complex and are rejected, and so
    is a vector whose simplices have more nonempty faces, sum_i f_i
    (2^(i+1) - 1), than REALIZE_FACE_BUDGET, before anything is built.
    """
    coeffs = [_face_count(c, "not realizable: {} is not a non-negative "
                             "integer") for c in f]
    faces = sum(c * (2 ** (i + 1) - 1) for i, c in enumerate(coeffs))
    if faces > REALIZE_FACE_BUDGET:
        raise BudgetError(f"the simplices would have {faces} faces, beyond "
                          f"the budget of {REALIZE_FACE_BUDGET}")
    dims = [i for i, c in enumerate(coeffs) if c]
    if not dims:
        empty = PolytopalComplex([], ambient_dim=1)
        return RelativeComplex(empty, PolytopalComplex([], ambient_dim=1))
    ambient = max(dims) + 1
    cells = []
    for i, c in enumerate(coeffs):
        # x_a >= 0 for each axis 0 < a <= i, and their sum at most 1
        rows = [(tuple(-(b == a) for b in range(ambient)), 0)
                for a in range(1, i + 1)]
        rows.append((tuple(int(0 < b <= i) for b in range(ambient)), 1))
        for _ in range(c):
            base = [0] * ambient
            base[0] = 2 * len(cells)
            verts = [tuple(base)]
            for axis in range(1, i + 1):
                v = list(base)
                v[axis] += 1
                verts.append(tuple(v))
            cells.append(LatticePolytope.from_certified_rows(sorted(verts),
                                                             rows))
    # disjoint simplices: no cell, and no facet, lies in another
    total = PolytopalComplex(cells, ambient_dim=ambient)
    boundary = PolytopalComplex(
        [cell.face(fs) for cell in cells for fs in cell._facet_vertex_sets],
        ambient_dim=ambient)
    return RelativeComplex(total, boundary)
