"""Abstract simplicial complexes, relative Stanley-Reisner counting, and
realizability of binomial-coefficient vectors.

The Hilbert function of a relative Stanley-Reisner ideal is available twice:
`hilbert_from_f` evaluates the face-count formula sum_i f_i C(k-1, i), and
`hilbert_by_enumeration` counts degree-k monomials with admissible support
outright.  Keeping both routes is the point; they cross-check each other.
"""

import itertools
import math
from dataclasses import dataclass

from .complexes import PolytopalComplex, RelativeComplex
from .polytope import LatticePolytope


class AbstractComplex:
    """Subset-closed face family over an ordered ground set.

    The empty complex (no faces at all) and the complex whose only face is
    the empty set are distinct objects, and both are allowed.
    """

    def __init__(self, ground, faces):
        self.ground = tuple(ground)
        self.faces = frozenset(map(frozenset, faces))
        members = set(self.ground)
        if len(members) != len(self.ground):
            raise ValueError("duplicate ground-set labels")
        if self.faces and frozenset() not in self.faces:
            raise ValueError("a nonempty complex must contain the empty face")
        for face in self.faces:
            if not face <= members:
                raise ValueError(f"face {set(face)} leaves the ground set")
            for v in face:
                if face - {v} not in self.faces:
                    raise ValueError("face set is not closed under subsets")

    @classmethod
    def from_maximal(cls, ground, maximal):
        faces = set()
        for m in maximal:
            m = tuple(m)
            for r in range(len(m) + 1):
                faces.update(map(frozenset, itertools.combinations(m, r)))
        return cls(ground, faces)

    def __eq__(self, other):
        return (isinstance(other, AbstractComplex)
                and self.ground == other.ground and self.faces == other.faces)

    def __hash__(self):
        return hash((self.ground, self.faces))

    def __repr__(self):
        return f"AbstractComplex({len(self.ground)} vertices, {len(self.faces)} faces)"

    @property
    def dim(self):
        return max((len(f) for f in self.faces), default=0) - 1

    def f_vector(self):
        """Face counts by dimension; the empty face is not counted."""
        if self.dim < 0:
            return ()
        f = [0] * (self.dim + 1)
        for face in self.faces:
            if face:
                f[len(face) - 1] += 1
        return tuple(f)


def comb(tri):
    """Abstract image of a geometric simplicial complex: vertex sets only."""
    verts = sorted({v for s in tri.maximal_simplices for v in s})
    faces = set(tri.faces)
    if faces:
        faces.add(frozenset())
    return AbstractComplex(verts, faces)


@dataclass(frozen=True)
class RelativeSRIdeal:
    """Monomials whose support is a face of `delta` but not of `sub`."""

    delta: AbstractComplex
    sub: AbstractComplex

    def __post_init__(self):
        if not self.sub.faces <= self.delta.faces:
            raise ValueError("the second complex is not a subcomplex")


def hilbert_from_f(f, k):
    """sum_i f_i C(k-1, i) for k >= 1; the alternating sum at k = 0.

    The k = 0 value is the Euler characteristic the alternating sum computes,
    which is what the closed formula degenerates to; it is exposed for
    interpolation checks rather than as a monomial count.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    for c in f:
        if c != int(c) or c < 0:
            raise ValueError(f"face counts must be non-negative integers, got {c}")
    if k == 0:
        return sum((-1) ** i * int(c) for i, c in enumerate(f))
    return sum(int(c) * math.comb(k - 1, i) for i, c in enumerate(f))


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
    cells never touch and the placement is deterministic.  Negative or
    fractional coefficients admit no such complex and are rejected.
    """
    coeffs = []
    for c in f:
        if c != int(c) or c < 0:
            raise ValueError(
                f"not realizable: {c} is not a non-negative integer")
        coeffs.append(int(c))
    dims = [i for i, c in enumerate(coeffs) if c]
    if not dims:
        empty = PolytopalComplex([], ambient_dim=1)
        return RelativeComplex(empty, PolytopalComplex([], ambient_dim=1))
    ambient = max(dims) + 1
    cells = []
    for i, c in enumerate(coeffs):
        for _ in range(c):
            base = [0] * ambient
            base[0] = 2 * len(cells)
            verts = [tuple(base)]
            for axis in range(1, i + 1):
                v = list(base)
                v[axis] += 1
                verts.append(tuple(v))
            cells.append(LatticePolytope(verts))
    # disjoint simplices: no cell, and no facet, lies in another
    total = PolytopalComplex(cells, ambient_dim=ambient)
    boundary = PolytopalComplex(
        [face for cell in cells for face in cell.facet_subpolytopes()],
        ambient_dim=ambient)
    return RelativeComplex(total, boundary)
