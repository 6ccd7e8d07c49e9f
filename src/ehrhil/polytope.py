"""Lattice polytopes: exact face lattice, point enumeration, pulling.

A polytope is the convex hull of finitely many integer points.  Everything
derived from it (affine hull, facets, faces, lattice points in dilates,
triangulations) is computed over exact integers and rationals; ranks,
kernel lattices and unimodularity by one unimodular column reduction.

A polytope is built from its points only, and finds its facets by double
description (`_double_description`) in its lattice frame, where it is
full-dimensional: each extreme ray of the cone of valid rows is one facet,
and its zero set is the facet's vertex set.  The ray lifted through the
frame's unimodular column reduction is a primitive normal of the facet,
valid on the polytope and tight exactly on the facet, so no elimination
runs per facet.  In full dimension it is the facet's unique primitive
normal; below full dimension a facet has many normals, which differ by
hull equalities and cut the same halfspace of the affine hull, and the
lift picks one.  A face is not rebuilt from its points: its vertices and
facets are read off the face lattice of the polytope it belongs to.  It
has the vertices, affine hull and facet vertex sets of the polytope built
from its vertices, but each of its facets keeps the least facet row tight
on it of the polytope it was read off: a valid normal, which below full
dimension may differ from the lifted ray by a hull equality.

Every polytope has one lattice frame, read off one column reduction of
its vertex differences (`_echelon`) on first read: its dimension, its hull
equalities and lattice coordinates of its affine hull.  So a face that
only lends its vertex set costs no elimination, and a polytope built from
points ranks them all only when they leave one unit cube, to tell whether
every point is a vertex.  A polytope, and each open face as a polytope of
its own, is counted and listed in those coordinates, so the walk runs over
dim F coordinates instead of the ambient ones and under F's own facets
only.  That walk is compiled once per polytope into a k-free plan
(`_plan`), which serves every dilate k*F, closed or open; a listing maps
the coordinates back by a basis of the hull lattice.  No point is cached.

Pulling runs on bitmasks over one listing of a polytope's lattice points:
a face is the mask of its points, its facets are its maximal meets with
the facets of the face around it, and no face polytope is built.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cache, cached_property

from .exact import (
    InvariantError,
    LinearSystem,
    canonical_direction,
    check_dilation,
    column_echelon,
    dot,
    lp_feasible,
    lp_maximize,
    rational_rank,
    reduce_content,
    staircase_basis,
)


class IntegralityError(ValueError):
    """A region that must be a lattice polytope has a fractional vertex."""


def affine_rank(points):
    """Dimension of the affine span of a point collection (-1 when empty)."""
    pts = list(points)
    if not pts:
        return -1
    p0 = pts[0]
    dirs = [[p[i] - p0[i] for i in range(len(p0))] for p in pts[1:]]
    return rational_rank(dirs)


def simplex_is_unimodular(points):
    """Edge vectors form a basis of the lattice inside the affine hull.

    That holds when the edge rows are independent and the gcd of their
    maximal minors is 1.  A unimodular column reduction keeps that gcd,
    which is then the product of the pivots, so every pivot must be +-1.
    """
    pts = list(points)
    p0 = pts[0]
    rows = [[p[i] - p0[i] for i in range(len(p0))] for p in pts[1:]]
    pivots, _, _ = column_echelon(rows, len(p0))
    return len(pivots) == len(rows) and all(abs(p) == 1 for p in pivots)


def _faces_below(top, facets):
    """Every nonempty intersection of `top` with some of `facets`.

    Starting from {top}, every set found so far is intersected with one
    facet at a time.  Given all the facets of a face, these are all its
    nonempty faces, as each is an intersection of facets (Ziegler,
    *Lectures on Polytopes*, Lecture 2).  The sets may be frozensets of
    vertices or integer masks of lattice points.
    """
    found = {top}
    for f in facets:
        found |= {s & f for s in found}
    return {s for s in found if s}


def _bits(m):
    """The set bits of m, lowest first, each as a mask of its own."""
    while m:
        low = m & -m
        yield low
        m ^= low


def _facets_of(m, around):
    """Facets of the face m, given the facets `around` of a face holding m.

    Every facet r of m is a face of the outer face, so some facet h of that
    face holds r but not m, and r is the maximal nonempty meet m & h short
    of m.  Larger meets come first, so a meet inside another is dropped.
    """
    meets = sorted({m & h for h in around} - {0, m},
                   key=int.bit_count, reverse=True)
    out = []
    for c in meets:
        if all(c & ~d for d in out):
            out.append(c)
    return out


def _pull_masks(memo, order, m, dim, around):
    """Masks of the maximal simplices of the pulling of the face m.

    Bit i of a mask stands for the i-th lattice point of the polytope, and
    `order` lists the indices, first pulled first.  The face m has
    dimension dim and lies in a face whose facets are `around` (the
    polytope passes its own).  With dim + 1 points it is an empty simplex
    and stays whole; otherwise its first point v in the order is coned over
    the pullings of its facets (`_facets_of`) that miss v.  `memo` maps the
    face's indices in the order to its cells, as that is all its pulling
    depends on.
    """
    if m.bit_count() == dim + 1:
        return [m]
    key = tuple(i for i in order if m >> i & 1)
    if key not in memo:
        v, facets = 1 << key[0], _facets_of(m, around)
        memo[key] = [s | v for g in facets if not g & v
                     for s in _pull_masks(memo, order, g, dim - 1, facets)]
    return memo[key]


def _orders(n, budget, seed):
    """The orders of range(n) that `is_compressed` samples, drawn as they
    are read: every permutation when n! <= budget, otherwise the identity
    and then `budget` shuffles seeded by `seed`."""
    if math.factorial(n) <= budget:
        yield from itertools.permutations(range(n))
        return
    rng = random.Random(seed)
    yield range(n)
    for _ in range(budget):
        rng.shuffle(perm := list(range(n)))
        yield perm


def _box(points):
    """(least, greatest) value of each coordinate over the points."""
    return tuple((min(c), max(c)) for c in zip(*points))


def _in_unit_cube(box):
    """Every side of the box of some points (`_box`) has length at most one.

    The points are then vertices of one unit cube, and every lattice point
    of their box is a cube vertex, so extreme in any convex subset of the
    box: each point is a vertex of the hull, and the hull has no other
    lattice point.
    """
    return all(hi - lo <= 1 for lo, hi in box)


def _double_description(coords, stair):
    """Facets of the hull of points y of Z^d that span it, as (h, mask).

    A facet is h.(1, y) >= 0 on every point, h primitive, tight exactly on
    the points whose indices are the bits of mask.  These h are the extreme
    rays of the cone of all h with h.(1, y) >= 0 on the points, which the
    double description method finds one point at a time (Motzkin, Raiffa,
    Thompson & Thrall 1953; Fukuda & Prodon 1996).  It starts from the
    simplex of point 0, at the origin, and the `stair` points, which are
    lower triangular with a nonzero diagonal; its rays are its facets.
    Each further point w = (1, y) cuts the cone by h.w >= 0: rays with
    h.w >= 0 stay, and each adjacent pair of rays p, n with p.w > 0 > n.w
    gives the ray (p.w) n - (n.w) p, tight at w.  Adjacency is
    combinatorial: no other ray's zero set holds all that the zero sets of
    p and n share, as the least face of the cone holding p and n then has
    them as its only rays.
    """
    d, first = len(stair), [0, *stair]
    ws = [(1, *y) for y in coords]
    rows, base = [ws[i] for i in first], sum(1 << i for i in first)
    rays = []
    for j, row in enumerate(rows):
        # row k of the triangle is tight on h for each k != j: forward
        # substitution, scaling h wherever a division would not be exact
        h = [0] * (d + 1)
        h[j] = 1
        for k in range(j + 1, d + 1):
            s, c = dot(rows[k], h), rows[k][k]
            m = abs(c) // math.gcd(s, c)
            h = [m * x for x in h]
            h[k] = -(m * s) // c
        if dot(row, h) < 0:
            h = [-x for x in h]
        rays.append((reduce_content(h), base & ~(1 << first[j])))
    for i in sorted(set(range(len(ws))) - set(first)):
        w, bit = ws[i], 1 << i
        masks = [z for _, z in rays]
        split = [(h, z, dot(h, w)) for h, z in rays]
        pos = [t for t in split if t[2] > 0]
        neg = [t for t in split if t[2] < 0]
        rays = [(h, z | bit if x == 0 else z) for h, z, x in split if x >= 0]
        for (hp, zp, xp), (hn, zn, xn) in itertools.product(pos, neg):
            common = zp & zn
            if all(common & ~z for z in masks if z != zp and z != zn):
                rays.append((reduce_content(
                    [xp * b - xn * a for a, b in zip(hp, hn)]), common | bit))
    return rays


def _plan(rows, box):
    """The k-free tables of a walk over the box under the rows (a, s).

    `_walk(plan, k, step)` visits the integer points x of k times the box with
    a.x <= k*s - step for every row.  The least value that the coordinates
    after i can add to a row on the box (its tail) is linear in the box, so
    dilating by k scales the box and every tail by k, and one plan serves every
    k.  The plan holds the right-hand sides s, the box, one level per
    coordinate before the last, and the last coordinate's tables:

    - a level is the coordinate's column and its rows split by the sign of
      a_i: (row, tail) where a_i = 0, (row, |a_i|, tail) otherwise;
    - the last coordinate has no tail.  Its rows are paired with the
      next-to-last column b, (row, |a|, b), so the walk cuts it from
      residual - b*v inline.  The rows with b = 0 are cut once per prefix
      instead (`_cut_last`).  A row with a zero last coefficient is exact
      at the next-to-last level, so only a one-coordinate walk checks it
      here.
    """
    rhs = [s for _, s in rows]
    n = len(box)
    cols = list(zip(*[a for a, _ in rows])) if rhs else [()] * n
    levels = [None] * max(n - 1, 0)
    tail = [0] * len(rhs)
    for i in range(n - 1, 0, -1):
        # fold coordinate i into the tails of the coordinates before it
        lo, hi = box[i]
        tail = [t + (a * lo if a > 0 else a * hi)
                for t, a in zip(tail, cols[i])]
        zero, pos, neg = [], [], []
        for c, (a, t) in enumerate(zip(cols[i - 1], tail)):
            if a > 0:
                pos.append((c, a, t))
            elif a < 0:
                neg.append((c, -a, t))
            else:
                zero.append((c, t))
        levels[i - 1] = (cols[i - 1], zero, pos, neg)
    zero, cut_pos, cut_neg, pos, neg = [], [], [], [], []
    if n:
        prev = cols[n - 2] if n > 1 else [0] * len(rhs)
        for c, (a, b) in enumerate(zip(cols[n - 1], prev)):
            if a == 0:
                if n == 1:
                    zero.append(c)
            elif b == 0:
                (cut_pos if a > 0 else cut_neg).append((c, abs(a)))
            else:
                (pos if a > 0 else neg).append((c, abs(a), b))
    return rhs, box, levels, (zero, cut_pos, cut_neg), (pos, neg)


def _cut_last(residual, fixed, lo, hi):
    """The last coordinate's interval under its rows with b = 0."""
    zero, pos, neg = fixed
    for c in zero:
        if residual[c] < 0:
            return 1, 0
    for c, a in pos:
        top = residual[c] // a
        if top < hi:
            hi = top
    for c, a in neg:
        bottom = -(residual[c] // a)
        if bottom > lo:
            lo = bottom
    return lo, hi


def _walk(plan, k=1, step=0, out=None):
    """Integer points x of k times the plan's box with a.x <= k*s - step.

    Depth first over the coordinates: each partial assignment is cut to the
    interval that every row still allows, given the least value the later
    coordinates can add, so the walk touches little more than the points.
    The thresholds are scaled once per call, and only when k != 1.  At the
    next-to-last coordinate the last one is cut inline, from the residual
    of each row less b*v, with no call and no residual list per prefix.
    Returns the number of points.  When `out` is a list the points are
    appended to it in ascending lex order; otherwise each prefix adds the
    length of the last coordinate's interval.
    """
    rhs, box, levels, fixed, (pos, neg) = plan
    residual = [k * s - step for s in rhs]

    n = len(box)
    if n == 0:
        inside = all(r >= 0 for r in residual)
        if inside and out is not None:
            out.append(())
        return int(inside)
    if k != 1:
        box = [(k * lo, k * hi) for lo, hi in box]
        levels = [(col, [(c, k * t) for c, t in z],
                   [(c, a, k * t) for c, a, t in p],
                   [(c, a, k * t) for c, a, t in m])
                  for col, z, p, m in levels]
    last_lo, last_hi = box[-1]
    if n == 1:
        lo, hi = _cut_last(residual, fixed, last_lo, last_hi)
        if lo > hi:
            return 0
        if out is not None:
            out.extend((v,) for v in range(lo, hi + 1))
        return hi - lo + 1
    inner = n - 2
    x = [0] * n

    def walk(i, residual):
        lo, hi = box[i]
        col, z, p, m = levels[i]
        for c, t in z:
            if residual[c] < t:
                return 0
        for c, a, t in p:
            top = (residual[c] - t) // a
            if top < hi:
                hi = top
        for c, a, t in m:
            # a_i x_i <= residual - t with a_i = -a < 0
            bottom = -((residual[c] - t) // a)
            if bottom > lo:
                lo = bottom
        if lo > hi:
            return 0
        total = 0
        if i < inner:
            for v in range(lo, hi + 1):
                x[i] = v
                total += walk(i + 1, [r - a * v for r, a in zip(residual, col)])
            return total
        # i is the next-to-last coordinate: cut the last one for each v
        lo0, hi0 = _cut_last(residual, fixed, last_lo, last_hi)
        if lo0 > hi0:
            return 0
        up = [(residual[c], a, b) for c, a, b in pos]
        down = [(residual[c], a, b) for c, a, b in neg]
        for v in range(lo, hi + 1):
            top, bottom = hi0, lo0
            for r, a, b in up:
                t = (r - b * v) // a
                if t < top:
                    top = t
            for r, a, b in down:
                t = -((r - b * v) // a)
                if t > bottom:
                    bottom = t
            if bottom <= top:
                total += top - bottom + 1
                if out is not None:
                    x[i] = v
                    prefix = tuple(x[:n - 1])
                    out.extend(prefix + (w,) for w in range(bottom, top + 1))
        return total

    total = walk(0, residual)
    del walk  # the closure refers to itself; free it without the cyclic GC
    return total


class LatticePolytope:
    """Convex hull of integer points, with cached combinatorial structure."""

    def __init__(self, points):
        pts = set()
        for p in points:
            if (q := tuple(map(int, p))) != tuple(p):
                raise ValueError(f"{tuple(p)} is not a lattice point")
            pts.add(q)
        pts = sorted(pts)
        if not pts:
            raise ValueError("a lattice polytope needs at least one point")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points live in different ambient spaces")
        self._start(pts)
        self.vertices = verts = self._extract_vertices(pts)
        # every polytope is full-dimensional in its lattice frame, where the
        # double description finds each facet once, with its vertex set
        dim, u = self._echelon
        rays = _double_description(*self._coords) if dim else []
        found, p0 = {}, verts[0]
        for h, mask in rays:
            tight = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            if len(tight) < dim:
                raise InvariantError(
                    f"facet {sorted(tight)} holds fewer than {dim} vertices")
            # a.x = a.p0 - r.y(x - p0) for r = h[1:], and h0 + r.y >= 0 with
            # equality on the facet.  h0 is -r.y at a facet vertex, so r is
            # primitive as h is, and a is, as U is unimodular
            a = tuple(-sum(r * c[i] for r, c in zip(h[1:], u))
                      for i in range(self.ambient_dim))
            found[tight] = a, h[0] + dot(a, p0)
        for v in verts:
            if (on := sum(v in t for t in found)) < dim:
                raise InvariantError(
                    f"vertex {v} lies on {on} facets, fewer than the "
                    f"dimension {dim}: a facet is missing")
        ordered = sorted(found, key=found.__getitem__)
        self.facets = tuple(found[t] for t in ordered)
        self._facet_vertex_sets = tuple(ordered)

    # -- construction helpers ------------------------------------------------

    def _start(self, pts):
        """Ambient dimension of the points, and empty caches: the faces read
        off this one and the facet masks of `_pulled`."""
        self.ambient_dim = len(pts[0])
        self._face_cache, self._masks = {}, None

    @cached_property
    def _echelon(self):
        """(dim, U): one column echelon of the rows v - p0, p0 the least
        vertex, on first read.  Its rank is the dimension; U's first dim
        columns give the lattice coordinates of `_frame`, and the others
        span the kernel lattice that `hull_equalities` reads."""
        p0 = self.vertices[0]
        pivots, _, u = column_echelon(
            [[x - o for x, o in zip(v, p0)] for v in self.vertices],
            self.ambient_dim)
        return len(pivots), u

    @cached_property
    def _coords(self):
        """(coords, stair): y(v - p0) for each vertex v, its first dim
        entries under `_echelon`'s U, and the indices of the vertices whose
        rows open the pivot columns, one per column in order.  The rows of
        `stair` are lower triangular with a nonzero diagonal."""
        p0 = self.vertices[0]
        dim, u = self._echelon
        diffs = [[x - o for x, o in zip(v, p0)] for v in self.vertices]
        coords = tuple(tuple(dot(z, col) for col in u[:dim]) for z in diffs)
        stair = []
        for i, y in enumerate(coords):
            if len(stair) < dim and y[len(stair)]:
                stair.append(i)
        return coords, tuple(stair)

    @cached_property
    def dim(self):
        return self._echelon[0]

    @cached_property
    def hull_equalities(self):
        """Rows (a, c) with a.x = c on the affine hull, sorted: each kernel
        column of `_echelon`, made primitive and sign fixed, with c = a.p0."""
        dim, u = self._echelon
        p0 = self.vertices[0]
        return tuple(sorted(
            (a, dot(a, p0)) for a in map(canonical_direction, u[dim:])))

    def _extract_vertices(self, pts):
        if _in_unit_cube(_box(pts)) or len(pts) <= affine_rank(pts) + 1:
            # in one unit cube, or affinely independent: all are extreme
            return tuple(pts)
        out = []
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1:]
            m = len(others)
            eq = [(tuple(q[c] for q in others), p[c])
                  for c in range(self.ambient_dim)]
            eq.append(((1,) * m, 1))
            le = [(tuple(-1 if j == t else 0 for j in range(m)), 0)
                  for t in range(m)]
            if lp_feasible(LinearSystem(m, eq=eq, le=le)) is None:
                out.append(p)
        return tuple(out)

    @classmethod
    def from_inequalities(cls, system, box):
        """Hull of the region's lattice points, verified to BE the region.

        `box` gives integer bounds wide enough to contain the region.  After
        collecting the lattice points inside, every facet and hull equality
        of their hull is certified against the region by exact LP; any slack
        means a fractional vertex, reported as IntegralityError.  The cell
        constructions need no such LP (their systems are totally
        unimodular); this is the reference the tests compare them with.
        """
        if system.lt:
            raise ValueError("from_inequalities expects a closed system")
        if len(box) != system.n_vars:
            raise ValueError("box arity mismatch")
        rows = [*system.le, *system.eq,
                *((tuple(-c for c in a), -b) for a, b in system.eq)]
        pts = []
        _walk(_plan(rows, box), 1, 0, pts)
        if not pts:
            raise IntegralityError(
                "region has no lattice points in the given box")
        poly = cls(pts)
        eqs = poly.hull_equalities
        for a, b in [*poly.facets, *eqs,
                     *((tuple(-c for c in a), -b) for a, b in eqs)]:
            got = lp_maximize(system, a)
            if got is not None and got[0] > b:
                raise IntegralityError(
                    f"region exceeds its lattice hull: max {a}.x = {got[0]} > {b}")
        return poly

    # -- basic structure -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={list(self.vertices)})"

    @cached_property
    def bounding_box(self):
        return _box(self.vertices)

    @cached_property
    def _in_unit_cube(self):
        """`_in_unit_cube` of the bounding box, cached, as every call of
        `lattice_points(1)` tests it."""
        return _in_unit_cube(self.bounding_box)

    def contains(self, point, k=1):
        """Membership of a rational point in the k-th dilate."""
        return (all(dot(h, point) == k * c for h, c in self.hull_equalities)
                and all(dot(a, point) <= k * b for a, b in self.facets))

    def is_empty_polytope(self):
        """No lattice points besides the vertices."""
        return len(self.lattice_points()) == len(self.vertices)

    # -- face lattice ----------------------------------------------------------

    @cached_property
    def face_vertex_sets(self):
        """All nonempty faces as vertex sets, the polytope itself included:
        the vertex set closed under its facet sets (`_faces_below`)."""
        return frozenset(_faces_below(frozenset(self.vertices),
                                      self._facet_vertex_sets))

    def face(self, vertex_set):
        fs = frozenset(vertex_set)
        if fs == frozenset(self.vertices):
            return self
        got = self._face_cache.get(fs)
        if got is None:
            if fs not in self.face_vertex_sets:
                raise ValueError(f"{sorted(fs)} is not a face")
            got = self._face_cache[fs] = self._read_face(fs)
        return got

    def _read_face(self, fs):
        """The proper face with vertex set fs, read off this face lattice.

        The vertices of self lying in a face are that face's vertices, so
        no vertex LP is needed.  Every proper face G of F = conv(fs) is a
        face of self, so some facet T of self holds G but not F; F's facets
        are therefore the maximal sets fs & T short of fs, each cut out by
        the least facet inequality of self that is tight on it.
        """
        face = LatticePolytope.__new__(LatticePolytope)
        face.vertices = tuple(sorted(fs))
        face._start(face.vertices)
        cuts = {}
        for ab, tight in zip(self.facets, self._facet_vertex_sets):
            sub = fs & tight
            if sub and sub != fs:
                cuts.setdefault(sub, ab)
        ordered = sorted((sub for sub in cuts
                          if not any(sub < other for other in cuts)),
                         key=cuts.__getitem__)
        face.facets = tuple(cuts[sub] for sub in ordered)
        face._facet_vertex_sets = tuple(ordered)
        return face

    # -- lattice points --------------------------------------------------------

    @cached_property
    def _frame(self):
        """This polytope in its own lattice coordinates: (coords, rows, plan).

        The column reduction of the rows v - p0 (`_echelon`) gives
        D U = [L | 0] with L on a staircase (Cohen 1993, section 2.4).  The
        lattice points of aff(k*P) are k*p0 + z for the integer z with
        z U zero past its first d = dim P entries, and those
        d entries, y(z), are lattice coordinates for them.  `coords` holds
        y(v - p0) for each vertex v: the rows of L.  Each facet a.x <= b
        becomes the row (r, b - a.p0) with r.y(z) = a.z, solved by forward
        substitution down the staircase of L; a.z is an integer at every
        lattice point, so every division is exact.  So a.x <= k*b reads
        r.y <= k*(b - a.p0), and `plan` walks that over the box of the
        vertices' coordinates (see _plan).  Cached: the plan serves every k.
        """
        p0 = self.vertices[0]
        coords, opening = self._coords
        # the rows of D and L that open the pivot columns
        stair = [([x - o for x, o in zip(self.vertices[i], p0)], coords[i])
                 for i in opening]
        rows = []
        for a, b in self.facets:
            r = []
            for j, (z, y) in enumerate(stair):
                q, rem = divmod(dot(a, z) - dot(r, y), y[j])
                if rem:
                    raise InvariantError(
                        f"facet {a} is not integral on the lattice of "
                        f"{list(self.vertices)}")
                r.append(q)
            rows.append((tuple(r), b - dot(a, p0)))
        return coords, tuple(rows), _plan(
            rows, [(min(c), max(c)) for c in zip(*coords)])

    def lattice_points(self, k=1):
        """Integer points of the k-th dilate, in ascending lex order: one
        walk of the frame (`_listed`).  At k = 1 a polytope inside one unit
        cube has its vertices as its only lattice points, and no walk is
        made.  No list is cached; the frame is, and serves every k.
        """
        check_dilation(k)
        if k == 1 and self._in_unit_cube:
            return self.vertices
        return self._listed(k, 0)

    def count_points(self, k=1, face=None):
        """Number of integer points of the k-th dilate, without listing them.

        With `face` (the vertex set of a face F, possibly the whole
        polytope) the count is of the relative interior of k*F: strictly
        inside every facet of F, which for integral rows is at least one
        lattice step inside.  Either way one walk of the polytope's own
        frame (see _frame) counts it, over its dim F lattice coordinates.
        No point is cached; each frame is, so the cache is bounded by the
        face lattice and the plans serve every k.
        """
        check_dilation(k)
        if face is None:
            return _walk(self._frame[2], k)
        return _walk(self.face(face)._frame[2], k, 1)

    @cached_property
    def _basis(self):
        """Columns of a basis B of the lattice of aff(P): v - p0 = y B."""
        return staircase_basis(self.vertices, self._frame[0], self)

    def interior_lattice_points(self, k=1):
        """Lattice points in the relative interior of the k-th dilate, in
        ascending lex order: the open walk of `_listed`."""
        check_dilation(k)
        return self._listed(k, 1)

    def _listed(self, k, step):
        """The points of the k-th dilate a.x <= k*b - step for every facet,
        sorted: the frame walk that `count_points` makes lists their
        coordinates y, each mapped to k*p0 + y B."""
        ys = []
        _walk(self._frame[2], k, step, ys)
        kp0, cols = [k * x for x in self.vertices[0]], self._basis
        return tuple(sorted(tuple(x + dot(y, c) for x, c in zip(kp0, cols))
                            for y in ys))

    # -- lattice geometry predicates -------------------------------------------

    def is_two_level(self):
        """Each facet takes exactly two consecutive lattice values.

        In the frame's coordinates a facet row (r, s) takes the value s on
        the facet, and steps by gcd(r) over the lattice of the affine hull.
        """
        coords, rows, _ = self._frame
        for r, s in rows:
            if sorted({dot(r, y) for y in coords}) != [s - math.gcd(*r), s]:
                return False
        return True

    def normality_counterexample(self):
        """First (k, point) where k-fold sums of height-1 points fall short.

        Checking degrees up to max(2, dim - 1) decides normality: past dim - 1
        the dilate points are always sums of lower ones.  Returns None when
        the polytope is normal.  The answer is cached: polytopes are immutable.
        """
        return self._normality_counterexample

    @cached_property
    def _normality_counterexample(self):
        level = base = set(self.lattice_points(1))
        for k in range(2, max(2, self.dim - 1) + 1):
            sums = {tuple(p[i] + q[i] for i in range(self.ambient_dim))
                    for p in level for q in base}
            target = self.lattice_points(k)
            for z in target:
                if z not in sums:
                    return k, z
            level = set(target)
        return None

    # -- pulling triangulations --------------------------------------------------

    def _pulled(self, pts, order, memo):
        """Masks of the maximal simplices of the pulling under `order`, the
        indices of pts, this polytope's sorted lattice points, first pulled
        first (`_pull_masks`).  Each facet is the mask of the points on its
        row, bit i for pts[i] (its vertex set when pts are the vertices);
        cached, as every listing of pts is the same."""
        if self._masks is None:
            self._masks = [
                sum(1 << i for i, p in enumerate(pts) if dot(a, p) == b)
                for a, b in self.facets]
        return _pull_masks(memo, order, (1 << len(pts)) - 1, self.dim,
                           self._masks)

    def pull_maximal_simplices(self, rank, memo=None):
        """Maximal cells of the pulling triangulation for a point order.

        `rank` maps every lattice point to its priority (lower pulls first).
        The recursion is literal: an empty simplex stays whole; otherwise the
        lowest lattice point v is coned over the pulling of every facet that
        misses v.  It runs on masks over one listing of the lattice points
        (`_pull_masks`), and no face polytope is built: a facet of a face is
        its maximal meet with a facet of the face around it.  Pulling a face
        is the restriction of pulling any face around it (De Loera, Rambau &
        Santos 2010, section 4.3), so it depends only on the face's lattice
        points in rank order; `memo` maps the tuple of their indices in this
        polytope's sorted listing, in rank order, to the face's cells, and a
        face the recursion reaches twice, such as a ridge from both of its
        facets, is pulled once.  Without a memo each call starts its own.  A
        memo may be shared across calls and orders of one polytope only, as
        its keys are indices of this polytope's points.  Each cell is a
        sorted tuple of points.  The cells are the same set with any memo;
        their order in the list may depend on which face around a face
        reached it first.
        """
        return self._pull_listed(self.lattice_points(), rank, memo)

    def _pull_listed(self, pts, rank, memo=None):
        """`pull_maximal_simplices` for a caller that holds `pts`, the
        listing of this polytope's lattice points, already."""
        order = sorted(range(len(pts)), key=[rank[p] for p in pts].__getitem__)
        return [tuple(pts[low.bit_length() - 1] for low in _bits(s))
                for s in self._pulled(pts, order, {} if memo is None else memo)]

    def is_compressed(self, order_budget=50, seed=0):
        """Every pulling triangulation unimodular, checked over point orders.

        Exhaustive over all orders when there are few enough lattice points
        (n! <= order_budget); otherwise the lex order plus order_budget
        seeded shuffles, drawn one at a time (`_orders`), so a failure at an
        early order draws no later one.  The points are listed once, and a
        non-vertex lattice point already rules the property out.  The
        orders share one pulling memo (see pull_maximal_simplices), so a
        face whose points fall in the same relative order under two orders
        is pulled once, and each distinct simplex is tested for
        unimodularity once.
        """
        pts, memo = self.lattice_points(), {}
        if len(pts) != len(self.vertices):
            return False
        unimodular = cache(lambda s: simplex_is_unimodular(
            [pts[low.bit_length() - 1] for low in _bits(s)]))
        return all(unimodular(s)
                   for order in _orders(len(pts), order_budget, seed)
                   for s in self._pulled(pts, order, memo))
