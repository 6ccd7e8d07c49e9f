"""Polytopal complexes, relative pairs, and their pulling triangulations.

A complex is stored by its maximal cells; faces are recovered from the
cells' own face lattices and identified across cells by vertex set.  A
relative pair (C, C') with C' a subcomplex of C stands for the point set
union(C) minus union(C'), which is what gets counted.  C' is read off C
cell by cell (`faces_in_hyperplanes`): a plane that supports a cell
meets it in one face, its tight vertex set, so no face of C is tested
against every plane, and only the maximal sets found are built.

The count of a pair is a sum over the open faces of C outside C': one
walk of each face's own lattice frame, or of a cell closed less its
dropped faces.  A walk's count depends only on the frame's rows, its box
and whether it is open, so the terms are grouped by those once
(`RelativeComplex._count_program`), and each distinct frame is walked
once per k: the constructions repeat a few shapes many times.

Validation checks that all cells meet in common faces.  It is enough to
check maximal cells pairwise: if P cap Q is a common face R for maximal
P, Q, then for any faces F of P and G of Q the set F cap G equals
(F cap R) cap (G cap R), an intersection of two faces of the polytope R,
hence a face of R contained in F and G, hence a face of each.  A pair is
decided by cutting the two vertex sets along the cells' facet rows, and
then their hull equalities, with no LP and no face built
(`meet_in_common_face`); what the cuts leave open is decided from the
shared vertices with at most one LP.

The Hilbert route pulls each face of C once under one global order
(`_pull_face`; De Loera, Rambau & Santos, *Triangulations*, 4.3): pulling
a face restricts pulling any face around it, so a memo keyed by a face's
lattice points holds its maximal simplices and its interior counts, and
the relative f-vector is the sum of those counts over the faces of C that
lie in no cell of C'.  The pulling of C' is read off the same memo, so it
lies in the pulling of C by construction.  The tests hold the memo to the
literal pair: each complex pulled cell by cell (`pull_complex`), and the
relative f-vector listed off their simplices (`relative_f_vector`).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .exact import LinearSystem, check_dilation, dot, lp_feasible
from .polytope import (_bits, _box, _faces_below, _facets_of, _walk,
                       simplex_is_unimodular)


class InvalidComplexError(ValueError):
    """Two cells meet outside a common face."""


class NotCompressedError(RuntimeError):
    """A pulling triangulation produced a non-unimodular simplex."""


# ---------------------------------------------------------------------------
# pairwise intersection checking


def _smallest_face_at(poly, z, k):
    """Vertex set of the smallest face of poly holding z/k."""
    vs = frozenset(poly.vertices)
    for (a, b), tight in zip(poly.facets, poly._facet_vertex_sets):
        if dot(a, z) == k * b:
            vs &= tight
    return vs


def _lp_face_check(p, q):
    """Decide `p cap q is a common face` with at most one LP.

    A common face F has exactly the shared vertices S as its vertices: a
    face's vertices are vertices of both polytopes, and a shared vertex lies
    in F.  So with S empty the pair must be disjoint; otherwise S must be a
    face of both, and p cap q must not leave it.  The sum c of p's facet
    normals through S peaks on p exactly at conv(S), so p cap q leaves S
    exactly when it holds a point strictly below that peak.
    """
    shared = frozenset(p.vertices) & frozenset(q.vertices)
    eq = list(p.hull_equalities) + list(q.hull_equalities)
    le = list(p.facets) + list(q.facets)
    if not shared:
        return lp_feasible(LinearSystem(p.ambient_dim, eq=eq, le=le)) is None
    if shared not in p.face_vertex_sets or shared not in q.face_vertex_sets:
        return False
    if shared == frozenset(p.vertices):
        return True
    through = [ab for ab, tight in zip(p.facets, p._facet_vertex_sets)
               if shared <= tight]
    c = tuple(map(sum, zip(*(a for a, _ in through))))
    peak = sum(b for _, b in through)
    return lp_feasible(LinearSystem(p.ambient_dim, eq=eq, le=le,
                                    lt=[(c, peak)])) is None


def _on_unless_below(a, b, points):
    """The points on a.x = b, or None when one lies below it."""
    on = []
    for w in points:
        x = dot(a, w)
        if x < b:
            return None
        if x == b:
            on.append(w)
    return frozenset(on)


def meet_in_common_face(p, q):
    """True when p cap q is a face of both polytopes (the empty set counts).

    Two vertex sets, first p's and q's, are cut along the facet rows of
    both.  A row a.x <= b of one side holds on its set; when the other set
    lies weakly beyond it, a.x = b supports both hulls, so cutting both sets
    to their points on it keeps their meet and keeps each set a face.  The
    pair is disjoint when a cut empties a set or the sets' boxes lie apart,
    and meets in a common face when the sets are equal.  When a pass over
    the rows cuts nothing, each hull equality a.x = c of either cell joins
    them once as two rows, a.x <= c and -a.x <= -c, tight on that cell's
    whole set: so cells in parallel planes, whose boxes may overlap, come
    apart.  When no row cuts further, `_lp_face_check` decides p and q
    themselves.
    """
    sets = [frozenset(p.vertices), frozenset(q.vertices)]
    rows = [(ab, tight, side) for side, poly in enumerate((p, q))
            for ab, tight in zip(poly.facets, poly._facet_vertex_sets)]
    flat = [(0, p), (1, q)]  # the cells whose equalities are not rows yet
    boxes = p.bounding_box, q.bounding_box
    while sets[0] != sets[1] and not any(
            ph < ql or qh < pl for (pl, ph), (ql, qh) in zip(*boxes)):
        before = sets
        for (a, b), tight, side in rows:
            on = _on_unless_below(a, b, sets[1 - side])
            if on is not None:
                sets = [s & tight if i == side else on
                        for i, s in enumerate(sets)]
                if not all(sets):
                    return True
        if sets == before:
            if not flat:
                return _lp_face_check(p, q)
            rows, flat = rows + [
                (row, frozenset(poly.vertices), side) for side, poly in flat
                for a, c in poly.hull_equalities
                for row in ((a, c), (tuple(-x for x in a), -c))], ()
        boxes = map(_box, sets)
    return True


# ---------------------------------------------------------------------------
# complexes


def _maximal(sets, inside):
    """The vertex sets, largest first, that lie `inside` no earlier kept one.

    `inside(vs, big)` may hold only when vs is a subset of big, so only the
    kept sets through one vertex of vs are asked: those of the vertex that
    the fewest kept sets hold.
    """
    kept, through = [], {}
    for vs in sorted(sets, key=len, reverse=True):
        near = min((through.get(v, ()) for v in vs), key=len)
        if not any(inside(vs, big) for big in near):
            kept.append(vs)
            for v in vs:
                through.setdefault(v, []).append(vs)
    return kept


class PolytopalComplex:
    """Finite polytopal complex, held by its maximal cells."""

    def __init__(self, cells, ambient_dim=None):
        # one cell per vertex set, or the face table would own faces twice
        cells = sorted({frozenset(c.vertices): c for c in cells}.values(),
                       key=lambda c: c.vertices)
        dims = {c.ambient_dim for c in cells}
        if len(dims) > 1:
            raise ValueError("cells live in different ambient spaces")
        if dims:
            ambient = dims.pop()
            if ambient_dim is not None and ambient_dim != ambient:
                raise ValueError("ambient_dim does not match the cells")
            ambient_dim = ambient
        self.ambient_dim = ambient_dim
        self.maximal_cells = tuple(cells)

    @classmethod
    def generated_by(cls, polytopes, ambient_dim=None):
        """Complex of all faces of the given polytopes (maximal ones kept).

        Largest vertex sets first, so a polytope's strict supersets come
        earlier; a face of a face is a face, so one pass that drops every
        polytope that is a face of one already kept leaves the maximal
        cells (`_maximal`, which asks only the kept polytopes through one
        of its vertices).  A polytope lying inside another without being
        its face is kept, and validate() refuses the pair.
        """
        unique = {frozenset(p.vertices): p for p in polytopes}
        kept = _maximal(
            unique, lambda vs, big: vs in unique[big].face_vertex_sets)
        return cls([unique[vs] for vs in kept], ambient_dim=ambient_dim)

    def __eq__(self, other):
        return (isinstance(other, PolytopalComplex)
                and self.maximal_cells == other.maximal_cells)

    def __repr__(self):
        return (f"PolytopalComplex({len(self.maximal_cells)} maximal cells, "
                f"dim={self.dim})")

    @property
    def is_empty(self):
        return not self.maximal_cells

    @property
    def dim(self):
        return max((c.dim for c in self.maximal_cells), default=-1)

    @cached_property
    def all_faces(self):
        """Vertex set of every face -> the first maximal cell that has it.

        One face lies in another exactly when its vertex set does, so faces
        are selected by key alone; owner.face(vs) builds one where it is read.
        """
        faces = {}
        for cell in self.maximal_cells:
            for vs in cell.face_vertex_sets:
                faces.setdefault(vs, cell)
        return faces

    def lattice_points(self, k=1):
        check_dilation(k)
        return set().union(*(c.lattice_points(k) for c in self.maximal_cells))

    @cached_property
    def points(self):
        """The cells' lattice points, sorted: listed once per complex."""
        return tuple(sorted(self.lattice_points(1)))

    def minimal_face_at(self, z, k):
        """Smallest face containing z/k, or None when it lies outside.

        The integer point z is tested against the k-th dilates, so no
        rational point is formed.  Faces containing a common point are
        closed under intersection, so intersecting the tightest face of
        every cell around the point gives the unique minimal one; the point
        is in its relative interior.  The tests hold the witness search's
        walk of RelativeComplex._open_faces to this reference.
        """
        vs = None
        for cell in self.maximal_cells:
            if cell.contains(z, k):
                tight = _smallest_face_at(cell, z, k)
                vs = tight if vs is None else vs & tight
        return None if vs is None else self.all_faces[vs].face(vs)

    def faces_in_hyperplanes(self, planes):
        """Subcomplex of all faces lying inside one of the given hyperplanes.

        Read cell by cell.  A face of C inside a plane is a face of some
        cell; when the plane supports that cell (the cell on one side), the
        face lies in the plane's tight set, itself a face of the cell inside
        the plane, and when the plane cuts the cell, the face is one of the
        cell's faces inside the plane.  So the faces sought are the maximal
        sets among those, each read off its owner's face lattice.
        """
        found = set()
        for cell in self.maximal_cells:
            verts = cell.vertices
            for a, b in planes:
                values = [dot(a, v) for v in verts]
                on = frozenset(v for v, x in zip(verts, values) if x == b)
                if not on:
                    continue
                if min(values) < b < max(values):
                    found.update(vs for vs in cell.face_vertex_sets
                                 if vs <= on)
                else:
                    found.add(on)
        faces = self.all_faces
        return PolytopalComplex(
            [faces[vs].face(vs) for vs in _maximal(found, frozenset.__lt__)],
            ambient_dim=self.ambient_dim)

    def validate(self):
        """Raise InvalidComplexError unless all cells meet in common faces."""
        for p, q in itertools.combinations(self.maximal_cells, 2):
            if not meet_in_common_face(p, q):
                raise InvalidComplexError(
                    f"cells {list(p.vertices)} and {list(q.vertices)} "
                    f"do not meet in a common face")


class SimplicialComplex:
    """Simplicial complex given by its maximal simplices as vertex sets.

    The pulled triangulation and the complex behind a relative
    Stanley-Reisner ideal are this one object; `ground` gives the ideal its
    variables.  `faces` holds every subset of a maximal simplex, the empty
    face included, so the complex with no simplices and the complex whose
    only face is the empty one stay distinct.

    Unchecked: no given simplex may lie inside another.  A pulling of a
    valid complex meets this, since a simplex pulled from a maximal cell P
    has dimension dim P, and if it lay inside a simplex of another cell Q,
    P cap Q would be a face of P of full dimension, so P a face of Q.
    """

    def __init__(self, simplices):
        self.maximal_simplices = frozenset(map(frozenset, simplices))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.maximal_simplices == other.maximal_simplices)

    def __hash__(self):
        return hash(self.maximal_simplices)

    @cached_property
    def faces(self):
        out = set()
        for s in self.maximal_simplices:
            for r in range(len(s) + 1):
                out.update(map(frozenset, itertools.combinations(s, r)))
        return frozenset(out)

    @cached_property
    def ground(self):
        """The vertices, sorted."""
        return tuple(sorted(set().union(*self.maximal_simplices)))

    @property
    def dim(self):
        return max((len(s) for s in self.maximal_simplices), default=0) - 1

    def f_vector(self):
        """Face counts by dimension; the empty face is not counted."""
        f = [0] * (self.dim + 1)
        for s in self.faces:
            if s:
                f[len(s) - 1] += 1
        return tuple(f)

    def first_non_unimodular(self):
        """Least non-unimodular maximal simplex as a sorted list, or None."""
        return next((s for s in sorted(map(sorted, self.maximal_simplices))
                     if not simplex_is_unimodular(s)), None)


def _ranks(pts, order):
    """Rank of each point in the order (sorted when None), which may hold
    points outside pts; ValueError when it misses one of pts."""
    if order is None:
        order = sorted(pts)
    rank = {p: i for i, p in enumerate(order)}
    missing = pts - rank.keys()
    if missing:
        raise ValueError(f"order is missing lattice points: {sorted(missing)}")
    return rank


def pull_complex(cx, order=None):
    """Pulling triangulation of a whole complex under one global point order.

    Triangulating each cell with the same order is consistent across shared
    faces because pulling a face equals the restriction of pulling the cell.
    The order may hold points outside the complex; only their ranks matter.
    """
    rank = _ranks(cx.lattice_points(1), order)
    return SimplicialComplex(s for cell in cx.maximal_cells
                             for s in cell.pull_maximal_simplices(rank))


def relative_f_vector(delta, gamma):
    """Face counts by dimension of faces(delta) minus faces(gamma), the
    empty face not counted."""
    if not gamma.faces <= delta.faces:
        raise ValueError("gamma is not a subcomplex of delta")
    kept = [s for s in delta.faces - gamma.faces if s]
    f = [0] * max(map(len, kept), default=0)
    for s in kept:
        f[len(s) - 1] += 1
    return tuple(f)


def _mask_reader(cell, pts, bit):
    """Map a face's vertex set to the mask of its lattice points' bits,
    given the cell's lattice points `pts`.

    A lattice point of the cell that is not a vertex lies in a face exactly
    when the smallest face holding it does.
    """
    verts = frozenset(cell.vertices)
    extra = [(bit[q], _smallest_face_at(cell, q, 1))
             for q in pts if q not in verts] if len(pts) > len(verts) else []

    def mask(vs):
        m = 0
        for v in vs:
            m |= bit[v]
        for b, carrier in extra:
            if carrier <= vs:
                m |= b
        return m
    return mask


def _components(plan):
    """The entries (cell, ...) of `plan` by the connected components of the
    cells, first seen first; a union-find joins cells sharing a vertex."""
    root = {}

    def find(v):
        while root.setdefault(v, v) != v:
            root[v] = v = root[root[v]]
        return v
    for cell, *_ in plan:
        for v in cell.vertices[1:]:
            root[find(v)] = find(cell.vertices[0])
    groups = {}
    for entry in plan:
        groups.setdefault(find(entry[0].vertices[0]), []).append(entry)
    return groups.values()


def _pull_face(memo, m, dim, around):
    """The memo entry of the face m of dimension dim, which lies in a face
    whose facets are `around` (a cell passes its own facets).

    Pulls the faces of a complex, once per face, under one order.  A face
    is keyed by the mask of its lattice points, bit i standing for the i-th
    lattice point of the complex in the order, so its first point v in the
    order is the mask's lowest bit.  `memo` maps a face F to (simplices,
    interior): the masks of the maximal simplices of F's pulling, and
    I(F), the number of its simplices of each dimension lying in the
    relative interior of F.

    A simplex whose only lattice points are its vertices stays whole and
    has I = e_dim; so do its faces.  Otherwise F's pulling is the cone from
    v over the pullings of the facets that miss v, which are the memoized
    ones, as pulling a face is the restriction of pulling any face around
    it.  The cone over a simplex lying in the relative interior of a
    proper face H is interior to F exactly when no facet of F through v
    holds H; and v alone is when v lies on no facet.  So I(F)[0] is that,
    and I(F)[i+1] the sum of I(H)[i] over those H.  Every facet holding
    such an H misses v, so H is an intersection of those facets, read off
    them by `_faces_below`.
    """
    if m.bit_count() == dim + 1:
        facets = [m ^ low for low in _bits(m)] if dim else []
        for g in facets:
            if g not in memo:
                _pull_face(memo, g, dim - 1, ())
        got = [m], [0] * dim + [1]
    else:
        facets = _facets_of(m, around)
        for g in facets:
            if g not in memo:
                _pull_face(memo, g, dim - 1, facets)
        v = m & -m
        near = [g for g in facets if g & v]
        far = [g for g in facets if not g & v]
        inside = [h for h in _faces_below(m, far)
                  if h != m and all(h & ~g for g in near)]
        got = ([s | v for g in far for s in memo[g][0]],
               [int(not near), *map(sum, itertools.zip_longest(
                   *(memo[h][1] for h in inside), fillvalue=0))])
    memo[m] = got
    return got


class RelativeComplex:
    """Pair (C, C') standing for the lattice point set union(C) - union(C')."""

    def __init__(self, complex, sub):
        if not sub.is_empty and sub.ambient_dim != complex.ambient_dim:
            raise ValueError("ambient spaces differ")
        self.complex = complex
        self.sub = sub
        self._check_sub()

    def _check_sub(self):
        """ValueError unless every cell of C' is a face of C.

        The constructor checks it, and so does `_open_faces`, which both
        counting routes read, for a pair built past the constructor: under
        `python -O` too, so C' never holds points outside C unnoticed.
        """
        for cell in self.sub.maximal_cells:
            if frozenset(cell.vertices) not in self.complex.all_faces:
                raise ValueError(f"C' cell {list(cell.vertices)} is not a "
                                 f"face of C, so C' is not a subcomplex")

    def __repr__(self):
        return f"RelativeComplex({self.complex!r} minus {self.sub!r})"

    @cached_property
    def _open_faces(self):
        """(cell, kept, dropped) per maximal cell of C: its faces' vertex sets.

        A face of C is kept by the first maximal cell that has it, unless
        it lies in a cell s of C'.  In a valid complex such a face is a face
        of s, so of the cell of C that owns s, and the faces to drop are
        read off those owners' face lattices.  Every lattice point of
        k * (union(C) - union(C')) lies in the open dilate of exactly one
        kept face; count_points and the witness search both read that off
        this table.
        """
        self._check_sub()
        faces = self.complex.all_faces
        inside = set()
        for cell in self.sub.maximal_cells:
            s = frozenset(cell.vertices)
            inside.update(vs for vs in faces[s].face_vertex_sets if vs <= s)
        plan = []
        for cell in self.complex.maximal_cells:
            kept, dropped = [], []
            for vs in cell.face_vertex_sets:
                if faces[vs] is cell and vs not in inside:
                    kept.append(vs)
                else:
                    dropped.append(vs)
            plan.append((cell, kept, dropped))
        return plan

    @cached_property
    def _count_program(self):
        """The count as k-free terms (c, plan, step): c times a frame's walk.

        A kept face of `_open_faces` gives (+1, step 1), its open dilate; a
        cell dropping fewer faces than it keeps is counted closed, (+1,
        step 0), less each dropped face, (-1, step 1).  A walk's count
        depends only on its frame's rows, taken as a set, its box and the
        step, so terms with equal keys are merged and those that cancel are
        left out.
        """
        terms = {}

        def add(face, c, step):
            _, rows, plan = face._frame
            key = (tuple(sorted(rows)), tuple(plan[1]), step)
            got = terms.setdefault(key, [0, plan, step])
            got[0] += c

        for cell, kept, dropped in self._open_faces:
            if len(dropped) < len(kept):
                add(cell, 1, 0)
                for vs in dropped:
                    add(cell.face(vs), -1, 1)
            else:
                for vs in kept:
                    add(cell.face(vs), 1, 1)
        return tuple(tuple(t) for t in terms.values() if t[0])

    def count_points(self, k):
        """Number of lattice points of k * (union(C) - union(C')).

        Every point of k * union(C) lies in the relative interior of exactly
        one face of C, so the count is the sum, over the faces of C lying in
        no cell of C', of the points in their open dilates: the terms of
        `_count_program`, each distinct frame walked once.  No point is
        listed.  The sum is exact when C is a valid complex (cells
        meeting in common faces), which the Hilbert-function route assumes
        as well: build_family's complexes are checked by the test suite and
        JSON complexes when they are loaded.
        """
        check_dilation(k)
        return sum(c * _walk(plan, k, step)
                   for c, plan, step in self._count_program)

    def pulled_pair(self, order=None):
        """Pullings (Delta, Gamma) of C and of C' under the same order.

        Pulling a face is the restriction of pulling any cell around it, so
        Gamma is the part of Delta lying inside C'; relative_f_vector checks
        that Gamma is a subcomplex of Delta.
        """
        return pull_complex(self.complex, order), pull_complex(self.sub, order)

    def _pull_by_face(self, order=None, faces=()):
        """(Delta, pulled, f): the pullings of C and of the faces of C named by
        vertex set in `faces` (Gamma for the cells of C'), and the relative
        f-vector, off one memo per connected component of C (`_components`),
        for short masks: a cell's pulling depends only on its points' order.  A
        named face is read with its owner in `all_faces`.  f sums I(F) over the
        kept faces of `_open_faces`, read first, so a C' that is not a
        subcomplex is refused before any pulling.  No simplex is checked.
        Each cell's lattice points are listed once per call.
        """
        plan = [(cell, kept, cell.lattice_points(1))
                for cell, kept, _ in self._open_faces]
        rank = _ranks(set().union(*(pts for _, _, pts in plan)), order)
        owned = {}
        for vs in faces:
            owned.setdefault(id(self.complex.all_faces[vs]), []).append(vs)
        delta, pulled, kept_counts = set(), set(), []
        for part in _components(plan):
            ranked = sorted(set().union(*(pts for _, _, pts in part)),
                            key=rank.__getitem__)
            bit = {p: 1 << i for i, p in enumerate(ranked)}
            memo, tops, named = {}, set(), set()
            for cell, kept, pts in part:
                mask = _mask_reader(cell, pts, bit)
                m = mask(frozenset(cell.vertices))
                tops.update((memo.get(m) or _pull_face(
                    memo, m, cell.dim,
                    [mask(t) for t in cell._facet_vertex_sets]))[0])
                kept_counts += [memo[mask(vs)][1] for vs in kept]
                for vs in owned.get(id(cell), ()):
                    named.update(memo[mask(vs)][0])
            for masks, out in ((tops, delta), (named, pulled)):
                out.update(frozenset(ranked[low.bit_length() - 1]
                                     for low in _bits(s)) for s in masks)
        f = map(sum, itertools.zip_longest(*kept_counts, fillvalue=0))
        return SimplicialComplex(delta), SimplicialComplex(pulled), tuple(f)

    def pulled_f_vector(self, order=None):
        """Relative f-vector of the pulled pair; demands unimodular cells.

        This is the vector feeding the binomial count sum_i f_i C(k-1, i),
        which only counts points when every open simplex is unimodular.  It
        is read off one pulling of each face of C (`_pull_by_face`), and
        every maximal simplex of that pulling is checked unimodular;
        NotCompressedError names the least failing one in sorted order.
        Gamma is not read; every cell of C' must be a face of C (ValueError).
        """
        delta, _, f = self._pull_by_face(order)
        bad = delta.first_non_unimodular()
        if bad is not None:
            raise NotCompressedError(f"pulled simplex {bad} is not unimodular")
        return f
