"""Oriented multigraphs and brute-force oracles for the five counting problems.

Graphs are tuples (vertices, edges) with edges as ordered (tail, head) pairs;
loops and parallel edges are allowed.  The oracles enumerate colorings, flows,
or tensions outright and exist as ground truth for the geometric and algebraic
counting routes, so they stay deliberately naive.  A state budget refuses
enumerations beyond desk scale instead of hanging.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exact import InvariantError, check_dilation

# refuse blind enumeration beyond 2^34 states
_STATE_BUDGET = 2 ** 34

# entries per memoized function: far above the graphs a test session or
# the suite script certifies, so they still hit, while a long-lived
# process cannot grow without bound
CACHE_SIZE = 1024


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges",
                           tuple((t, h) for t, h in self.edges))
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        for t, h in self.edges:
            if t not in seen or h not in seen:
                raise ValueError(f"edge ({t!r}, {h!r}) uses unknown vertices")

    def has_loop(self):
        return any(t == h for t, h in self.edges)

    def reoriented(self, flips):
        """Copy with the edges at the given indices reversed."""
        flips = set(flips)
        edges = [(h, t) if i in flips else (t, h)
                 for i, (t, h) in enumerate(self.edges)]
        return Graph(self.vertices, tuple(edges))

    def components(self):
        """Partition of the vertices into connected components."""
        neighbours = {v: [] for v in self.vertices}
        for t, h in self.edges:
            neighbours[t].append(h)
            neighbours[h].append(t)
        seen = set()
        parts = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                for w in neighbours[queue.pop()]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            parts.append(frozenset(comp))
        return tuple(parts)

    def cyclomatic_number(self):
        return len(self.edges) - len(self.vertices) + len(self.components())

    def tension_rank(self):
        return len(self.vertices) - len(self.components())


def complete_graph(n):
    return Graph(tuple(range(n)),
                 tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return Graph(tuple(range(n)),
                 tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n):
    return Graph(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)))


# The ten graphs every counting route must agree on: complete graphs, a
# tree, cycles, parallel edges, a pendant edge and a loop.
SUITE = {
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "P3": path_graph(3),
    "C3": cycle_graph(3),
    "C4": cycle_graph(4),
    "digon": Graph((0, 1), ((0, 1), (0, 1))),
    "theta": Graph((0, 1), ((0, 1), (0, 1), (0, 1))),
    "K3_pendant": Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 0), (2, 3))),
    "loop": Graph((0,), ((0, 0),)),
}


def incidence_matrix(g):
    """Rows per vertex: +1 at its in-edges, -1 at its out-edges, loops zero."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    rows = [[0] * len(g.edges) for _ in g.vertices]
    for e, (t, h) in enumerate(g.edges):
        if t != h:
            rows[idx[h]][e] = 1
            rows[idx[t]][e] = -1
    return tuple(map(tuple, rows))


@lru_cache(maxsize=CACHE_SIZE)
def cycle_basis(g):
    """Fundamental cycles of a spanning forest, one unit vector per loop.

    Every entry lies in {0, +1, -1} and every vector is orthogonal to all
    incidence rows.  Walking both endpoints of a chord to the root makes the
    shared part of the two paths cancel, so no ancestor search is needed.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    neighbours = {v: [] for v in g.vertices}
    for e, (t, h) in enumerate(g.edges):
        if t != h:
            neighbours[t].append((h, e))
            neighbours[h].append((t, e))
    # parent[x] = (parent vertex, tree edge, +1 when the edge points down)
    parent = {}
    in_tree = set()
    for root in g.vertices:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w, e in neighbours[v]:
                if w not in parent:
                    parent[w] = (v, e, 1 if g.edges[e] == (v, w) else -1)
                    in_tree.add(e)
                    queue.append(w)

    def walk_to_root(x, step, out):
        while parent[x] is not None:
            p, e, down = parent[x]
            out[e] += step * down
            x = p

    basis = []
    for e, (t, h) in enumerate(g.edges):
        if t == h:
            vec = [0] * len(g.edges)
            vec[e] = 1
            basis.append(tuple(vec))
        elif e not in in_tree:
            vec = [0] * len(g.edges)
            vec[e] = 1
            walk_to_root(h, -1, vec)  # carry the chord's unit back to its tail
            walk_to_root(t, +1, vec)
            basis.append(tuple(vec))
    if len(basis) != g.cyclomatic_number():
        raise InvariantError(
            f"{len(basis)} basis cycles, cyclomatic number "
            f"{g.cyclomatic_number()}")
    rows = incidence_matrix(g)
    if any(sum(a * c for a, c in zip(row, vec)) != 0
           for vec in basis for row in rows):
        raise InvariantError("a basis vector is not a cycle")
    return tuple(basis)


def _guard(states):
    if states > _STATE_BUDGET:
        raise ValueError(
            f"enumeration space of {states} states exceeds {_STATE_BUDGET}")


def _count(rows, values, n, modulus=None):
    """Count vectors in values^n orthogonal to all rows (mod the modulus)."""
    _guard(len(values) ** n)
    if modulus is None:
        ok = lambda s: s == 0
    else:
        ok = lambda s: s % modulus == 0
    return sum(
        all(ok(sum(a * x for a, x in zip(row, vec))) for row in rows)
        for vec in itertools.product(values, repeat=n))


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def chromatic_bf(g, k):
    """Proper vertex colorings with k colors, by enumerating all of them."""
    check_dilation(k)
    if g.has_loop():
        return 0
    _guard(k ** len(g.vertices))
    idx = {v: i for i, v in enumerate(g.vertices)}
    pairs = [(idx[t], idx[h]) for t, h in g.edges]
    return sum(
        all(col[i] != col[j] for i, j in pairs)
        for col in itertools.product(range(k), repeat=len(g.vertices)))


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def int_flow_bf(g, k):
    """Nowhere-zero integral flows with |values| < k."""
    check_dilation(k)
    rows = [row for row in incidence_matrix(g) if any(row)]
    values = [v for v in range(-k + 1, k) if v]
    return _count(rows, values, len(g.edges))


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def mod_flow_bf(g, k):
    """Nowhere-zero flows with values in Z_k."""
    check_dilation(k)
    rows = [row for row in incidence_matrix(g) if any(row)]
    return _count(rows, range(1, k), len(g.edges), modulus=k)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def int_tension_bf(g, k):
    """Nowhere-zero integral tensions with |values| < k.

    A vector is a tension when it is orthogonal to every cycle; checking a
    cycle basis suffices by linearity.
    """
    check_dilation(k)
    values = [v for v in range(-k + 1, k) if v]
    return _count(cycle_basis(g), values, len(g.edges))


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def mod_tension_bf(g, k):
    """Nowhere-zero tensions with values in Z_k."""
    check_dilation(k)
    return _count(cycle_basis(g), range(1, k), len(g.edges), modulus=k)
