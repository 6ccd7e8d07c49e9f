"""Oriented multigraphs and the enumeration route for the five counting problems.

Graphs are tuples (vertices, edges) with edges as ordered (tail, head) pairs;
loops and parallel edges are allowed.  The `*_bf` oracles enumerate
colorings, flows, or tensions outright; they stay deliberately naive and are
the reference the tests hold the `*_dp` counts to.  Those count the same
things by a frontier dynamic program (the transfer-matrix method: Stanley,
EC1 §4.7; Kochol 2002 for flows): flows and tensions edge by edge, their
state the partial sums of the incidence rows or cycle basis rows still
open, colorings vertex by vertex, their state the colors of the frontier.
The `*_dp` counts are the enumeration route of `constructions.certify`, and
like the `*_bf` ones they know nothing of the geometry that route checks:
this module imports only `exact`.  Before its first step, an enumeration
of more than 2^26 states or a dynamic program of more than 2^26 estimated
states is refused instead of hanging.  Only the `*_bf` counts are
memoized: each caller asks a `*_dp` count once per (graph, k).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exact import InvariantError, check_dilation

# refuse an enumeration or a dynamic program beyond 2^26 (estimated)
# states: one to two minutes on one core (Python 3.11).  The dynamic
# programs ran at a median of 1.2e6 states/s (from 2.4e5/s for wide tension
# states to 5e7/s for loosely bounded flows) in about 2.5 GB at most, the
# enumerations at 0.6-1.1e6 states/s in constant memory.
_DP_BUDGET = 2 ** 26

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


def _check_budget(states, what):
    """ValueError when a walk of `states` states would exceed the budget."""
    if states > _DP_BUDGET:
        raise ValueError(f"{what} {states} states exceeds the budget of "
                         f"{_DP_BUDGET}")


def _count(rows, values, n, modulus=None):
    """Count vectors in values^n orthogonal to all rows (mod the modulus)."""
    _check_budget(len(values) ** n, "enumeration space of")
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
    _check_budget(k ** len(g.vertices), "enumeration space of")
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


# -- frontier dynamic programs ------------------------------------------------

def _greedy_order(supports):
    """Item order that keeps few rows open, for the dynamic programs.

    supports[i] is the set of rows item i touches.  A row is open from the
    first placed item that touches it until the last one.  The rule: the
    next item is the one that leaves the fewest rows open once it is
    placed, ties to the lowest index.
    """
    remaining = {}
    for support in supports:
        for r in support:
            remaining[r] = remaining.get(r, 0) + 1
    open_rows = set()
    left = list(range(len(supports)))
    order = []
    while left:
        i = min(left, key=lambda i: len(open_rows | supports[i]) - sum(
            remaining[r] == 1 for r in supports[i]))
        left.remove(i)
        order.append(i)
        for r in supports[i]:
            remaining[r] -= 1
        open_rows = {r for r in open_rows | supports[i] if remaining[r]}
    return order


def _independent(vectors):
    """Indices of the vectors independent of those before them."""
    kept, pivots = [], []
    for i, v in enumerate(vectors):
        for c, p in pivots:
            if v[c]:
                v = [p[c] * x - v[c] * y for x, y in zip(v, p)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            pivots.append((c, v))
            kept.append(i)
    return kept


@lru_cache(maxsize=CACHE_SIZE)
def _row_steps(rows, n):
    """Edge-by-edge steps that count vectors in values^n orthogonal to rows.

    Edges come in `_greedy_order` of the rows they touch.  The state is the
    partial sums of the open rows.  Each step is (new, coefs, closes, keep,
    spread): `new` rows open with sum 0, `coefs` are the edge's entries in
    the open rows, the rows at `closes` end here and must sum to zero, and
    the rows at `keep` stay open.  Their sums are fixed by those of a row
    basis of them on the edges placed so far, fewest entries first, and
    `spread` is the number of entries each basis row has seen.
    """
    supports = [frozenset(r for r, row in enumerate(rows) if row[e])
                for e in range(n)]
    seen = [0] * len(rows)
    rest = [sum(1 for s in supports if r in s) for r in range(len(rows))]
    placed, open_rows, steps = [], [], []
    for e in _greedy_order(supports):
        new = sorted(supports[e] - set(open_rows))
        open_rows += new
        placed.append(e)
        for r in supports[e]:
            seen[r] += 1
            rest[r] -= 1
        keep = tuple(j for j, r in enumerate(open_rows) if rest[r])
        left = sorted((open_rows[j] for j in keep), key=seen.__getitem__)
        basis = _independent([[rows[r][e] for e in placed] for r in left])
        steps.append((len(new), tuple(rows[r][e] for r in open_rows),
                      tuple(j for j, r in enumerate(open_rows) if not rest[r]),
                      keep, tuple(seen[left[i]] for i in basis)))
        open_rows = [open_rows[j] for j in keep]
    return tuple(steps)


def _count_dp(rows, values, n, modulus=None):
    """`_count` edge by edge; the rows' entries lie in {0, +1, -1}.

    A closing row fixes the edge's value, so a step that closes a row tries
    one value per state instead of all of them.  Before the first step the
    states each step may try are bounded and summed, and a total over the
    budget is refused.  A basis row that has seen c entries holds at most
    2·max|value|·c + 1 sums, and with a modulus no open row holds more than
    `modulus`.
    """
    if not any(map(any, rows)):  # no row ever opens
        return len(values) ** n
    steps = _row_steps(rows, n)
    width = max(values, default=0)
    estimate, bound = 0, 1
    for _, coefs, closes, keep, spread in steps:
        branch = 1 if closes or not any(coefs) else len(values)
        estimate += bound * branch
        sums = 1
        for c in spread:
            sums *= 2 * width * c + 1
        if modulus:
            sums = min(sums, modulus ** len(keep))
        bound = min(bound * branch, sums)
    _check_budget(estimate, "dynamic program of an estimated")
    allowed = frozenset(values)
    states = {(): 1}
    for new, coefs, closes, keep, _ in steps:
        if not any(coefs):  # the edge lies in no row: any value will do
            states = {s: c * len(values) for s, c in states.items()}
            continue
        zeros = (0,) * new
        first = closes[0] if closes else None
        nxt = {}
        for s, c in states.items():
            s += zeros
            if first is None:
                tries = values
            else:
                v = -coefs[first] * s[first]
                if modulus:
                    v %= modulus
                if v not in allowed:
                    continue
                tries = (v,)
            for v in tries:
                t = [x + a * v for x, a in zip(s, coefs)]
                if modulus:
                    t = [x % modulus for x in t]
                if any(t[j] for j in closes):
                    continue
                key = tuple([t[j] for j in keep])
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return states.get((), 0)


@lru_cache(maxsize=CACHE_SIZE)
def _vertex_steps(g):
    """Vertex-by-vertex steps of the proper coloring count of a loopless g.

    Vertices come in `_greedy_order`, each edge (parallel ones merged) a
    row.  The state is the colors of the frontier: placed vertices with a
    neighbor still to place.  Each step is (nbrs, keep, stays): the new
    vertex avoids the colors at frontier positions `nbrs`, the positions
    at `keep` stay on the frontier, and the new vertex joins it when
    `stays`.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    pairs = {frozenset((idx[t], idx[h])) for t, h in g.edges}
    supports = [frozenset(p for p in pairs if i in p) for i in idx.values()]
    order = _greedy_order(supports)
    pos = {v: p for p, v in enumerate(order)}
    later = [max((pos[u] for p in supports[v] for u in p), default=-1)
             for v in range(len(order))]
    frontier, steps = [], []
    for p, v in enumerate(order):
        nbrs = tuple(j for j, u in enumerate(frontier)
                     if frozenset((u, v)) in pairs)
        keep = tuple(j for j, u in enumerate(frontier) if later[u] > p)
        steps.append((nbrs, keep, later[v] > p))
        frontier = [frontier[j] for j in keep] + [v] * (later[v] > p)
    return tuple(steps)


def chromatic_dp(g, k):
    """`chromatic_bf` by a frontier dynamic program over the vertices."""
    check_dilation(k)
    if g.has_loop():
        return 0
    steps = _vertex_steps(g)
    estimate, size = 0, 0
    for _, keep, stays in steps:
        estimate += k ** (size + stays)
        size = len(keep) + stays
    _check_budget(estimate, "dynamic program of an estimated")
    states = {(): 1}
    for nbrs, keep, stays in steps:
        nxt = {}
        for s, c in states.items():
            used = {s[j] for j in nbrs}
            base = tuple([s[j] for j in keep])
            if not stays:
                nxt[base] = nxt.get(base, 0) + c * (k - len(used))
                continue
            for col in range(k):
                if col not in used:
                    key = base + (col,)
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return states.get((), 0)


def int_flow_dp(g, k):
    """`int_flow_bf` edge by edge over the incidence rows."""
    check_dilation(k)
    values = tuple(v for v in range(-k + 1, k) if v)
    return _count_dp(incidence_matrix(g), values, len(g.edges))


def mod_flow_dp(g, k):
    """`mod_flow_bf` edge by edge over the incidence rows."""
    check_dilation(k)
    return _count_dp(incidence_matrix(g), tuple(range(1, k)), len(g.edges),
                     modulus=k)


def int_tension_dp(g, k):
    """`int_tension_bf` edge by edge over the cycle basis."""
    check_dilation(k)
    values = tuple(v for v in range(-k + 1, k) if v)
    return _count_dp(cycle_basis(g), values, len(g.edges))


def mod_tension_dp(g, k):
    """`mod_tension_bf` edge by edge over the cycle basis."""
    check_dilation(k)
    return _count_dp(cycle_basis(g), tuple(range(1, k)), len(g.edges),
                     modulus=k)
