"""The benchmark's workloads: inputs made from a seed, timed steps, checks.

``SETUPS[name](seed)`` builds everything a pass needs before the clock
starts and returns the pass as a list of ``Step``s.  A step is one call
sequence into ``ehrhil``; the steps marked as items are the unit whose
latency is reported.  A step reports each answer it checks through
``check(ok, what)``.

The library is called through module attributes (``constructions.oracle``
rather than a name imported from it) so that the traced run, which
replaces those attributes, sees every call.
"""

import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from ehrhil import (
    complexes,
    constructions,
    normal_sr,
    polynomials,
    polytope,
    srideal,
)
from ehrhil.graphs import Graph

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _graph(n, edges):
    # string labels, so the same graph can be handed to the CLI as JSON
    return Graph(tuple(str(v) for v in range(n)),
                 tuple((str(t), str(h)) for t, h in edges))


# The ROADMAP's ten-graph set, as in scripts/certify_suite.py.
SUITE = {
    "K2": _graph(2, [(0, 1)]),
    "K3": _graph(3, itertools.combinations(range(3), 2)),
    "K4": _graph(4, itertools.combinations(range(4), 2)),
    "P3": _graph(3, [(0, 1), (1, 2)]),
    "C3": _graph(3, [(0, 1), (1, 2), (2, 0)]),
    "C4": _graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "digon": _graph(2, [(0, 1)] * 2),
    "theta": _graph(2, [(0, 1)] * 3),
    "K3_pendant": _graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "loop": _graph(1, [(0, 0)]),
}

# Reorienting an edge changes the LP data, and with it the pivot path of a
# single item's build by up to 2x.  The suite flips edges as its definition
# asks; the workloads meant for run-to-run comparison either keep the
# orientation (the seed orders their items instead) or spend no LP time in
# the pass.
CERTIFY_GRAPHS = tuple(name for name in SUITE if name != "K4")

DILATE_GRAPHS = ("K3", "theta", "P3", "digon")
DILATE_KMAX = 40

# k = 4 would add 13 s to a pass, nearly all of it C4 tension.
NORMAL_CASES = (("K3", "chromatic"), ("theta", "flow"),
                ("C4", "modtension"), ("C4", "tension"))
NORMAL_KS = (1, 2, 3)
NORMAL_ORDERS = (normal_sr.GREVLEX, normal_sr.GRLEX)

# (dimension, vertex count, polytopes).  Each polytope is the hull of a
# full-dimensional subset of the cube's vertices, drawn once per stratum
# from a fixed generator; a run's seed maps it through a random symmetry of
# the cube and draws the pulling orders.  The coordinates, the LP data and
# the orders change with the seed, the work of a pass does not, so its time
# is comparable across seeds.  Every 7-subset of the 3-cube is the cube
# minus a vertex, which is not compressed: the sampled is_compressed can
# miss that, and the workload has to keep showing it when it does.
PULLING_STRATA = ((3, 4, 4), (3, 5, 4), (3, 6, 4), (3, 7, 4), (3, 8, 4),
                  (4, 5, 4), (4, 6, 4), (4, 7, 4), (4, 8, 4), (4, 9, 4))
PULLING_SHAPE_SEED = 0
PULLING_ORDERS = 5
PULLING_BUDGET = 50


@dataclass(frozen=True)
class Step:
    id: str
    run: Callable
    item: bool = True


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def _flipped(g, rng):
    """The graph with each edge reversed with probability one half."""
    return g.reoriented([i for i in range(len(g.edges)) if rng.random() < .5])


def basis(poly):
    return [str(c) for c in poly.binomial_basis]


def certify(kind, g):
    """The chain ``ehrhil certify`` runs for one kind, at its default ks.

    Returns the ks, the three routes' values (brute force, lattice points,
    Hilbert function of the pulled pair) and the interpolant of the brute
    force values.
    """
    d = constructions.degree_bound(kind, g)
    ks = tuple(range(1, d + 3))
    rel = constructions.build_family(kind, g).relative
    lattice = tuple(rel.count_points(k) for k in ks)
    f = rel.pulled_f_vector()
    hilbert = tuple(srideal.hilbert_from_f(f, k) for k in ks)
    brute = tuple(constructions.oracle(kind, g, k) for k in ks)
    poly = polynomials.interpolate(tuple(zip(ks, brute)), d)
    return ks, brute, lattice, hilbert, poly


# -- suite --------------------------------------------------------------------

def _suite_item(kind, g, golden, check):
    ks, brute, lattice, hilbert, poly = certify(kind, g)
    check(brute == lattice == hilbert,
          f"brute {brute}, lattice {lattice}, hilbert {hilbert} disagree")
    check(basis(poly) == golden,
          f"binomial basis {basis(poly)}, golden {golden}")


def suite(seed):
    rng = random.Random(seed)
    golden = load_golden()["bases"]
    steps = []
    for name, g in SUITE.items():
        g = _flipped(g, rng)
        for kind in constructions.KINDS:
            steps.append(Step(f"{name}/{kind}", partial(
                _suite_item, kind, g, golden[name][kind])))
    return steps


def certify_workload(seed):
    """The suite's chain on the graphs besides K4, in a seeded order.

    K4 takes about 35 of the suite's 45 seconds, which would leave room for
    one pass per run.
    """
    golden = load_golden()["bases"]
    steps = [Step(f"{name}/{kind}", partial(
                 _suite_item, kind, SUITE[name], golden[name][kind]))
             for name in CERTIFY_GRAPHS for kind in constructions.KINDS]
    random.Random(seed).shuffle(steps)
    return steps


# -- dilate -------------------------------------------------------------------

def _dilate_prep(kind, g, rel, golden, state, check):
    state["f"] = rel.pulled_f_vector()
    d = constructions.degree_bound(kind, g)
    brute = [(k, constructions.oracle(kind, g, k)) for k in range(1, d + 3)]
    state["poly"] = polynomials.interpolate(brute, d)
    check(basis(state["poly"]) == golden,
          f"binomial basis {basis(state['poly'])}, golden {golden}")


def _dilate_item(rel, k, state, check):
    want = state["poly"].evaluate(k)
    got = rel.count_points(k)
    check(got == want, f"lattice points {got}, interpolant {want}")
    got = srideal.hilbert_from_f(state["f"], k)
    check(got == want, f"hilbert {got}, interpolant {want}")


def dilate(seed):
    rng = random.Random(seed)
    golden = load_golden()["bases"]
    steps = []
    for name in DILATE_GRAPHS:
        g = _flipped(SUITE[name], rng)
        for kind in constructions.KINDS:
            rel = constructions.build_family(kind, g).relative
            state = {}
            pair = f"{name}/{kind}"
            steps.append(Step(f"{pair}/prep", partial(
                _dilate_prep, kind, g, rel, golden[name][kind], state),
                item=False))
            steps += [Step(f"{pair}/k={k}", partial(_dilate_item, rel, k,
                                                      state))
                      for k in range(1, DILATE_KMAX + 1)]
    # the pass uses the complexes held above, never build_family
    constructions.build_family.cache_clear()
    return steps


# -- normal -------------------------------------------------------------------

def _normal_item(hrel, k, order, want, check):
    reps = normal_sr.minimal_representatives(hrel, k, order)
    got = hrel.count_points(k)
    check(len(reps) == got == want,
          f"{len(reps)} witnesses, {got} lattice points, golden {want}")


def normal(seed):
    cases = list(NORMAL_CASES)
    random.Random(seed).shuffle(cases)
    golden = load_golden()["normal"]
    steps = []
    for name, kind in cases:
        hrel = normal_sr.homogenize(
            constructions.build_family(kind, SUITE[name]).relative)
        counts = golden[f"{name}/{kind}"]
        for k in NORMAL_KS:
            for order in NORMAL_ORDERS:
                steps.append(Step(f"{name}/{kind}/k={k}/{order.kind}", partial(
                    _normal_item, hrel, k, order, counts[k - 1])))
    constructions.build_family.cache_clear()
    return steps


# -- pulling ------------------------------------------------------------------

def _pulling_shapes():
    """(dim, points) per polytope, the same for every run."""
    rng = random.Random(PULLING_SHAPE_SEED)
    shapes = []
    for dim, size, count in PULLING_STRATA:
        cube = list(itertools.product((0, 1), repeat=dim))
        for _ in range(count):
            pts = rng.sample(cube, size)
            while polytope.affine_rank(pts) != dim:
                pts = rng.sample(cube, size)
            shapes.append((dim, pts))
    return shapes


def _cube_symmetry(rng, dim):
    """A random coordinate permutation composed with random reflections."""
    perm = rng.sample(range(dim), dim)
    flip = [rng.randrange(2) for _ in range(dim)]
    return lambda p: tuple(p[perm[i]] ^ flip[i] for i in range(dim))


def _pulling_item(points, orders, seed, check):
    dim = len(points[0])
    p = polytope.LatticePolytope(points)
    two = p.is_two_level()
    compressed = p.is_compressed(order_budget=PULLING_BUDGET, seed=seed)
    # Sullivant: compressed exactly when two-level
    check(two == compressed,
          f"is_two_level {two}, sampled is_compressed {compressed}")
    rel = complexes.RelativeComplex(
        complexes.PolytopalComplex([p]),
        complexes.PolytopalComplex([], ambient_dim=dim))
    fs = [complexes.relative_f_vector(*rel.pulled_pair(order))
          for order in orders]
    if two:
        check(len(set(fs)) == 1, f"relative f-vectors {sorted(set(fs))} "
              f"depend on the pulling order")
        for k in range(1, dim + 2):
            got, want = srideal.hilbert_from_f(fs[0], k), rel.count_points(k)
            check(got == want, f"k={k}: hilbert {got}, lattice points {want}")


def pulling(seed):
    rng = random.Random(seed)
    steps = []
    for i, (dim, shape) in enumerate(_pulling_shapes()):
        points = sorted(map(_cube_symmetry(rng, dim), shape))
        # a 0/1 polytope has no lattice points besides its vertices
        orders = [rng.sample(points, len(points))
                  for _ in range(PULLING_ORDERS)]
        steps.append(Step(f"{dim}d/{len(points)}v/{i}", partial(
            _pulling_item, points, orders, seed)))
    return steps


SETUPS = {"suite": suite, "certify": certify_workload, "dilate": dilate,
          "normal": normal, "pulling": pulling}
