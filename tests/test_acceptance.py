"""The eight acceptance checks, one test per criterion.

Every numeric target is reproduced by the brute-force oracles inside the
run itself; nothing numeric is trusted from outside the repository.  Each
test prints a single verdict line, so `pytest tests/test_acceptance.py -v -s`
reads as a checklist; plain `pytest -v` shows the same verdicts as test
outcomes.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ehrhil.complexes import PolytopalComplex, RelativeComplex, pull_complex
from ehrhil.constructions import (
    KINDS,
    build_family,
    certify,
    degree_bound,
    oracle,
)
from ehrhil.graphs import (
    int_flow_bf,
    int_tension_bf,
    mod_flow_bf,
    mod_tension_bf,
)
from ehrhil.normal_sr import (
    GREVLEX,
    GRLEX,
    PointVariableTable,
    homogenize,
    minimal_representatives,
    polytopal_sr_membership,
)
from ehrhil.polynomials import interpolate
from ehrhil.polytope import LatticePolytope, simplex_is_unimodular
from ehrhil.srideal import realize_polynomial


class _Note:
    detail = ""


@contextmanager
def criterion(number):
    note = _Note()
    try:
        yield note
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {note.detail}")


def _distinct_cells(suite):
    seen = set()
    cells = []
    for g in suite.values():
        for kind in KINDS:
            for cell in build_family(kind, g).relative.complex.maximal_cells:
                if cell.vertices not in seen:
                    seen.add(cell.vertices)
                    cells.append(cell)
    return cells


def test_criterion_1_triple_agreement(suite):
    with criterion(1) as note:
        start = time.monotonic()
        checked = 0
        for name, g in suite.items():
            for kind in KINDS:
                kr = certify(kind, g)
                assert kr.agree, f"{name}: {kr.mismatch()}"
                checked += len(kr.ks)
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"{elapsed:.0f}s breaks the 10 minute budget"
        note.detail = (f"{checked} equalities brute = lattice = Hilbert over "
                       f"{len(suite)} graphs x {len(KINDS)} kinds "
                       f"in {elapsed:.0f}s")


def test_criterion_2_pinned_values(suite):
    with criterion(2) as note:
        chrom = interpolate(
            [(k, oracle("chromatic", suite["K3"], k)) for k in range(1, 5)],
            3)
        assert chrom.binomial_basis == (0, 0, 6, 6)
        assert [mod_flow_bf(suite["K4"], k) for k in (2, 3, 4, 5)] == \
            [0, 0, 6, 24]
        assert all(int_flow_bf(suite["C3"], k) == 2 * (k - 1)
                   for k in range(1, 6))
        assert all(mod_tension_bf(suite["K2"], k) == k - 1
                   for k in range(1, 7))
        for name in ("K2", "P3", "K3_pendant"):  # bridges kill flows
            for k in range(1, 6):
                assert int_flow_bf(suite[name], k) == 0
                assert mod_flow_bf(suite[name], k) == 0
        for k in range(1, 6):  # loops kill tensions
            assert int_tension_bf(suite["loop"], k) == 0
            assert mod_tension_bf(suite["loop"], k) == 0
        note.detail = ("chromatic K3 = (0,0,6,6); K4 modular flow, C3 flow, "
                       "K2 modular tension and the degenerate zeros all match")


def test_criterion_3_compressed_cells_unimodular_pulls(suite):
    with criterion(3) as note:
        cells = _distinct_cells(suite)
        for cell in cells:
            # exhaustive orders up to 7 lattice points (7! = 5040), else 50
            budget = 5040 if len(cell.lattice_points()) <= 7 else 50
            assert cell.is_two_level(), cell.vertices
            assert cell.is_compressed(order_budget=budget, seed=0), \
                cell.vertices
        simplices = 0
        for g in suite.values():
            for kind in KINDS:
                delta, _ = build_family(kind, g).relative.pulled_pair()
                for s in delta.maximal_simplices:
                    assert simplex_is_unimodular(sorted(s)), (kind, sorted(s))
                    simplices += 1
        note.detail = (f"{len(cells)} distinct cells two-level + compressed; "
                       f"{simplices} pulling simplices unimodular")


def _check_pulling_laws(p, order):
    delta = pull_complex(PolytopalComplex([p]), order)
    lowest = order[0]
    top = p.dim + 1
    for s in delta.maximal_simplices:
        assert len(s) == top, (sorted(s), p.vertices)
        assert lowest in s, (sorted(s), lowest)
    for vs in p.face_vertex_sets:
        face = p.face(vs)
        face_points = set(face.lattice_points())
        sub_order = [q for q in order if q in face_points]
        expected = pull_complex(PolytopalComplex([face]), sub_order).faces
        restricted = {s for s in delta.faces if s <= face_points}
        assert restricted == expected, (p.vertices, sorted(vs))


def test_criterion_4_pulling_triangulation_laws(suite):
    with criterion(4) as note:
        rng = random.Random(43)
        pool = _distinct_cells(suite)
        cubes = [LatticePolytope(itertools.product((0, 1), repeat=d))
                 for d in range(1, 5)]
        pairs = 0
        for p in cubes + rng.sample(pool, len(pool)):
            order = list(p.lattice_points())
            rng.shuffle(order)
            _check_pulling_laws(p, order)
            pairs += 1
        while pairs < 200:
            p = rng.choice(pool + cubes)
            order = list(p.lattice_points())
            rng.shuffle(order)
            _check_pulling_laws(p, order)
            pairs += 1
        note.detail = (f"minimal-point membership and face restriction hold "
                       f"on {pairs} (polytope, order) pairs")


def _strip(seq):
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_criterion_5_realization_round_trip():
    with criterion(5) as note:
        rng = random.Random(75)
        for _ in range(100):
            length = rng.randint(1, 6)
            while True:
                f = tuple(rng.randint(0, 5) for _ in range(length))
                if sum(f) <= 15:
                    break
            rel = realize_polynomial(f)
            assert _strip(rel.pulled_f_vector()) == _strip(f)
            for k in range(1, 6):
                want = sum(c * math.comb(k - 1, i) for i, c in enumerate(f))
                assert rel.count_points(k) == want, (f, k)
        with pytest.raises(ValueError, match="not realizable"):
            realize_polynomial((-1, 1))
        with pytest.raises(ValueError, match="not realizable"):
            realize_polynomial((Fraction(1, 2), 1))
        note.detail = ("100 random f-vectors round-trip with matching "
                       "counts; negative and fractional inputs rejected")


def test_criterion_6_suite_polynomials_realizable(suite):
    with criterion(6) as note:
        total = 0
        for g in suite.values():
            for kind in KINDS:
                d = degree_bound(kind, g)
                p = interpolate(
                    [(k, oracle(kind, g, k)) for k in range(1, d + 2)], d)
                f = p.binomial_basis
                assert all(c.denominator == 1 and c >= 0 for c in f), \
                    (kind, f)
                assert p.evaluate(0) == sum(
                    (-1) ** i * c for i, c in enumerate(f))
                total += 1
        assert total == 50
        note.detail = ("binomial coefficients of all 50 suite polynomials "
                       "are non-negative integers; p(0) matches the "
                       "alternating sum")


def _compositions(total, n):
    for cuts in itertools.combinations(range(total + n - 1), n - 1):
        prev, out = -1, []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + n - 2 - prev)
        yield tuple(out)


def _admissible_by_point(hom, table, k):
    """Every degree-k monomial outside the ideal, bucketed by its image."""
    buckets = {}
    for a in _compositions(k, len(table)):
        if polytopal_sr_membership(table, a, hom.complex):
            continue
        image = tuple(sum(e * p[i] for e, p in zip(a, table.points))
                      for i in range(len(table.points[0])))
        buckets.setdefault(image, []).append(a)
    return buckets


def test_criterion_7_normal_monomial_path(suite):
    with criterion(7) as note:
        segment = RelativeComplex(
            PolytopalComplex([LatticePolytope([(0,), (2,)])]),
            PolytopalComplex(
                [LatticePolytope([(0,)]), LatticePolytope([(2,)])]))
        cases = [
            ("segment [0,2] minus endpoints", homogenize(segment)),
            ("chromatic complex of K3",
             homogenize(build_family("chromatic", suite["K3"]).relative)),
        ]
        witnesses = 0
        for label, hom in cases:
            table = PointVariableTable.from_complex(hom.complex)
            for k in range(1, 5):
                buckets = _admissible_by_point(hom, table, k)
                for order in (GREVLEX, GRLEX):
                    reps = minimal_representatives(hom, k, order)
                    assert len(reps) == hom.count_points(k), (label, k)
                    for z, a in reps.items():
                        assert sum(a) == k, (label, z)
                        assert min(buckets[z], key=order.key) == a, (label, z)
                        witnesses += 1
        reeve = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        assert reeve.normality_counterexample() == (2, (1, 1, 1))
        note.detail = (f"normal path matches lattice counts with {witnesses} "
                       f"verified minimal witnesses; Reeve simplex rejected "
                       f"at (1,1,1)")


def test_criterion_8_orientation_invariance(suite):
    with criterion(8) as note:
        rng = random.Random(88)
        graphs = [g for g in suite.values() if g.edges]
        for trial in range(20):
            g = graphs[trial % len(graphs)]
            flips = [i for i in range(len(g.edges)) if rng.random() < 0.5]
            if not flips:
                flips = [rng.randrange(len(g.edges))]
            h = g.reoriented(flips)
            for kind in KINDS:
                d = degree_bound(kind, g)
                ks = range(1, d + 2)
                original = interpolate(
                    [(k, oracle(kind, g, k)) for k in ks], d)
                flipped = interpolate(
                    [(k, oracle(kind, h, k)) for k in ks], d)
                assert original == flipped, (kind, flips)
        note.detail = ("20 random reorientations leave all five "
                       "polynomials unchanged")
