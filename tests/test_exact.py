"""Exact linear algebra: the column echelon, rational solving, feasibility.

The references here (Leibniz determinants, minor gcds, `rref`) share no
code with `column_echelon`, which `det` and `rational_rank` wrap.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from ehrhil import exact
from ehrhil.exact import (
    LinearSystem,
    column_echelon,
    det,
    fourier_motzkin_feasible,
    lp_feasible,
    lp_maximize,
    rational_kernel,
    rational_rank,
    reduce_content,
    rref,
    solve_rational,
)


def leibniz(m):
    """Determinant as the signed sum over permutations, sign by inversions."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def minors_gcd(m, size):
    """gcd of all size x size minors, each by Leibniz; the product of the
    first `size` invariant factors of m."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    g = 0
    for ri in combinations(range(rows), size):
        for ci in combinations(range(cols), size):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(leibniz(sub)))
    return g


SQUARE_MATRICES = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n),
    min_size=n, max_size=n))


# (n, m): an integer matrix with n columns and up to three rows
MATRICES = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=3)))


class TestColumnEchelon:
    @settings(max_examples=150, deadline=None)
    @given(MATRICES)
    def test_unimodular_reduction(self, n_m):
        n, m = n_m
        pivots, sign, u = column_echelon(m, n)
        assert leibniz([list(row) for row in zip(*u)]) == sign in (1, -1)
        # m U, column j being m times the j-th column of U
        mu = [[sum(c * v for c, v in zip(row, col)) for col in u] for row in m]
        r = 0
        for row in mu:
            # zero past the pivots so far; a pivot opens the next column
            if r < n and row[r]:
                assert row[r] == pivots[r]
                r += 1
            assert not any(row[r:])
        assert r == len(pivots) == len(rref(m)[1])


class TestDet:
    def test_examples(self):
        assert det([]) == 1
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6

    @settings(max_examples=200, deadline=None)
    @given(SQUARE_MATRICES)
    def test_matches_leibniz(self, m):
        assert det(m) == leibniz(m)

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            det([[1, 2]])


# one entry that is not an int, planted at [0][1] of each entry point's input
NOT_INTS = {"fraction_half": Fraction(1, 2), "fraction_two": Fraction(2),
            "float_half": 0.5, "float_one": 1.0, "str": "1", "bool": True}
ENTRY_POINTS = {
    "det": lambda v: det([[1, v], [0, 1]]),
    "rational_rank": lambda v: rational_rank([[1, v]]),
    "column_echelon": lambda v: column_echelon([[1, v]], 2),
    "eq": lambda v: LinearSystem(1, eq=[((1,), v)]),
    "le": lambda v: LinearSystem(1, le=[((1,), v)]),
    "lt": lambda v: LinearSystem(1, lt=[((1,), v)]),
    "cost": lambda v: lp_maximize(LinearSystem(2, le=[((1, 1), 1)]), (1, v)),
}


class TestIntegerInput:
    """int() would truncate Fraction(1, 2) to 0; each entry point refuses it."""

    @pytest.mark.parametrize("value", NOT_INTS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_refused(self, entry, value):
        with pytest.raises(ValueError, match=r"entry \[0\]\[1\] is "):
            ENTRY_POINTS[entry](NOT_INTS[value])

    # a row longer or shorter than ncols would be cut or overrun
    @pytest.mark.parametrize("call", [
        lambda: column_echelon([[1, 2, 3]], 2),
        lambda: rational_rank([[1, 2], [3]]),
        lambda: column_echelon([[1], [1, 2]], 2),
    ], ids=["over_wide", "ragged", "short_first_row"])
    def test_row_width_refused(self, call):
        with pytest.raises(ValueError,
                           match=r"row \[[01]\] has [13] entries, not 2"):
            call()

    def test_reduce_content(self):
        assert reduce_content((4, -6, 0)) == (2, -3, 0)
        assert reduce_content((0, 0)) == (0, 0)

    # math.gcd takes a bool as an int
    @pytest.mark.parametrize("value", [v for v in NOT_INTS if v != "bool"])
    def test_reduce_content_refuses(self, value):
        with pytest.raises(TypeError):
            reduce_content((NOT_INTS[value], 1))


class TestRationalSolve:
    def test_unique_solution(self):
        sol = solve_rational([[1, 1], [1, -1]], [4, 2])
        assert sol is not None
        particular, kernel = sol
        assert particular == (3, 1)
        assert kernel == []

    def test_inconsistent(self):
        assert solve_rational([[1, 1], [2, 2]], [1, 3]) is None

    def test_underdetermined(self):
        particular, kernel = solve_rational([[1, 1, 1]], [6])
        assert sum(particular) == 6
        assert len(kernel) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=3),
                 min_size=1, max_size=3).filter(
                     lambda rows: len({len(r) for r in rows}) == 1),
        st.data(),
    )
    def test_substitute(self, a, data):
        b = data.draw(st.lists(st.integers(-9, 9), min_size=len(a), max_size=len(a)))
        sol = solve_rational(a, b)
        if sol is None:
            # inconsistency is certified by rank growth of the augmented matrix
            aug = [row + [rhs] for row, rhs in zip(a, b)]
            assert rational_rank(aug) == rational_rank(a) + 1
            return
        particular, kernel = sol
        for row, rhs in zip(a, b):
            assert sum(Fraction(c) * x for c, x in zip(row, particular)) == rhs
        for vec in kernel:
            for row in a:
                assert sum(Fraction(c) * x for c, x in zip(row, vec)) == 0


class TestRationalRank:
    def test_examples(self):
        assert rational_rank([]) == 0
        assert rational_rank([[0, 0], [0, 0]]) == 0
        assert rational_rank([[1, 2], [2, 4], [0, 1]]) == 2
        assert rational_rank([[0, 1, 1], [0, 2, 2], [1, 0, 0]]) == 2
        assert rational_rank([[3, 2], [6, 4]]) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        max_size=5)))
    def test_matches_rref(self, m):
        assert rational_rank(m) == len(rref(m)[1])


class TestLpFeasible:
    def test_open_interval(self):
        sys = LinearSystem(1, lt=[((1,), 1), ((-1,), 0)])
        x = lp_feasible(sys)
        assert x is not None
        assert 0 < x[0] < 1

    def test_empty_open(self):
        sys = LinearSystem(1, lt=[((1,), 0), ((-1,), -1)])
        assert lp_feasible(sys) is None

    def test_equality_with_strict(self):
        sys = LinearSystem(2, eq=[((1, 1), 1)], lt=[((-1, 0), 0), ((0, -1), 0)])
        x = lp_feasible(sys)
        assert x is not None
        assert x[0] + x[1] == 1 and x[0] > 0 and x[1] > 0

    def test_boundary_point_only(self):
        # weak system feasible only at x = 0, so the strict version fails
        sys = LinearSystem(1, le=[((1,), 0)], lt=[((-1,), 0)])
        assert lp_feasible(sys) is None

    def test_zero_vars(self):
        assert lp_feasible(LinearSystem(0)) == ()
        assert lp_feasible(LinearSystem(0, eq=[((), 1)])) is None

    def test_weak_only(self):
        sys = LinearSystem(2, le=[((1, 0), 5), ((0, 1), 5), ((-1, 0), 0), ((0, -1), 0)])
        x = lp_feasible(sys)
        assert x is not None
        assert all(0 <= v <= 5 for v in x)


# coefficients beyond +-1, so the simplex meets pivots that are not units
COEFFS = st.integers(-6, 6)


def _random_system(data, n):
    def block(label, max_rows):
        rows = data.draw(st.lists(
            st.tuples(st.lists(COEFFS, min_size=n, max_size=n),
                      st.integers(-8, 8)),
            max_size=max_rows), label=label)
        return [(tuple(c), r) for c, r in rows]
    return LinearSystem(n, eq=block("eq", 1), le=block("le", 3), lt=block("lt", 2))


def _bounded_system(data, n):
    """A random closed system inside the box [-3, 3]^n, so never unbounded."""
    sys = _random_system(data, n)
    box = [(tuple(s if j == i else 0 for j in range(n)), 3)
           for i in range(n) for s in (1, -1)]
    return LinearSystem(n, eq=sys.eq, le=sys.le + tuple(box))


def _brute_maximum(sys, cost):
    """Best feasible basic solution: solve every choice of tight rows."""
    eq = list(sys.eq)
    best = None
    for size in range(sys.n_vars + 1):
        for tight in combinations(sys.le, size):
            rows = eq + list(tight)
            sol = solve_rational([c for c, _ in rows], [b for _, b in rows],
                                 sys.n_vars)
            if sol is None or sol[1]:
                continue
            x = sol[0]
            if (all(exact.dot(c, x) == b for c, b in sys.eq)
                    and all(exact.dot(c, x) <= b for c, b in sys.le)):
                value = exact.dot(cost, x)
                best = value if best is None else max(best, value)
    return best


class TestFeasibilityAgreement:
    """lp_feasible (simplex) against fourier_motzkin_feasible (elimination)."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_agreement(self, n, data):
        sys = _random_system(data, n)
        witness = lp_feasible(sys)
        by_fm = fourier_motzkin_feasible(sys)
        assert (witness is not None) == by_fm
        if witness is not None:
            for coeffs, rhs in sys.eq:
                assert sum(c * x for c, x in zip(coeffs, witness)) == rhs
            for coeffs, rhs in sys.le:
                assert sum(c * x for c, x in zip(coeffs, witness)) <= rhs
            for coeffs, rhs in sys.lt:
                assert sum(c * x for c, x in zip(coeffs, witness)) < rhs


class TestLpMaximize:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_against_basic_solutions(self, n, data):
        sys = _bounded_system(data, n)
        cost = tuple(data.draw(st.lists(COEFFS, min_size=n, max_size=n),
                               label="cost"))
        got = lp_maximize(sys, cost)
        best = _brute_maximum(sys, cost)
        if best is None:
            assert got is None
            return
        value, x = got
        assert value == best
        assert exact.dot(cost, x) == value
        assert all(exact.dot(c, x) == b for c, b in sys.eq)
        assert all(exact.dot(c, x) <= b for c, b in sys.le)

    def test_unbounded(self):
        with pytest.raises(ArithmeticError):
            lp_maximize(LinearSystem(1, le=[((-1,), 0)]), (1,))

    @pytest.mark.parametrize("n, cost, expected", [
        (1, (0,), (0, (0,))),
        (0, (), (0, ())),
    ])
    def test_no_rows(self, n, cost, expected):
        assert lp_maximize(LinearSystem(n), cost) == expected

    def test_no_rows_unbounded(self):
        with pytest.raises(ArithmeticError):
            lp_maximize(LinearSystem(1), (1,))

    @pytest.mark.parametrize("cost", [(1,), (1, 0, 0)])
    def test_cost_length_must_match(self, cost):
        with pytest.raises(ValueError):
            lp_maximize(LinearSystem(2, le=[((1, 1), 1)]), cost)


_PIVOT = exact._pivot


def _checked_pivot(tableau, d, r, c):
    """exact._pivot, after checking that each of its divisions is exact."""
    row = tableau[r]
    p = row[c]
    if p < 0:
        row, p = [-v for v in row], -p
    assert d > 0
    for i, other in enumerate(tableau):
        if i != r:
            assert all((p * x - other[c] * y) % d == 0
                       for x, y in zip(other, row))
    return _PIVOT(tableau, d, r, c)


class TestFractionFree:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_divisions_are_exact(self, n, data):
        sys = _random_system(data, n)
        closed = _bounded_system(data, n)
        cost = tuple(data.draw(st.lists(COEFFS, min_size=n, max_size=n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_pivot", _checked_pivot)
            lp_feasible(sys)
            lp_maximize(closed, cost)


# Witnesses the Fraction-tableau simplex returned; the integer tableau must
# follow the same Bland pivot path.  The library reads only whether a
# witness exists, so these pins guard the path itself: another path would
# end at another vertex.
STRICT = LinearSystem(3, eq=[((1, 1, 1), 3)],
                      lt=[((-1, 0, 0), 0), ((0, -1, 0), 0),
                          ((0, 0, -1), 0), ((1, -1, 0), 1)])
DEGENERATE = LinearSystem(2, le=[((1, 0), 1), ((0, 1), 1), ((1, 1), 2),
                                 ((1, -1), 0), ((-1, 0), 0), ((0, -1), 0)])
REDUNDANT_EQ = LinearSystem(3, eq=[((1, 1, 0), 2), ((2, 2, 0), 4)],
                            le=[((-1, 0, 0), 0), ((0, -1, 0), 0),
                                ((0, 0, 1), 3), ((0, 0, -1), 0),
                                ((1, -1, 1), 3)])


class TestPinnedWitnesses:
    @pytest.mark.parametrize("sys, witness", [
        (STRICT, (1, 1, 1)),
        (DEGENERATE, (0, 0)),
        (REDUNDANT_EQ, (2, 0, 1)),
    ])
    def test_feasible(self, sys, witness):
        got = lp_feasible(sys)
        assert got == witness
        assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("sys, cost, optimum, witness", [
        (DEGENERATE, (0, 1), 1, (0, 1)),
        (REDUNDANT_EQ, (0, 0, 1), 3, (1, 1, 3)),
    ])
    def test_maximize(self, sys, cost, optimum, witness):
        value, got = lp_maximize(sys, cost)
        assert (value, got) == (optimum, witness)
        assert type(value) is Fraction
        assert all(type(v) is Fraction for v in got)


class TestClosedSystems:
    """A system without strict rows has nothing to maximize: lp_feasible
    runs phase 1 alone, pivot for pivot as lp_maximize with a zero cost."""

    @pytest.mark.parametrize("sys", [DEGENERATE, REDUNDANT_EQ],
                             ids=["degenerate", "redundant_eq"])
    def test_phase_one_alone(self, sys, monkeypatch):
        pivots = []

        def counted(*args):
            pivots.append(args[2:])
            return _PIVOT(*args)

        monkeypatch.setattr(exact, "_pivot", counted)
        witness = lp_feasible(sys)
        feasible_pivots, pivots[:] = len(pivots), []
        _, point = lp_maximize(sys, (0,) * sys.n_vars)
        assert feasible_pivots == len(pivots)
        assert witness == point


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: rational_kernel([]),
         r"^ncols required for a matrix with no rows$"),
        (lambda: solve_rational([], []),
         r"^ncols required for a system with no rows$"),
        (lambda: LinearSystem(2, le=[((1,), 0)]),
         r"^constraint arity does not match n_vars$"),
        (lambda: lp_maximize(LinearSystem(1, lt=[((1,), 0)]), (1,)),
         r"^lp_maximize expects a closed system$"),
    ], ids=["kernel", "solve", "arity", "open system"])
    def test_bad_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
