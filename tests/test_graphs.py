"""Multigraph structure, pinned values for the enumeration oracles, and the
frontier dynamic programs held to them."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ehrhil import graphs as graphs_module
from ehrhil.exact import InvariantError
from ehrhil.graphs import (
    Graph,
    chromatic_bf,
    chromatic_dp,
    complete_graph,
    cycle_basis,
    cycle_graph,
    incidence_matrix,
    int_flow_bf,
    int_flow_dp,
    int_tension_bf,
    int_tension_dp,
    mod_flow_bf,
    mod_flow_dp,
    mod_tension_bf,
    mod_tension_dp,
    path_graph,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
K4 = complete_graph(4)
C3 = cycle_graph(3)
C4 = cycle_graph(4)
P3 = path_graph(3)
DIGON = Graph((0, 1), ((0, 1), (0, 1)))
THETA = Graph((0, 1), ((0, 1), (0, 1), (0, 1)))
LOOP = Graph((0,), ((0, 0),))
K3_PENDANT = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 0), (2, 3)))
EDGELESS2 = Graph((0, 1), ())

K33 = Graph(tuple(range(6)),
            tuple((i, j) for i in range(3) for j in range(3, 6)))

SUITE = [K2, K3, K4, P3, C3, C4, DIGON, THETA, K3_PENDANT, LOOP]
LOOPLESS = [g for g in SUITE if not g.has_loop()]

# (naive enumeration, dynamic program) per kind
PAIRS = [(chromatic_bf, chromatic_dp), (int_flow_bf, int_flow_dp),
         (mod_flow_bf, mod_flow_dp), (int_tension_bf, int_tension_dp),
         (mod_tension_bf, mod_tension_dp)]
DPS = [dp for _, dp in PAIRS]


@st.composite
def graphs(draw, max_edges=5):
    """Multigraphs on up to 4 vertices: loops, parallel edges, components."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, max_edges))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m))
    return Graph(tuple(range(n)), edges)


class TestStructure:
    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph((0,), ((0, 1),))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph((0, 0), ())

    def test_incidence_k3(self):
        assert incidence_matrix(K3) == (
            (-1, -1, 0),
            (1, 0, -1),
            (0, 1, 1),
        )

    def test_incidence_loop_column_zero(self):
        assert incidence_matrix(LOOP) == ((0,),)

    def test_components(self):
        g = Graph((0, 1, 2, 3), ((0, 1), (2, 2)))
        assert set(g.components()) == {frozenset({0, 1}), frozenset({2}),
                                       frozenset({3})}

    def test_cyclomatic_numbers(self):
        assert K4.cyclomatic_number() == 3
        assert C3.cyclomatic_number() == 1
        assert P3.cyclomatic_number() == 0
        assert DIGON.cyclomatic_number() == 1
        assert THETA.cyclomatic_number() == 2
        assert LOOP.cyclomatic_number() == 1

    def test_tension_rank(self):
        assert K4.tension_rank() == 3
        assert Graph((0, 1, 2, 3), ((0, 1), (2, 3))).tension_rank() == 2

    def test_reoriented(self):
        assert K2.reoriented([0]).edges == ((1, 0),)
        assert K2.reoriented([]).edges == K2.edges


class TestCycleBasis:
    def test_tree_has_empty_basis(self):
        assert cycle_basis(P3) == ()

    def test_c3(self):
        assert cycle_basis(C3) == ((1, 1, 1),)

    def test_digon(self):
        assert cycle_basis(DIGON) == ((-1, 1),)

    def test_loop_unit_vector(self):
        assert cycle_basis(LOOP) == ((1,),)

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_orthogonal_to_incidence_rows(self, g):
        basis = cycle_basis(g)
        assert len(basis) == g.cyclomatic_number()
        for vec in basis:
            assert all(x in (-1, 0, 1) for x in vec)
            for row in incidence_matrix(g):
                assert sum(a * c for a, c in zip(row, vec)) == 0


class TestChromatic:
    def test_k3(self):
        assert chromatic_bf(K3, 3) == 6
        assert [chromatic_bf(K3, k) for k in (1, 2, 3, 4)] == [0, 0, 6, 24]

    def test_loop_kills(self):
        assert chromatic_bf(LOOP, 5) == 0

    def test_edgeless(self):
        assert chromatic_bf(EDGELESS2, 3) == 9

    def test_parallel_edges_as_one(self):
        assert chromatic_bf(DIGON, 4) == chromatic_bf(K2, 4) == 12


class TestFlows:
    def test_int_flow_c3(self):
        assert int_flow_bf(C3, 3) == 4
        assert [int_flow_bf(C3, k) for k in (1, 2, 3, 4, 5)] == [0, 2, 4, 6, 8]

    def test_bridge_kills_flows(self):
        for k in (2, 3):
            assert int_flow_bf(P3, k) == 0
            assert int_flow_bf(K3_PENDANT, k) == 0
            assert mod_flow_bf(P3, k) == 0
            assert mod_flow_bf(K3_PENDANT, k) == 0

    def test_edgeless_is_one(self):
        assert int_flow_bf(EDGELESS2, 3) == 1
        assert mod_flow_bf(EDGELESS2, 3) == 1

    def test_mod_flow_c3(self):
        assert mod_flow_bf(C3, 5) == 4

    def test_mod_flow_k4(self):
        assert [mod_flow_bf(K4, k) for k in (2, 3, 4, 5)] == [0, 0, 6, 24]

    def test_loop_factor(self):
        looped = Graph((0, 1, 2), ((0, 1), (1, 2), (2, 0), (1, 1)))
        for k in (2, 3, 4):
            assert int_flow_bf(looped, k) == 2 * (k - 1) * int_flow_bf(C3, k)
            assert mod_flow_bf(looped, k) == (k - 1) * mod_flow_bf(C3, k)


class TestTensions:
    def test_int_tension_k2(self):
        assert int_tension_bf(K2, 3) == 4
        assert [int_tension_bf(K2, k) for k in (1, 2, 3)] == [0, 2, 4]

    def test_loop_kills_tensions(self):
        for k in (2, 5):
            assert int_tension_bf(LOOP, k) == 0
            assert mod_tension_bf(LOOP, k) == 0

    def test_int_tension_c3_small(self):
        # +-1 values on a triangle cannot sum to zero
        assert int_tension_bf(C3, 2) == 0

    def test_mod_tension_k2(self):
        assert mod_tension_bf(K2, 4) == 3
        assert [mod_tension_bf(K2, k) for k in (1, 2, 3, 4, 5, 6)] == \
            [0, 1, 2, 3, 4, 5]

    def test_mod_tension_k3(self):
        assert mod_tension_bf(K3, 3) == 2

    def test_mod_tension_divides_chromatic(self):
        for g in LOOPLESS:
            c = len(g.components())
            for k in (1, 2, 3, 4):
                assert chromatic_bf(g, k) == k ** c * mod_tension_bf(g, k)


class TestOracleHygiene:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            chromatic_bf(K2, 0)
        with pytest.raises(ValueError):
            int_flow_bf(K2, -1)

    @pytest.mark.parametrize("fn", [chromatic_bf, int_flow_bf, mod_flow_bf,
                                    int_tension_bf, mod_tension_bf] + DPS)
    @pytest.mark.parametrize("k", [2.5, True, 0, -1, "2"])
    def test_bad_dilation_factor_is_refused(self, fn, k):
        fn(K3, 1)  # True == 1 hashes alike: a cached (K3, 1) must not answer
        with pytest.raises(ValueError, match="dilation factor k"):
            fn(K3, k)

    def test_state_budget(self):
        fat = Graph((0, 1), (((0, 1)),) * 40)
        with pytest.raises(ValueError, match="enumeration space"):
            int_flow_bf(fat, 2)

    def test_budget_counts_the_walked_states(self, monkeypatch):
        # integral oracles walk 2k-2 values per edge, modular ones k-1
        for fn in (int_flow_bf, mod_flow_bf, int_tension_bf, mod_tension_bf):
            fn.cache_clear()  # a cached count would skip the guard
        six = Graph((0, 1), ((0, 1),) * 6)
        budget = "ehrhil.graphs._DP_BUDGET"
        monkeypatch.setattr(budget, 10)
        with pytest.raises(ValueError, match=r" 13841287201 states "):
            mod_flow_bf(six, 50)
        with pytest.raises(ValueError, match=r" 12230590464 states "):
            int_tension_bf(six, 25)
        monkeypatch.setattr(budget, 64)
        assert mod_flow_bf(six, 3) == 22
        assert mod_tension_bf(six, 3) == 2
        for fn in (int_flow_bf, int_tension_bf):
            with pytest.raises(ValueError, match=r" 4096 states "):
                fn(six, 3)
        monkeypatch.setattr(budget, 4096)
        assert int_flow_bf(six, 3) == 430
        assert int_tension_bf(six, 3) == 4

    @settings(max_examples=40, deadline=None)
    @given(graphs(), st.integers(2, 3), st.data())
    def test_orientation_invariance(self, g, k, data):
        flips = data.draw(st.sets(st.integers(0, max(len(g.edges) - 1, 0))))
        h = g.reoriented(flips)
        assert chromatic_bf(h, k) == chromatic_bf(g, k)
        assert int_flow_bf(h, k) == int_flow_bf(g, k)
        assert mod_flow_bf(h, k) == mod_flow_bf(g, k)
        assert int_tension_bf(h, k) == int_tension_bf(g, k)
        assert mod_tension_bf(h, k) == mod_tension_bf(g, k)


class TestDynamicProgram:
    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(1, 4), st.data())
    def test_equals_enumeration(self, g, k, data):
        flips = data.draw(st.sets(st.integers(0, max(len(g.edges) - 1, 0))))
        for h in (g, g.reoriented(flips)):
            for bf, dp in PAIRS:
                assert dp(h, k) == bf(h, k), (dp.__name__, h, k)

    @pytest.mark.parametrize("name", sorted(graphs_module.SUITE))
    def test_suite_and_reorientations(self, name):
        g = graphs_module.SUITE[name]
        for h in (g, g.reoriented(range(1, len(g.edges), 2))):
            for k in range(1, 6):
                for bf, dp in PAIRS:
                    assert dp(h, k) == bf(h, k), (dp.__name__, h, k)

    def test_forty_parallel_edges(self):
        # a flow puts +1 on half of the edges and -1 on the other half
        fat = Graph((0, 1), ((0, 1),) * 40)
        assert int_flow_dp(fat, 2) == math.comb(40, 20) == 137_846_528_820

    def test_k33_chromatic(self):
        for k in range(1, 9):
            assert chromatic_dp(K33, k) == (k ** 6 - 9 * k ** 5 + 36 * k ** 4
                                            - 75 * k ** 3 + 78 * k ** 2
                                            - 31 * k)

    def test_k33_modflow(self):
        for k in range(1, 7):
            assert mod_flow_dp(K33, k) == (k - 1) * (k - 2) * (k * k - 6 * k
                                                               + 10)

    def test_k33_modtension_times_k_is_chromatic(self):
        for k in range(1, 9):
            assert mod_tension_dp(K33, k) * k == chromatic_dp(K33, k)

    def test_budget_counts_the_estimated_states(self, monkeypatch):
        # six parallel edges at k = 3: the integral flow tries 4 values at
        # each of five steps from at most 1, 4, 9, 13 and 17 states (one
        # basis row of 2·2·c + 1 sums after c edges), then one value from
        # each of 21: 197; K4 colors frontiers of 1, 2, 3 and 3 vertices
        six = Graph((0, 1), ((0, 1),) * 6)
        budget = "ehrhil.graphs._DP_BUDGET"
        cases = [(int_flow_dp, six, 197, 430), (mod_flow_dp, six, 57, 22),
                 (int_tension_dp, six, 51, 4), (mod_tension_dp, six, 21, 2),
                 (chromatic_dp, K4, 66, 0)]
        for fn, g, estimate, count in cases:
            monkeypatch.setattr(budget, estimate - 1)
            with pytest.raises(ValueError, match=(
                    rf"estimated {estimate} states exceeds the budget of "
                    rf"{estimate - 1}$")):
                fn(g, 3)
            monkeypatch.setattr(budget, estimate)
            assert fn(g, 3) == count

    def test_trivial_inputs_need_no_steps(self, monkeypatch):
        monkeypatch.setattr("ehrhil.graphs._DP_BUDGET", -1)
        assert chromatic_dp(LOOP, 7) == 0
        assert int_tension_dp(P3, 7) == 12 ** 2  # a tree has no cycle
        assert mod_flow_dp(Graph((0,), ((0, 0),) * 2), 7) == 36


class TestRefusals:
    @pytest.mark.parametrize("patch, message", [
        (lambda mp: mp.setattr(Graph, "cyclomatic_number", lambda g: 2),
         r"^1 basis cycles, cyclomatic number 2$"),
        (lambda mp: mp.setattr(graphs_module, "incidence_matrix",
                               lambda g: ((1,) * len(g.edges),)),
         r"^a basis vector is not a cycle$"),
    ], ids=["count", "orthogonality"])
    def test_cycle_basis_invariants(self, patch, message, monkeypatch):
        # the uncached function, so no cached basis skips the checks
        patch(monkeypatch)
        with pytest.raises(InvariantError, match=message):
            cycle_basis.__wrapped__(C3)
