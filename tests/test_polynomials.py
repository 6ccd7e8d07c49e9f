"""Interpolation, binomial basis, realizability."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ehrhil.polynomials import BinomialPolynomial, interpolate


class TestInterpolate:
    def test_constant(self):
        p = interpolate([(1, 1), (2, 1)], 1)
        assert p.coefficients == (1,)
        assert p.binomial_basis == (1,)

    def test_chromatic_k3(self):
        p = interpolate([(1, 0), (2, 0), (3, 6), (4, 24)], 3)
        assert p.coefficients == (0, 2, -3, 1)  # k^3 - 3k^2 + 2k
        assert p.binomial_basis == (0, 0, 6, 6)

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            interpolate([(1, 1), (2, 2), (3, 5)], 1)

    def test_contradiction_rejected(self):
        with pytest.raises(ValueError, match="contradictory"):
            interpolate([(1, 1), (1, 2), (2, 2)], 1)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="distinct"):
            interpolate([(1, 1), (2, 4)], 2)

    def test_positive_integer_points_only(self):
        with pytest.raises(ValueError):
            interpolate([(0, 1), (1, 1)], 0)

    def test_zero_polynomial(self):
        p = interpolate([(1, 0), (2, 0), (3, 0)], 2)
        assert p.coefficients == (0,)
        assert p.degree == 0
        assert p.is_realizable()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_round_trip(self, coeffs):
        p = BinomialPolynomial(tuple(coeffs))
        samples = [(k, p.evaluate(k)) for k in range(1, p.degree + 4)]
        assert interpolate(samples, p.degree) == p

    # nodes need not be consecutive, sorted or unique; the interpolant
    # through degree + 1 of them is unique, so the drawn polynomial comes
    # back exactly, and a surplus sample moved off it is named by its k
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=5),
           st.data())
    def test_any_nodes_in_any_order(self, coeffs, data):
        p, d = BinomialPolynomial(tuple(coeffs)), len(coeffs) - 1
        nodes = data.draw(st.sets(st.integers(1, 200), min_size=d + 2,
                                  max_size=d + 6))
        samples = [(k, p.evaluate(k)) for k in nodes]
        samples += data.draw(st.lists(st.sampled_from(samples), max_size=3))
        samples = data.draw(st.permutations(samples))
        assert interpolate(samples, d) == p
        off = data.draw(st.sampled_from(sorted(nodes)[d + 1:]))
        shift = data.draw(st.fractions(max_denominator=6).filter(bool))
        moved = [(k, y + shift if k == off else y) for k, y in samples]
        with pytest.raises(ValueError, match=rf"value at k={off} is "):
            interpolate(moved, d)

    @pytest.mark.parametrize("values, bound, named", [
        ([(True, 1), (2, 3)], 1, "True"),
        ([(1.0, 1), (2, 3)], 1, "1.0"),
        ([(1, 0.1), (2, 0.2)], 1, "0.1"),
        ([(1, True), (2, 3)], 1, "True"),
        ([(1, "1"), (2, "3")], 1, "'1'"),
        ([], -1, "-1"),
        ([(1, 1), (2, 3)], True, "True"),
        ([(1, 1), (2, 3)], 1.0, "1.0"),
    ])
    def test_inexact_input_refused(self, values, bound, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            interpolate(values, bound)


class TestBinomialBasis:
    def test_k_squared(self):
        assert BinomialPolynomial((0, 0, 1)).binomial_basis == (1, 3, 2)

    def test_basis_element(self):
        # C(k-1, 3) expanded: (k^3 - 6k^2 + 11k - 6) / 6
        p = BinomialPolynomial((Fraction(-1), Fraction(11, 6),
                                Fraction(-1), Fraction(1, 6)))
        assert p.binomial_basis == (0, 0, 0, 1)

    def test_k_minus_two(self):
        assert BinomialPolynomial((-2, 1)).binomial_basis == (-1, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    def test_basis_reproduces_polynomial(self, coeffs):
        p = BinomialPolynomial(tuple(coeffs))
        f = p.binomial_basis
        for k in range(1, p.degree + 4):
            assert sum(c * math.comb(k - 1, i)
                       for i, c in enumerate(f)) == p.evaluate(k)

    def test_value_at_zero_is_alternating_sum(self):
        p = interpolate([(1, 0), (2, 0), (3, 6), (4, 24)], 3)
        f = p.binomial_basis
        assert p.evaluate(0) == sum((-1) ** i * c for i, c in enumerate(f))


class TestRealizable:
    def test_chromatic_is_realizable(self):
        assert interpolate([(1, 0), (2, 0), (3, 6), (4, 24)], 3).is_realizable()

    def test_k_minus_two_is_not(self):
        assert not BinomialPolynomial((-2, 1)).is_realizable()

    def test_fractional_basis_is_not(self):
        # C(k+1, 2) has binomial vector (1, 2, 1); halving breaks integrality
        p = BinomialPolynomial((Fraction(1, 2), Fraction(3, 4), Fraction(1, 4)))
        assert not p.is_realizable()

    def test_zero_is_realizable(self):
        assert BinomialPolynomial((0,)).is_realizable()


class TestEvaluate:
    def test_horner(self):
        p = BinomialPolynomial((0, 2, -3, 1))
        assert p.evaluate(4) == 24
        assert p.evaluate(Fraction(1, 2)) == Fraction(3, 8)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=12), max_size=6),
           st.one_of(st.integers(-50, 50), st.fractions(max_denominator=7)))
    def test_integer_horner_matches_fraction_horner(self, coeffs, k):
        p = BinomialPolynomial(tuple(coeffs))
        want = Fraction(0)
        for c in reversed(p.coefficients):
            want = want * k + c
        got = p.evaluate(k)
        assert got == want and isinstance(got, Fraction)

    @pytest.mark.parametrize("c", [0.1, True, "1"])
    def test_inexact_coefficient_refused(self, c):
        with pytest.raises(ValueError, match=re.escape(repr(c))):
            BinomialPolynomial((1, c))

    def test_str(self):
        assert str(BinomialPolynomial((0, 2, -3, 1))) == \
            "2*k^1 + -3*k^2 + 1*k^3"
        assert str(BinomialPolynomial((0,))) == "0"
