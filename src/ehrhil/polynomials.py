"""Exact univariate polynomials over the rationals.

Counting functions arrive as finitely many integer samples; this module
turns them into polynomials (Newton's divided differences, with surplus
samples used as consistency checks), re-expresses them in the binomial basis
C(k-1, i) by forward differences at 1, and decides realizability: the
counting functions of relative complexes are exactly the polynomials whose
binomial coefficients are non-negative integers.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


def _exact(x, what):
    """x as a Fraction; ValueError unless it is an int (not a bool) or one."""
    if type(x) not in (int, Fraction):
        raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class BinomialPolynomial:
    """Polynomial stored in the monomial basis, constant term first."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = [_exact(c, "coefficient") for c in self.coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @cached_property
    def _integer_form(self):
        """Integer numerators over one common denominator."""
        den = math.lcm(*(c.denominator for c in self.coefficients))
        return (tuple(c.numerator * (den // c.denominator)
                      for c in reversed(self.coefficients)), den)

    def evaluate(self, k):
        """Value at a rational k, by Horner on the integer numerators."""
        numerators, den = self._integer_form
        acc = 0
        for c in numerators:
            acc = acc * k + c
        return Fraction(acc, den)

    @cached_property
    def binomial_basis(self):
        """Coefficients over C(k-1, i): the forward differences at k = 1."""
        values = [self.evaluate(1 + j) for j in range(self.degree + 1)]
        return tuple(
            sum((-1) ** (i - j) * math.comb(i, j) * values[j]
                for j in range(i + 1))
            for i in range(self.degree + 1))

    def is_realizable(self):
        """Whether some relative complex counts exactly this polynomial."""
        return all(f >= 0 and f.denominator == 1 for f in self.binomial_basis)

    def __str__(self):
        terms = [f"{c}*k^{i}" for i, c in enumerate(self.coefficients) if c]
        return " + ".join(terms) if terms else "0"


def interpolate(values, degree_bound):
    """The unique polynomial of at most the given degree through the samples.

    Needs degree_bound + 1 distinct samples (k, y), each k an int >= 1 and
    each y an int or a Fraction.  Surplus samples must lie on the
    interpolant; the ValueError names the first one that does not.
    """
    if type(degree_bound) is not int or degree_bound < 0:
        raise ValueError(f"degree bound {degree_bound!r} is not an int >= 0")
    samples = {}
    for k, y in values:
        if type(k) is not int or k < 1:
            raise ValueError(f"sample point k={k!r} is not an int >= 1")
        y = _exact(y, "sample value")
        if k in samples and samples[k] != y:
            raise ValueError(f"contradictory samples at k={k}")
        samples[k] = y
    if len(samples) < degree_bound + 1:
        raise ValueError(
            f"need {degree_bound + 1} distinct samples, got {len(samples)}")
    ks = sorted(samples)[:degree_bound + 1]
    # divided differences in place: table[j] ends as y[k_0, ..., k_j]
    table = [samples[k] for k in ks]
    for j in range(1, len(ks)):
        for i in range(len(ks) - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (ks[i] - ks[i - j])
    # Newton form to monomials by Horner: coeffs <- coeffs * (x - k) + a
    coeffs = []
    for a, k in zip(reversed(table), reversed(ks)):
        coeffs = [a] + coeffs
        for i in range(1, len(coeffs)):
            coeffs[i - 1] -= k * coeffs[i]
    poly = BinomialPolynomial(tuple(coeffs))
    for k, y in sorted(samples.items()):
        if poly.evaluate(k) != y:
            raise ValueError(
                f"not a polynomial of degree <= {degree_bound}: "
                f"value at k={k} is {y}, interpolant gives {poly.evaluate(k)}")
    return poly
