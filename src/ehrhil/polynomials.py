"""Exact univariate polynomials over the rationals.

Counting functions arrive as finitely many integer samples; this module
turns them into polynomials (Lagrange interpolation with surplus samples
used as consistency checks), re-expresses them in the binomial basis
C(k-1, i) by forward differences at 1, and decides realizability: the
counting functions of relative complexes are exactly the polynomials whose
binomial coefficients are non-negative integers.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


def _pad_add(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@dataclass(frozen=True)
class BinomialPolynomial:
    """Polynomial stored in the monomial basis, constant term first."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = [Fraction(c) for c in self.coefficients]
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

    Needs degree_bound + 1 distinct sample points at positive integers;
    surplus samples must lie on the interpolant, otherwise the data is not
    a polynomial of the claimed degree and interpolation fails loudly.
    """
    samples = {}
    for k, y in values:
        if k != int(k) or k < 1:
            raise ValueError(f"sample points must be positive integers, got {k}")
        k = int(k)
        if k in samples and samples[k] != y:
            raise ValueError(f"contradictory samples at k={k}")
        samples[k] = Fraction(y)
    if len(samples) < degree_bound + 1:
        raise ValueError(
            f"need {degree_bound + 1} distinct samples, got {len(samples)}")
    base = sorted(samples)[:degree_bound + 1]
    coeffs = [Fraction(0)]
    for ki in base:
        numerator = [Fraction(1)]
        weight = samples[ki]
        for kj in base:
            if kj != ki:
                numerator = _mul(numerator, [Fraction(-kj), Fraction(1)])
                weight /= ki - kj
        coeffs = _pad_add(coeffs, [c * weight for c in numerator])
    poly = BinomialPolynomial(tuple(coeffs))
    for k, y in sorted(samples.items()):
        if poly.evaluate(k) != y:
            raise ValueError(
                f"not a polynomial of degree <= {degree_bound}: "
                f"value at k={k} is {y}, interpolant gives {poly.evaluate(k)}")
    return poly
