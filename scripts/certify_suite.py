"""Certify the whole built-in graph suite by all three counting methods.

For every (graph, kind) pair this computes the counting function by direct
enumeration, by lattice-point counting on the constructed relative complex,
and by the Hilbert formula on the triangulated pair, then prints one row
per pair with the binomial-basis coefficients and the agreement verdict.

Run:  python3 scripts/certify_suite.py [--kmax N] [--quiet]
Exit status 0 iff every pair agrees at every sampled k.
"""

import argparse
import sys
import time

from ehrhil import KINDS, certify
from ehrhil.graphs import SUITE


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kmax", type=int, default=None,
                        help="largest k checked (default: degree+2 per pair)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the final verdict")
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not args.quiet:
        print(f"{'graph':<11} {'kind':<11} degree  {'binomial basis':<21} "
              f"agree")
    failures = 0
    for name, g in SUITE.items():
        for kind in KINDS:
            kr = certify(kind, g, kmax=args.kmax)
            if not args.quiet:
                basis = "[" + ", ".join(
                    str(c) for c in kr.polynomial.binomial_basis) + "]"
                print(f"{name:<11} {kind:<11} {kr.degree:>6}  {basis:<21} "
                      f"{'ok' if kr.agree else 'DISAGREE'}")
            if not kr.agree:
                failures += 1
                print(f"  {name}: {kr.mismatch()}", file=sys.stderr)
    elapsed = time.monotonic() - start
    pairs = len(SUITE) * len(KINDS)
    if failures:
        print(f"{failures} of {pairs} pairs DISAGREE ({elapsed:.0f}s)")
        return 1
    print(f"all {pairs} pairs agree by all three methods ({elapsed:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
