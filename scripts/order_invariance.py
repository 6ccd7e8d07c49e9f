"""Probe whether the relative f-vector depends on the pulling order.

It must not: the counting function is order-independent and the binomial
basis determines the f-vector uniquely, so every global order has to give
the same relative f-vector even though the triangulations themselves
differ.  This script pulls each construction under several shuffled
orders and reports the distinct f-vectors seen, flagging anything
other than exactly one per construction.

Run:  python3 scripts/order_invariance.py [--orders N] [--seed S]
"""

import argparse
import random

from ehrhil import KINDS, build_family, relative_f_vector
from ehrhil.graphs import SUITE

GRAPHS = {name: SUITE[name] for name in ("K3", "P3", "C4", "digon", "theta")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, default=10,
                        help="shuffled global orders per construction")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    surprises = 0
    for name, g in GRAPHS.items():
        for kind in KINDS:
            rel = build_family(kind, g).relative
            if rel.complex.is_empty:
                continue
            points = sorted(rel.complex.lattice_points(1))
            seen = set()
            triangulations = set()
            for _ in range(args.orders):
                order = list(points)
                rng.shuffle(order)
                delta, gamma = rel.pulled_pair(order)
                seen.add(relative_f_vector(delta, gamma))
                triangulations.add(delta.maximal_simplices)
            f = ", ".join(str(list(v)) for v in sorted(seen))
            print(f"{name:<7} {kind:<11} {len(triangulations):>3} distinct "
                  f"triangulations -> {len(seen)} f-vector(s): {f}")
            if len(seen) != 1:
                surprises += 1
    if surprises:
        print(f"{surprises} constructions broke order invariance")
        return 1
    print("relative f-vectors are order independent on every construction")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
