#!/usr/bin/env python3
"""Print the refinement trail of the certified integral for a few
integrands: per round, the cells of the adaptive partition and the
bracket on the integral, which nests and closes below --tol; then the
number of rounds and the cells summed over all rounds, two counts that
do not depend on the machine.

Usage: python3 scripts/convergence_table.py [--tol 1e-5]
"""

import argparse

from fcalc.expr import parse
from fcalc.integrate import riemann_integral

CASES = [
    ("x^2", 0.0, 1.0, 1 / 3),
    ("exp(x)", 0.0, 1.0, 1.7182818284590452),
    ("sin(x)", 0.0, 3.0, 1.9899924966004454),
    # the wave family at unit parameters; reference from mpmath.quad at 30 digits
    ("sin(x)*exp(-(x^2)) + ln(1+x^2)", 0.0, 3.0, 3.8302833886975105),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tol", type=float, default=1e-5)
    args = ap.parse_args()
    for text, a, b, reference in CASES:
        cert = riemann_integral(parse(text), a, b, args.tol)
        print(f"\nintegral of {text} on [{a}, {b}], tol {args.tol}")
        print(f"{'cells':>9}  {'lower':>18}  {'upper':>18}  {'gap':>12}")
        for level in cert.levels:
            gap = level.upper - level.lower
            print(f"{level.cells:>9}  {level.lower:>18.12f}  {level.upper:>18.12f}  {gap:>12.3e}")
        err = abs(cert.value - reference)
        print(f"value {cert.value:.12f}   reference {reference:.12f}   error {err:.3e}")
        print(f"rounds {len(cert.levels)}   cells summed over rounds "
              f"{sum(level.cells for level in cert.levels)}")


if __name__ == "__main__":
    main()
