#!/usr/bin/env python3
"""Print the refinement trail of the certified integral for a few
integrands: per round, the cells of the adaptive partition and the
bracket on the integral, which nests and closes below --tol.

Usage: python3 scripts/convergence_table.py [--tol 1e-6]
"""

import argparse

from fcalc.expr import parse
from fcalc.integrate import riemann_integral

CASES = [
    ("x^2", 0.0, 1.0, 1 / 3),
    ("exp(x)", 0.0, 1.0, 1.7182818284590452),
    ("sin(x)", 0.0, 3.0, 1.9899924966004454),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tol", type=float, default=1e-5)
    args = ap.parse_args()
    for text, a, b, closed_form in CASES:
        cert = riemann_integral(parse(text), a, b, args.tol)
        print(f"\nintegral of {text} on [{a}, {b}], tol {args.tol}")
        print(f"{'cells':>9}  {'lower':>18}  {'upper':>18}  {'gap':>12}")
        for level in cert.levels:
            gap = level.upper - level.lower
            print(f"{level.cells:>9}  {level.lower:>18.12f}  {level.upper:>18.12f}  {gap:>12.3e}")
        err = abs(cert.value - closed_form)
        print(f"value {cert.value:.12f}   closed form {closed_form:.12f}   error {err:.3e}")


if __name__ == "__main__":
    main()
