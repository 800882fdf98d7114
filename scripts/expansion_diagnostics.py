#!/usr/bin/env python3
"""Print the equilibrium expansion coefficients B_k(x^2) and show where the
asymptotic series stops helping.

For each eps the table lists the partial sums sum_{k<=2m} eps^{k/2} B_k and
the exact quadrature value of E[x^2] under the Gibbs measure.  The
coefficients grow factorially, so past eps ~ 0.1 adding terms makes the
approximation worse -- the series is asymptotic, not convergent.

Usage: python scripts/expansion_diagnostics.py [--max-order 12]
"""

import argparse

from fluctx.equilibrium import gibbs_expectation
from fluctx.observables import parse_polynomial
from fluctx.recursions import MAX_ORDER, big_b_coeff, d_table


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=MAX_ORDER, choices=range(MAX_ORDER + 1),
                    metavar=f"{{0..{MAX_ORDER}}}")
    args = ap.parse_args()

    F = parse_polynomial("x1^2", 1)
    table = d_table(args.max_order)
    coeffs = {k: big_b_coeff(k, F, table) for k in range(0, args.max_order + 1, 2)}

    print("B_k(x^2):")
    for k, b in coeffs.items():
        print(f"  k = {k:2d}: {b:>12g}")

    eps_list = (0.2, 0.1, 0.05, 0.02, 0.01)
    orders = list(coeffs)
    header = "eps      exact      " + "".join(f"m={m:<10d}" for m in orders)
    print("\npartial sums vs quadrature:")
    print(header)
    for eps in eps_list:
        exact = gibbs_expectation(F, eps)
        partial, cells = 0.0, []
        for m in orders:
            partial += eps ** (m / 2.0) * coeffs[m]
            cells.append(f"{partial - exact:+.2e}  ")
        print(f"{eps:<8g} {exact:.6f}  " + "".join(cells))


if __name__ == "__main__":
    run()
