"""Exact-rational coefficient tables for the long-time and equilibrium limits.

Two independent constructions of the same triangular arrays:

* `c_table` runs the algebraic recursion for the long-time limits of the
  conditional composition sums, ascending in the order m and descending in
  the factor count i.
* `d_table` performs a formal small-noise expansion of the two-well Gibbs
  integrals: each well is rescaled to a Gaussian, the non-quadratic part of
  the well is expanded as a power series, and all moments are exact
  rationals.  No recursion is involved.

Their entrywise equality is the consistency statement this package
verifies; keeping the code paths disjoint is what makes the check
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Tuple

from .combinatorics import MAX_ORDER
from .observables import Observable


@dataclass(frozen=True)
class RationalTable:
    """Triangular arrays plus[(m, i)] and minus[(m, i)] up to a given order.

    `plus` holds the coefficients attached to the +1 well (c or d), `minus`
    the sign-flipped family (cbar or dbar).  Entries outside the stored
    keys are zero by convention; (0, 0) maps to 1.
    """

    order: int
    family: str  # "c" or "d"
    plus: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)
    minus: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)

    def get(self, m: int, i: int, *, barred: bool = False) -> Fraction:
        if (m, i) == (0, 0):
            return Fraction(1)
        table = self.minus if barred else self.plus
        return table.get((m, i), Fraction(0))

    def entries(self):
        """Sorted ((m, i), plus_value, minus_value) triples, (0,0) included."""
        keys = sorted(set(self.plus) | set(self.minus) | {(0, 0)})
        return [(k, self.get(*k), self.get(*k, barred=True)) for k in keys]

    def equals(self, other: "RationalTable") -> bool:
        if self.order != other.order:
            return False
        keys = set(self.plus) | set(other.plus) | set(self.minus) | set(other.minus)
        return all(
            self.get(*k) == other.get(*k)
            and self.get(*k, barred=True) == other.get(*k, barred=True)
            for k in keys
        )


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {n}")


@lru_cache(maxsize=None)
def c_table(n: int) -> RationalTable:
    """Long-time limit coefficients by the nested algebraic recursion.

    c_{m,i}    = (i-1)/2 c_{m-2,i-2} - 3/2 c_{m,i+1} - 1/2 c_{m,i+2}
    cbar_{m,i} = (i-1)/2 cbar_{m-2,i-2} + 3/2 cbar_{m,i+1} - 1/2 cbar_{m,i+2}

    with c_{0,0} = 1 and zero outside the triangle; m ascends, i descends
    from m to 1.  The recursion itself reproduces the anchor values
    c_{1,1} = 0 and c_{2,2} = 1/2.
    """
    _check_order(n)
    plus: Dict[Tuple[int, int], Fraction] = {}
    minus: Dict[Tuple[int, int], Fraction] = {}

    def c(m, i, tab):  # only the triangle 1 <= i <= m is stored
        return Fraction(1) if (m, i) == (0, 0) else tab.get((m, i), Fraction(0))

    for tab, sign in ((plus, -1), (minus, 1)):  # the sign of the 3/2 term
        for m in range(1, n + 1):
            for i in range(m, 0, -1):
                tab[(m, i)] = (
                    Fraction(i - 1, 2) * c(m - 2, i - 2, tab)
                    + sign * Fraction(3, 2) * c(m, i + 1, tab)
                    - Fraction(1, 2) * c(m, i + 2, tab)
                )
    return RationalTable(order=n, family="c", plus=plus, minus=minus)


# -- equilibrium (Laplace) construction of the d-table ------------------------
#
# Around the well at +1 the shifted potential is exactly
#   V(1 + u) - V(1) = u^2 (1 + u/2)^2,
# so with u = sqrt(eps) y the Gibbs weight becomes
#   exp(-y^2) * exp(-delta y^3 - delta^2 y^4 / 4),      delta := sqrt(eps).
# Expanding the second factor as a power series in delta and integrating
# term by term against the Gaussian gives, for every monomial (x-1)^i, a
# formal series whose coefficients are exact rationals (normalized Gaussian
# moments).  Dividing by the same series for i = 0 normalizes by the
# partition function; d_{m,i} is the delta^{m-i} coefficient of that ratio.
# The well at -1 is identical except for the sign of the cubic term.


def _gaussian_moment(k: int) -> Fraction:
    """int y^k e^{-y^2} dy / int e^{-y^2} dy: 0 for odd k, (k-1)!!/2^{k/2} else."""
    if k % 2 == 1:
        return Fraction(0)
    out = Fraction(1)
    for j in range(1, k, 2):
        out *= j
    return out / Fraction(2) ** (k // 2)


def _well_series(i: int, n: int, cubic_sign: int):
    """delta-series of the normalized i-th moment of one well, to order n."""
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        acc = Fraction(0)
        for b in range(j // 2 + 1):
            a = j - 2 * b
            # term delta^j y^(3a+4b) from exp(-s*delta y^3 - delta^2 y^4/4)
            sign = (cubic_sign ** a) * ((-1) ** (a + b))
            acc += Fraction(sign, factorial(a) * factorial(b) * 4 ** b) * _gaussian_moment(
                i + 3 * a + 4 * b
            )
        coeffs[j] = acc
    return coeffs


def _series_divide(num, den, n):
    """Coefficients of num/den as truncated power series (den[0] != 0)."""
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / den[0]
    return out


@lru_cache(maxsize=None)
def d_table(n: int) -> RationalTable:
    """Equilibrium expansion coefficients by direct formal Laplace expansion.

    Independent of `c_table`: no recursion, only exact Gaussian moments and
    power-series arithmetic per well.
    """
    _check_order(n)
    plus: Dict[Tuple[int, int], Fraction] = {}
    minus: Dict[Tuple[int, int], Fraction] = {}
    for tab, cubic_sign in ((plus, 1), (minus, -1)):
        norm = _well_series(0, n, cubic_sign)
        for i in range(1, n + 1):
            ratio = _series_divide(_well_series(i, n, cubic_sign), norm, n)
            for m in range(i, n + 1):
                tab[(m, i)] = ratio[m - i]
        # i = 0 column: the normalized mass of the well is 1 at order 0 and
        # has no higher-order correction (the ratio of a series with itself).
        for m in range(1, n + 1):
            tab[(m, 0)] = Fraction(0)
    return RationalTable(order=n, family="d", plus=plus, minus=minus)


# -- assembly of the observable-level limits ----------------------------------


def b_coeff(m: int, F: Observable, p_plus: Fraction, table: RationalTable) -> float:
    """Long-time limit of the m-th dynamical expansion coefficient (d = 1).

    b_m(F) = P(xi0>0) sum_{i=0..m} c_{m,i}/i! F^(i)(1)
           + P(xi0<0) sum_{i=0..m} cbar_{m,i}/i! F^(i)(-1);
    the i = 0 entry is 1 at m = 0 and 0 above, so b_0(F) = p F(1) + (1-p) F(-1).
    Assembled in exact rationals from the exact weight p_plus = P(xi0>0).
    """
    if F.dim != 1:
        raise ValueError("b_coeff requires a scalar observable")
    if m > table.order:
        raise ValueError(f"m = {m} exceeds table order {table.order}")
    if not 0 <= p_plus <= 1:
        raise ValueError("p_plus must be in [0, 1]")
    total = Fraction(0)
    for p, well, barred in ((p_plus, 1, False), (1 - p_plus, -1, True)):
        for i in range(m + 1):
            w = Fraction(1, factorial(i))
            total += p * table.get(m, i, barred=barred) * w * F.scalar_derivative_exact(i, well)
    return float(total)


def big_b_coeff(m: int, F: Observable, table: RationalTable) -> float:
    """m-th coefficient of the equilibrium (Gibbs) expansion: b_m with weights 1/2, 1/2."""
    return b_coeff(m, F, Fraction(1, 2), table)
