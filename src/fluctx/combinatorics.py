"""Integer compositions and the symmetric fluctuation sums built on them.

A composition of m into i parts is an ordered tuple of positive integers
summing to m.  S_{m,i} sums, over all such tuples, the product of the
fluctuation values indexed by the parts.  Degenerate index pairs (i > m,
i <= 0, m <= 0) follow the empty-sum convention and give 0 / [].
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

MAX_ORDER = 12


@lru_cache(maxsize=None)
def compositions(m: int, i: int) -> tuple:
    """All ordered i-tuples of positive integers summing to m, lexicographic.

    Empty for degenerate (m, i).  Materialized and cached: for m <= 12 the
    largest count is binomial(11, 5) = 462.
    """
    if m > MAX_ORDER:
        raise ValueError(f"compositions supports m <= {MAX_ORDER}, got {m}")
    if i <= 0 or m <= 0 or i > m:
        return ()
    if i == 1:
        return ((m,),)
    out = []
    for first in range(1, m - i + 2):
        for rest in compositions(m - first, i - 1):
            out.append((first,) + rest)
    return tuple(out)


def s_value(m: int, i: int, xbar: Sequence[float]) -> float:
    """S_{m,i} = sum over compositions (j_1..j_i) of prod xbar[j_k] (d = 1).

    `xbar` is the list [X1, ..., Xm] (entries past Xm are not read).  The
    values may be floats or equal-shape arrays; arrays are combined
    elementwise (one S value per path or time).
    """
    comps = compositions(m, i)
    if not comps:
        return 0.0
    total = 0.0
    for comp in comps:
        prod = 1.0
        for j in comp:
            prod *= xbar[j - 1]
        total += prod
    return total


def taylor_weights(m: int, i: int) -> list:
    """Multilinear terms of order (m, i) in the weak-expansion functional.

    Returns [(composition, Fraction(1, i!))] for every composition of m
    into i parts; the weight is the Taylor factor 1/i!.
    """
    comps = compositions(m, i)
    if not comps:
        return []
    w = Fraction(1, factorial(i))
    return [(comp, w) for comp in comps]
