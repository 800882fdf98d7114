"""High-accuracy Gibbs quadrature in d = 1 and equilibrium-order checks.

All integrals use the shifted weight exp(-(V(x) - V(1))/eps), which is
bounded by 1, so no underflow occurs even at small eps; the dropped factor
exp(-V(1)/eps) cancels in every normalized quantity.

The rule is the trapezoidal rule: for an analytic integrand that decays
like a Gaussian its error falls geometrically with the step (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56,
2014).  The weight peaks with width sqrt(eps) at +-1, so the step is
0.15 sqrt(eps): it matches adaptive quadrature to ~1e-15 relative over eps
0.001-0.95, where 0.25 sqrt(eps) misses by ~1e-9 at the large-eps end.
The weights are `math.exp` floats and every sum is the correctly rounded
`math.fsum`, so no numpy reduction sets the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import fit_power_law
from .model import potential_value
from .observables import Observable
from .recursions import RationalTable, big_b_coeff

V_MIN = -0.25  # V(+-1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoidal rule on [-radius, radius]: nodes (j + 1/2) step, weights step.

    The half-step offset keeps the layout symmetric with no node at 0.
    `tail_bound` is the certified relative mass outside [-radius, radius],
    computed from the global bound V(x) >= x^2 - 9/4 (so the shifted
    integrand is <= exp(-(x^2 - 2)/eps)).
    """

    radius: float
    step: float
    tail_bound: float

    @classmethod
    def for_eps(cls, eps: float) -> "QuadratureSpec":
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        bulk = math.sqrt(math.pi * eps)  # lower bound on one well's shifted mass
        radius = 3.0
        while True:
            # integral of exp(-(x^2 - 2)/eps) over |x| > radius, relative to the bulk
            tail = math.exp((2.0 - radius ** 2) / eps) * eps / radius / bulk
            if tail < 1e-16:  # reached by radius 6.25 for every eps < 1
                return cls(radius=radius, step=0.15 * math.sqrt(eps), tail_bound=tail)
            radius += 0.25

    def nodes_weights(self):
        half = int(self.radius / self.step)  # nodes on each side of 0
        nodes = (np.arange(-half, half) + 0.5) * self.step
        return nodes, np.full(nodes.shape, self.step)


def _quad(values_fn, eps: float) -> float:
    x, w = QuadratureSpec.for_eps(eps).nodes_weights()
    terms = zip(values_fn(x).tolist(), w.tolist(), potential_value(x[:, None]).tolist())
    return math.fsum(f * (h * math.exp(-(v - V_MIN) / eps)) for f, h, v in terms)


def partition_function(eps: float) -> float:
    """Shifted partition function: int exp(-(V(x) - V(1))/eps) dx.

    The physical normalizer is exp(-V(1)/eps) times this.
    """
    return _quad(lambda x: np.ones_like(x), eps)


def gibbs_expectation(F: Observable, eps: float) -> float:
    """int F dmu_eps by the shifted trapezoidal rule (d = 1)."""
    if F.dim != 1:
        raise ValueError("gibbs_expectation requires a scalar observable")
    return _quad(lambda x: F.eval_batch(x[:, None]), eps) / partition_function(eps)


def stationarity_defect(F: Observable, eps: float):
    """Residual of the stationary Fokker-Planck identity for a test polynomial.

    Returns (defect, scale) where defect = int (x - x^3) F' dmu + eps int F'' dmu.
    The scale integrates |integrand| instead, so it cannot collapse through
    sign cancellation (e.g. odd integrands whose signed integral is zero);
    the identity holds iff defect << scale.
    """
    if F.dim != 1:
        raise ValueError("requires a scalar observable")
    Fp = F.partial((0,))
    Fpp = Fp.partial((0,))
    z = partition_function(eps)
    first = _quad(lambda x: (x - x ** 3) * Fp.eval_batch(x[:, None]), eps) / z
    second = _quad(lambda x: Fpp.eval_batch(x[:, None]), eps) / z
    first_abs = _quad(lambda x: np.abs((x - x ** 3) * Fp.eval_batch(x[:, None])), eps) / z
    second_abs = _quad(lambda x: np.abs(Fpp.eval_batch(x[:, None])), eps) / z
    return first + eps * second, first_abs + eps * second_abs


QUADRATURE_FLOOR = 1e-11


def expansion_residuals(
    F: Observable,
    m: int,
    eps_list: Sequence[float],
    table: RationalTable,
):
    """Residuals after subtracting the expansion to order m, largest eps first.

    r(eps) = E_mu[F] - sum_{k<=m} eps^{k/2} B_k(F), one quadrature per eps.
    Returns (eps, r) as arrays.  Errors out if any residual sits at the
    quadrature accuracy floor, where no order can be read off it.
    """
    eps_list = sorted(eps_list, reverse=True)
    if len(eps_list) < 4:
        raise ValueError("need at least 4 eps values")
    if min(eps_list) < 0.005 or max(eps_list) > 0.3:
        raise ValueError("eps values must lie in [0.005, 0.3]")
    residuals = []
    for eps in eps_list:
        value = gibbs_expectation(F, eps)
        pred = sum(eps ** (k / 2.0) * big_b_coeff(k, F, table) for k in range(m + 1))
        r = value - pred
        if abs(r) < QUADRATURE_FLOOR * max(1.0, abs(value)):
            raise ValueError(
                f"residual {r:.3e} at eps={eps} is below the quadrature floor; increase eps range"
            )
        residuals.append(r)
    return np.asarray(eps_list, dtype=float), np.asarray(residuals, dtype=float)


def expansion_residual_order(eps: Sequence[float], residuals: Sequence[float]) -> float:
    """Power-law order of the expansion residuals: fits |r| ~ C eps^b."""
    return fit_power_law(np.asarray(eps), np.abs(residuals))


def leading_order(m: int) -> int:
    """First even order above m: odd B_k vanish, so B_k leads the order-m residuals."""
    return m + 2 - m % 2


def residual_coefficient_fit(
    eps: Sequence[float],
    residuals: Sequence[float],
    m: int,
) -> np.ndarray:
    """Least-squares coefficients (c_k, c_{k+2}, c_{k+4}) of the order-m residuals.

    With k = leading_order(m), fits r(eps) = sum_j c_j eps^{j/2} over
    j = k, k+2, k+4, the odd j skipped (they vanish by symmetry), i.e.
    basis eps^{k/2}, eps^{k/2+1}, eps^{k/2+2}.  Returns the coefficient vector.
    """
    eps_arr = np.asarray(eps, dtype=float)
    powers = [leading_order(m) / 2.0 + j for j in range(3)]
    A = np.stack([eps_arr ** p for p in powers], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, np.asarray(residuals, dtype=float), rcond=None)
    return coeffs
