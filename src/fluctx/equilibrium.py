"""High-accuracy Gibbs quadrature in d = 1 and equilibrium-order checks.

All integrals use the shifted weight exp(-(V(x) - V(1))/eps), which is
bounded by 1, so no underflow occurs even at small eps; the dropped factor
exp(-V(1)/eps) cancels in every normalized quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import RateFit, fit_power_law
from .model import potential_value
from .observables import Observable
from .recursions import RationalTable, big_b_coeff

V_MIN = -0.25  # V(+-1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule on [-radius, radius].

    Panels are refined to width ~ sqrt(eps) near the wells at +-1, where
    the integrand has peaks of that width.  `tail_bound` is the certified
    relative mass outside [-radius, radius], computed from the global bound
    V(x) >= x^2 - 9/4 (so the shifted integrand is <= exp(-(x^2 - 2)/eps)).
    """

    radius: float
    edges: tuple
    order: int
    tail_bound: float

    @classmethod
    def for_eps(cls, eps: float, refine: float = 1.0, order: int = 16) -> "QuadratureSpec":
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        bulk = np.sqrt(np.pi * eps)  # lower bound on one well's shifted mass
        radius = 3.0
        while True:
            tail = _tail_bound(radius, eps) / bulk
            if tail < 1e-16:
                break
            radius += 0.25
            if radius > 12.0:
                raise ValueError("tail bound not satisfiable")
        w_coarse = 0.1 * refine
        w_fine = min(w_coarse, 0.25 * np.sqrt(eps) * refine)
        cuts = [-radius, -1.5, -0.5, 0.5, 1.5, radius]
        widths = [w_coarse, w_fine, w_coarse, w_fine, w_coarse]
        edges = [cuts[0]]
        for left, right, w in zip(cuts[:-1], cuts[1:], widths):
            k = max(1, int(np.ceil((right - left) / w)))
            edges.extend(np.linspace(left, right, k + 1)[1:])
        return cls(radius=radius, edges=tuple(edges), order=order, tail_bound=float(tail))

    def nodes_weights(self):
        y, w = np.polynomial.legendre.leggauss(self.order)
        edges = np.asarray(self.edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * y[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        return nodes, weights


def _tail_bound(radius: float, eps: float) -> float:
    # integral of exp(-(x^2 - 2)/eps) over |x| > radius
    return float(np.exp((2.0 - radius ** 2) / eps) * eps / radius)


def _quad(values_fn, eps: float, spec: QuadratureSpec) -> float:
    x, w = spec.nodes_weights()
    weight = np.exp(-(potential_value(x[:, None]) - V_MIN) / eps)
    # fixed summation order for reproducibility
    return float(np.add.reduce(values_fn(x) * weight * w))


def partition_function(eps: float, spec: QuadratureSpec | None = None) -> float:
    """Shifted partition function: int exp(-(V(x) - V(1))/eps) dx.

    The physical normalizer is exp(-V(1)/eps) times this.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    spec = spec or QuadratureSpec.for_eps(eps)
    return _quad(lambda x: np.ones_like(x), eps, spec)


def gibbs_expectation(F: Observable, eps: float, spec: QuadratureSpec | None = None) -> float:
    """int F dmu_eps by shifted composite Gauss-Legendre quadrature (d = 1)."""
    if F.dim != 1:
        raise ValueError("gibbs_expectation requires a scalar observable")
    spec = spec or QuadratureSpec.for_eps(eps)
    num = _quad(lambda x: F.eval_batch(x[:, None]), eps, spec)
    return num / partition_function(eps, spec)


def stationarity_defect(F: Observable, eps: float, spec: QuadratureSpec | None = None):
    """Residual of the stationary Fokker-Planck identity for a test polynomial.

    Returns (defect, scale) where defect = int (x - x^3) F' dmu + eps int F'' dmu.
    The scale integrates |integrand| instead, so it cannot collapse through
    sign cancellation (e.g. odd integrands whose signed integral is zero);
    the identity holds iff defect << scale.
    """
    if F.dim != 1:
        raise ValueError("requires a scalar observable")
    spec = spec or QuadratureSpec.for_eps(eps)
    Fp = F.partial((0,))
    Fpp = Fp.partial((0,))
    z = partition_function(eps, spec)
    first = _quad(lambda x: (x - x ** 3) * Fp.eval_batch(x[:, None]), eps, spec) / z
    second = _quad(lambda x: Fpp.eval_batch(x[:, None]), eps, spec) / z
    first_abs = _quad(lambda x: np.abs((x - x ** 3) * Fp.eval_batch(x[:, None])), eps, spec) / z
    second_abs = _quad(lambda x: np.abs(Fpp.eval_batch(x[:, None])), eps, spec) / z
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
        value = gibbs_expectation(F, eps, QuadratureSpec.for_eps(eps))
        pred = sum(eps ** (k / 2.0) * big_b_coeff(k, F, table) for k in range(m + 1))
        r = value - pred
        if abs(r) < QUADRATURE_FLOOR * max(1.0, abs(value)):
            raise ValueError(
                f"residual {r:.3e} at eps={eps} is below the quadrature floor; increase eps range"
            )
        residuals.append(r)
    return np.asarray(eps_list, dtype=float), np.asarray(residuals, dtype=float)


def expansion_residual_order(eps: Sequence[float], residuals: Sequence[float]) -> RateFit:
    """Power-law order of the expansion residuals: fits |r| ~ C eps^b."""
    return fit_power_law(np.asarray(eps), np.abs(residuals))


def residual_coefficient_fit(
    eps: Sequence[float],
    residuals: Sequence[float],
    m: int,
    degree: int = 3,
) -> np.ndarray:
    """Least-squares coefficients (c_{m+2}, c_{m+3}, ...) of the order-m residuals.

    Fits r(eps) = sum_j c_j eps^{j/2} over j = m+2, ..., m+2+degree-1 with the
    half-integer odd powers skipped (they vanish by symmetry), i.e. basis
    eps^{(m+2)/2}, eps^{(m+4)/2}, ...  Returns the coefficient vector.
    """
    eps_arr = np.asarray(eps, dtype=float)
    powers = [(m + 2 + 2 * j) / 2.0 for j in range(degree)]
    A = np.stack([eps_arr ** p for p in powers], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, np.asarray(residuals, dtype=float), rcond=None)
    return coeffs
