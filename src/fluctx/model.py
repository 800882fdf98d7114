"""Quartic double-well potential and its derived deterministic objects.

The potential is fixed to V(x) = |x|^4/4 - |x|^2/2 on R^d.  Everything here
is deterministic and closed-form: the gradient drift, its linearization,
the exact solution of the noiseless gradient flow, and (for d = 1) the
scalar integrating factor used to solve the linear fluctuation equations.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def potential_value(x: np.ndarray):
    """V(x) = |x|^4/4 - |x|^2/2 at one point (d,) or at points (n, d)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return 0.25 * r2 * r2 - 0.5 * r2


def drift(x: np.ndarray) -> np.ndarray:
    """-grad V(x) = x - |x|^2 x."""
    x = np.asarray(x, dtype=float)
    return x - np.dot(x, x) * x


def linearized_drift(x: np.ndarray) -> np.ndarray:
    """Jacobian of the drift: (1 - |x|^2) I - 2 x (x)^T.  Symmetric."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return (1.0 - float(np.dot(x, x))) * np.eye(d) - 2.0 * np.outer(x, x)


def flow_exact(xi0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form solution of dx/dt = x - |x|^2 x started at xi0.

    x(t) = xi0 / sqrt(|xi0|^2 + (1 - |xi0|^2) e^{-2t}).  The direction of
    xi0 is preserved and |x(t)|^2 stays between min(1, |xi0|^2) and
    max(1, |xi0|^2).  xi0 = 0 is rejected: the formula degenerates at the
    unstable equilibrium and downstream limits are undefined there.
    """
    xi0 = np.asarray(xi0, dtype=float)
    if t < 0:
        raise DomainError("flow_exact requires t >= 0")
    r2 = float(np.dot(xi0, xi0))
    if r2 == 0.0:
        raise DomainError("flow_exact is undefined at xi0 = 0")
    return xi0 / np.sqrt(r2 + (1.0 - r2) * np.exp(-2.0 * t))


def flow_exact_batch(xi0: np.ndarray, t: float) -> np.ndarray:
    """Vectorized flow_exact over paths; xi0 has shape (n, d)."""
    r2 = np.sum(xi0 * xi0, axis=-1, keepdims=True)
    if np.any(r2 == 0.0):
        raise DomainError("flow_exact is undefined at xi0 = 0")
    return xi0 / np.sqrt(r2 + (1.0 - r2) * np.exp(-2.0 * t))


def integrating_factor(xi0: float, t) -> float:
    """Scalar (d = 1) integrating factor of the linear fluctuation SDEs.

    Lambda(t) = e^{2t} (xi0^2 + (1 - xi0^2) e^{-2t})^{3/2}; Lambda(0) = 1.
    Accepts a scalar or an array of times.
    """
    xi0 = float(xi0)
    if xi0 == 0.0:
        raise DomainError("integrating_factor is undefined at xi0 = 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("integrating_factor requires t >= 0")
    out = np.exp(2.0 * t) * (xi0 ** 2 + (1.0 - xi0 ** 2) * np.exp(-2.0 * t)) ** 1.5
    return float(out) if out.ndim == 0 else out
