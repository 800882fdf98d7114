"""Quartic double-well potential and its derived deterministic objects.

The potential is fixed to V(x) = |x|^4/4 - |x|^2/2 on R^d.  Everything here
is deterministic and closed-form: the gradient drift and the exact
solution of the noiseless gradient flow.
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


def flow_exact(xi0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form solution of dx/dt = x - |x|^2 x from one point (d,) or points (n, d).

    x(t) = xi0 / sqrt(|xi0|^2 + (1 - |xi0|^2) e^{-2t}).  The direction of
    xi0 is preserved and |x(t)|^2 stays between min(1, |xi0|^2) and
    max(1, |xi0|^2).  xi0 = 0 is rejected: the formula degenerates at the
    unstable equilibrium and downstream limits are undefined there.
    """
    xi0 = np.asarray(xi0, dtype=float)
    if t < 0:
        raise DomainError("flow_exact requires t >= 0")
    r2 = np.sum(xi0 * xi0, axis=-1, keepdims=True)
    if np.any(r2 == 0.0):
        raise DomainError("flow_exact is undefined at xi0 = 0")
    return xi0 / np.sqrt(r2 + (1.0 - r2) * np.exp(-2.0 * t))
