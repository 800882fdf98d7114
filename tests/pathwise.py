"""Single-path and single-batch views of the engine, for the tests.

`simulate_path` runs `simulate_batch` on one path with every grid step
retained and replays the Brownian increments from a copy of the path's
generator, taken after the initial law has drawn its sample; the kernel
draws its increments from the same stream in the same order, so the
replay is bit for bit what it consumed.  `ZeroNormals` stands in for the
generator when a noise-free run is wanted, and `ChainBlowup` is a law
whose chain aborts on the first path of every batch.  `batch_slot`
re-simulates one batch of an `mc_multi` run alone, and `mc_multi_slots`
shows the per-batch slots that run reduced.
"""

import copy
from dataclasses import dataclass, field
from typing import List

import numpy as np

from fluctx import combinatorics, estimators
from fluctx.hierarchy import InitialLaw, SimConfig, path_rng, simulate_batch


class SimulationAbort(RuntimeError):
    """A trajectory left the finite range; carries first-failure diagnostics."""

    def __init__(self, step: int, component: str):
        super().__init__(f"non-finite value in {component} near step {step}")
        self.step = step
        self.component = component


class ZeroNormals:
    """A generator stand-in whose standard normal draws are all zero."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


class ChainBlowup(InitialLaw):
    """xi_1 = inf on the first path of every batch; each X_eps starts from xi_0 alone."""

    def sample(self, rng, n, dim, order):
        xi0, xis = super().sample(rng, n, dim, order)
        xis[0][0] = np.inf
        return xi0, xis

    def xi_eps(self, xi0, xis, eps):
        return xi0.copy()


@dataclass
class FluctuationPath:
    """One joint sample path of X_eps and the chain on the shared grid."""

    times: np.ndarray                 # (K+1,)
    eps: float
    xfull: np.ndarray                 # (K+1, d)
    xbar: List[np.ndarray]            # order+1 arrays (K+1, d)
    brownian_increments: np.ndarray   # (K, d)
    xi0: np.ndarray                   # (d,)
    config: SimConfig = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.xfull.shape[1]

    @property
    def order(self) -> int:
        return len(self.xbar) - 1


def simulate_path(cfg: SimConfig, law: InitialLaw, rng, zero_noise: bool = False):
    """One joint sample path with the full grid and the increments retained."""
    if zero_noise:
        rng = ZeroNormals()
    replay = copy.deepcopy(rng)
    law.sample(replay, 1, cfg.dim, cfg.order)
    K = cfg.n_steps
    res = simulate_batch(cfg, law, 1, rng, range(K + 1), noise=(cfg.eps,))
    if res.first_abort is not None:
        raise SimulationAbort(*res.first_abort)
    dW = np.sqrt(cfg.dt) * replay.standard_normal((K, 1, cfg.dim))[:, 0]
    xfull = np.stack([res.xfull[cfg.eps][s][0] for s in range(K + 1)])
    xbar = [np.stack([res.xbar_at(s, k)[0] for s in range(K + 1)]) for k in range(cfg.order + 1)]
    return FluctuationPath(times=np.arange(K + 1) * cfg.dt, eps=cfg.eps, xfull=xfull, xbar=xbar,
                           brownian_increments=dW, xi0=res.xi0[0], config=cfg)


def remainder(path: FluctuationPath, m: int, t_index: int) -> np.ndarray:
    """w_{eps,m} = (X_eps - sum_{k<=m} eps^{k/2} Xbar_k) / eps^{m/2} at a grid index."""
    if not 0 <= m <= path.order:
        raise ValueError(f"m must be in [0, {path.order}]")
    if not 0 <= t_index < len(path.times):
        raise IndexError("t_index off the grid")
    acc = path.xfull[t_index].copy()
    for k in range(m + 1):
        acc -= path.eps ** (k / 2.0) * path.xbar[k][t_index]
    return acc / path.eps ** (m / 2.0)


def decompose_radial_tangential(path: FluctuationPath, k: int):
    """Split Xbar_k along and orthogonal to the limit direction xi0/|xi0| (d >= 2)."""
    if path.dim < 2:
        raise ValueError("radial/tangential split requires d >= 2")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    direction = path.xi0 / np.linalg.norm(path.xi0)
    series = path.xbar[k]
    r = series @ direction
    v = series - r[:, None] * direction[None, :]
    return r, v


def s_path(path: FluctuationPath, m: int, i: int) -> np.ndarray:
    """Pointwise composition sum S_{m,i} over the stored scalar trajectories."""
    if path.dim != 1:
        raise ValueError("s_path requires d = 1")
    if not 1 <= i <= m <= path.order:
        raise ValueError("need 1 <= i <= m <= order")
    return combinatorics.s_value(m, i, [path.xbar[k][:, 0] for k in range(1, m + 1)])


def batch_slot(quantity, cfg: SimConfig, law: InitialLaw, size: int, seed: int, b: int, noise):
    """(sum, count, aborted) of batch b of an mc_multi run, simulated on its own."""
    res = simulate_batch(cfg, law, size, path_rng(seed, b), quantity.steps, noise=noise)
    lost = res.lost[quantity.eps]
    vals = np.asarray(quantity.values(res), dtype=float)
    return (float(np.add.reduce(vals[~lost])), int((~lost).sum()), int(lost.sum()))


def mc_multi_slots(quantities, *args, **kwargs):
    """mc_multi's estimates and, by quantity name, the per-batch slots it reduced."""
    slots = {}
    combine = estimators._combine

    def spy(batch_slots, name):
        slots[name] = list(batch_slots)
        return combine(batch_slots, name)

    estimators._combine = spy
    try:
        return estimators.mc_multi(quantities, *args, **kwargs), slots
    finally:
        estimators._combine = combine
