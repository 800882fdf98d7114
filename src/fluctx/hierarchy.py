"""Joint pathwise simulation of the full SDE and its fluctuation chain.

One shared Brownian path drives everything: the noisy trajectory (Euler-
Maruyama with additive noise sqrt(2 eps) dW), the deterministic leading
order (exact flow), the first-order linear SDE (diffusion
sqrt(2) dW), and the higher orders, which are linear ODEs forced by
products of lower-order fluctuations over integer compositions.

The batch engine is fully vectorized over paths: state arrays have shape
(n_paths, dim) and only requested time slices are retained, so estimators
can run 1e5+ paths without storing trajectories.  `simulate_path` keeps
the full grid (plus the increments) for the pathwise identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import combinatorics

NAN_CHECK_STRIDE = 25


class SimulationAbort(RuntimeError):
    """A trajectory left the finite range; carries first-failure diagnostics."""

    def __init__(self, step: int, component: str):
        super().__init__(f"non-finite value in {component} near step {step}")
        self.step = step
        self.component = component


@dataclass(frozen=True)
class SimConfig:
    dim: int
    order: int
    eps: float
    dt: float
    t_final: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 <= self.order <= combinatorics.MAX_ORDER:
            raise ValueError(f"order must be in [0, {combinatorics.MAX_ORDER}]")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        if not 0.0 < self.dt <= 1e-2:
            raise ValueError("dt must be in (0, 1e-2]")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def grid_index(self, t: float) -> int:
        """Index of a grid time; rejects off-grid t (no interpolation, ever)."""
        k = int(round(t / self.dt))
        if not 0 <= k <= self.n_steps or abs(k * self.dt - t) > 1e-9:
            raise ValueError(f"t = {t} is not on the simulation grid")
        return k


@dataclass(frozen=True)
class InitialLaw:
    """Initial data (xi_0, xi_1, ..., xi_n) with the assumed structure.

    xi_0 stays in an annulus r_min < |xi_0| < r_max; the higher-order
    seeds are independent of xi_0 and of each other (deterministic zero or
    centered isotropic Gaussians), and xi_eps is the exact truncation
    sum_k eps^{k/2} xi_k, so there is no initial-data error to confound
    rate fits.
    """

    kind: str  # deterministic_point | symmetric_two_point | uniform_annulus
    point: Optional[tuple] = None       # for the point-based kinds
    r_min: float = 0.0                  # for uniform_annulus
    r_max: float = 0.0
    higher_std: tuple = ()              # std of xi_k for k = 1, 2, ...; 0 = frozen zero

    def __post_init__(self):
        if self.kind in ("deterministic_point", "symmetric_two_point"):
            if self.point is None:
                raise ValueError(f"{self.kind} requires a point")
            if not any(abs(p) > 0 for p in self.point):
                raise ValueError("xi_0 = 0 is excluded")
        elif self.kind == "uniform_annulus":
            if not 0.0 < self.r_min < self.r_max:
                raise ValueError("uniform_annulus requires 0 < r_min < r_max")
        else:
            raise ValueError(f"unknown initial law kind {self.kind!r}")
        if any(s < 0 for s in self.higher_std):
            raise ValueError("higher_std entries must be >= 0")

    def std_for(self, k: int) -> float:
        if k < 1:
            raise ValueError("higher-order index starts at 1")
        return self.higher_std[k - 1] if k - 1 < len(self.higher_std) else 0.0

    def sample(self, rng: np.random.Generator, n: int, dim: int, order: int):
        """Draw (xi0, [xi1, ..., xi_order]) for n paths; arrays (n, dim)."""
        if self.kind == "deterministic_point":
            point = np.asarray(self.point, dtype=float)
            if point.shape != (dim,):
                raise ValueError("point does not match dim")
            xi0 = np.tile(point, (n, 1))
        elif self.kind == "symmetric_two_point":
            point = np.asarray(self.point, dtype=float)
            if point.shape != (dim,):
                raise ValueError("point does not match dim")
            signs = rng.choice([-1.0, 1.0], size=(n, 1))
            xi0 = signs * point
        else:  # uniform_annulus
            radii = rng.uniform(self.r_min, self.r_max, size=(n, 1))
            if dim == 1:
                direction = rng.choice([-1.0, 1.0], size=(n, 1))
            else:
                direction = rng.standard_normal((n, dim))
                direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            xi0 = radii * direction
        xis = []
        for k in range(1, order + 1):
            s = self.std_for(k)
            xis.append(s * rng.standard_normal((n, dim)) if s > 0 else np.zeros((n, dim)))
        return xi0, xis

    def xi_eps(self, xi0: np.ndarray, xis: List[np.ndarray], eps: float) -> np.ndarray:
        out = xi0.copy()
        for k, xk in enumerate(xis, start=1):
            out += eps ** (k / 2.0) * xk
        return out


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


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based private substream for one path (or batch) index."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([master_seed, path_index])))


def _linearized_apply(x0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[(1 - |x0|^2) I - 2 x0 x0^T] v, rowwise over paths."""
    r2 = np.sum(x0 * x0, axis=1, keepdims=True)
    dot = np.sum(x0 * v, axis=1, keepdims=True)
    return (1.0 - r2) * v - 2.0 * dot * x0


def _forcing(x0: np.ndarray, xbar: List[np.ndarray], m: int) -> np.ndarray:
    """Total order-m contribution of the cubic nonlinearity (sign: subtract)."""
    out = np.zeros_like(x0)
    for (i, j) in combinatorics.compositions(m, 2):
        dij = np.sum(xbar[i] * xbar[j], axis=1, keepdims=True)
        di0 = np.sum(xbar[i] * x0, axis=1, keepdims=True)
        out += dij * x0 + 2.0 * di0 * xbar[j]
    for (i, j, k) in combinatorics.compositions(m, 3):
        dij = np.sum(xbar[i] * xbar[j], axis=1, keepdims=True)
        out += dij * xbar[k]
    return out


class BatchResult:
    """Time slices of a batch simulation, plus abort diagnostics."""

    def __init__(self, slice_steps, x0, xbar, xfull, xi0, xis, aborted, first_abort):
        self.slice_steps = slice_steps          # list of grid step indices
        self.x0 = x0                            # {step: (n, d)}
        self.xbar = xbar                        # {step: [order arrays (n, d)]}  (index k-1 -> xbar_k)
        self.xfull = xfull                      # {step: (n, d)} or None
        self.xi0 = xi0
        self.xis = xis
        self.aborted = aborted                  # bool mask (n,)
        self.first_abort = first_abort          # (step, component) or None

    def xbar_at(self, step: int, k: int) -> np.ndarray:
        if k == 0:
            return self.x0[step]
        return self.xbar[step][k - 1]


def simulate_batch(
    cfg: SimConfig,
    law: InitialLaw,
    n_paths: int,
    rng: np.random.Generator,
    slice_steps: Sequence[int],
    with_xfull: bool = True,
    zero_noise: bool = False,
    _record=None,
) -> BatchResult:
    """Simulate n_paths jointly, retaining state only at `slice_steps`.

    All components consume the identical increments array each step.  Paths
    that turn non-finite are frozen to NaN and flagged; the first failure's
    (step, component) is kept for diagnostics.
    """
    slice_steps = sorted(set(int(s) for s in slice_steps))
    if slice_steps and not 0 <= slice_steps[0] <= slice_steps[-1] <= cfg.n_steps:
        raise ValueError("slice steps outside the grid")
    xi0, xis = law.sample(rng, n_paths, cfg.dim, cfg.order)
    r2_xi0 = np.sum(xi0 * xi0, axis=1, keepdims=True)

    x0 = xi0.copy()
    xbar = [x.copy() for x in xis]
    xfull = law.xi_eps(xi0, xis, cfg.eps) if with_xfull else None

    out_x0, out_xbar, out_xfull = {}, {}, {}
    aborted = np.zeros(n_paths, dtype=bool)
    first_abort = None
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt2 = np.sqrt(2.0)
    sqrt_2eps = np.sqrt(2.0 * cfg.eps)
    dt = cfg.dt
    want = set(slice_steps)

    def snapshot(step):
        out_x0[step] = x0.copy()
        out_xbar[step] = [x.copy() for x in xbar]
        if with_xfull:
            out_xfull[step] = xfull.copy()

    def check(step):
        nonlocal first_abort
        arrays = [("xfull", xfull)] if with_xfull else []
        arrays += [("xbar0", x0)] + [(f"xbar{k}", xbar[k - 1]) for k in range(1, cfg.order + 1)]
        for name, arr in arrays:
            bad = ~np.all(np.isfinite(arr), axis=1)
            new = bad & ~aborted
            if np.any(new):
                if first_abort is None:
                    first_abort = (step, name)
                aborted[new] = True
        if np.any(aborted):
            for arr in [a for _, a in arrays]:
                arr[aborted] = np.nan

    if 0 in want:
        snapshot(0)
    for step in range(1, cfg.n_steps + 1):
        if zero_noise:
            dW = np.zeros((n_paths, cfg.dim))
        else:
            dW = sqrt_dt * rng.standard_normal((n_paths, cfg.dim))
        if _record is not None:
            _record.append(dW)
        if with_xfull:
            # diverging paths overflow before they are frozen to NaN; the
            # abort bookkeeping handles them, so the warnings are noise
            with np.errstate(over="ignore", invalid="ignore"):
                r2 = np.sum(xfull * xfull, axis=1, keepdims=True)
                xfull += (1.0 - r2) * xfull * dt + sqrt_2eps * dW
        # higher orders first: they are forced by the lower orders at the
        # *previous* time, so update from the top down
        for m in range(cfg.order, 1, -1):
            xbar[m - 1] += (_linearized_apply(x0, xbar[m - 1]) - _forcing(x0, [None] + xbar, m)) * dt
        if cfg.order >= 1:
            xbar[0] += _linearized_apply(x0, xbar[0]) * dt + sqrt2 * dW
        x0 = xi0 / np.sqrt(r2_xi0 + (1.0 - r2_xi0) * np.exp(-2.0 * step * dt))
        if step % NAN_CHECK_STRIDE == 0 or step in want or step == cfg.n_steps:
            check(step)
        if step in want:
            snapshot(step)
    return BatchResult(slice_steps, out_x0, out_xbar, out_xfull, xi0, xis, aborted, first_abort)


def simulate_path(
    cfg: SimConfig,
    law: InitialLaw,
    rng: np.random.Generator,
    zero_noise: bool = False,
) -> FluctuationPath:
    """One joint sample path with the full grid and the increments retained."""
    record: list = []
    res = simulate_batch(
        cfg, law, 1, rng, slice_steps=range(cfg.n_steps + 1),
        with_xfull=True, zero_noise=zero_noise, _record=record,
    )
    if res.first_abort is not None:
        raise SimulationAbort(*res.first_abort)
    K = cfg.n_steps
    xfull = np.stack([res.xfull[s][0] for s in range(K + 1)])
    xbar = [np.stack([res.xbar_at(s, k)[0] for s in range(K + 1)]) for k in range(cfg.order + 1)]
    dW = np.stack([w[0] for w in record])
    return FluctuationPath(
        times=cfg.times, eps=cfg.eps, xfull=xfull, xbar=xbar,
        brownian_increments=dW, xi0=res.xi0[0], config=cfg,
    )


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
    return combinatorics.s_value(m, i, [None] + [path.xbar[k][:, 0] for k in range(1, m + 1)])
