"""Joint pathwise simulation of the fluctuation chain and its noisy trajectories.

One shared Brownian path drives everything: the deterministic leading
order (exact flow), the first-order linear SDE (diffusion sqrt(2) dW),
the higher orders, which are linear ODEs forced by products of
lower-order fluctuations over integer compositions, and one noisy
trajectory X_eps per requested noise level (Euler-Maruyama with additive
noise sqrt(2 eps) dW).  The chain Xbar_0..Xbar_n does not depend on eps,
so it is stepped once per simulation however many noise levels ride on
it; each X_eps starts from xi_eps and reads the same increments.

The batch engine is fully vectorized over paths: state arrays have shape
(n_paths, dim) and only requested time slices are retained, so estimators
can run 1e5+ paths without storing trajectories.  Aborts are tracked per
trajectory: a path that diverges in the chain is lost to every quantity,
one that diverges in the X_eps trajectory only to quantities reading that
trajectory.  `simulate_path` keeps the full grid (plus the increments) for
the pathwise identities.
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
    """The simulation grid and chain order.

    The chain never reads `eps`: it names the noise level a quantity reads
    (and the one level that `simulate_batch(..., with_xfull=True)` steps).
    """

    dim: int
    order: int
    dt: float
    t_final: float
    eps: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 <= self.order <= combinatorics.MAX_ORDER:
            raise ValueError(f"order must be in [0, {combinatorics.MAX_ORDER}]")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit for bit np.sum(a * b, axis=-1, keepdims=True), at less cost per call.

    At these batch sizes the call overhead is as large as the arithmetic:
    np.add.reduce skips np.sum's dispatch, and at d = 1 the reduction is
    the single term plus 0.0 (which turns -0.0 into 0.0, as it does).
    """
    p = a * b
    if p.shape[-1] == 1:
        p += 0.0
        return p
    return np.add.reduce(p, axis=-1, keepdims=True)


def _linearized_apply(x0: np.ndarray, r2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[(1 - |x0|^2) I - 2 x0 x0^T] v, rowwise over paths; r2 = |x0|^2."""
    dot = _row_dot(x0, v)
    return (1.0 - r2) * v - 2.0 * dot * x0


def _forcing(x0: np.ndarray, xbar: List[np.ndarray], m: int) -> np.ndarray:
    """Total order-m contribution of the cubic nonlinearity (sign: subtract)."""
    out = np.zeros_like(x0)
    for (i, j) in combinatorics.compositions(m, 2):
        dij = _row_dot(xbar[i], xbar[j])
        di0 = _row_dot(xbar[i], x0)
        out += dij * x0 + 2.0 * di0 * xbar[j]
    for (i, j, k) in combinatorics.compositions(m, 3):
        dij = _row_dot(xbar[i], xbar[j])
        out += dij * xbar[k]
    return out


class BatchResult:
    """Time slices of a batch simulation, plus abort diagnostics."""

    def __init__(self, slice_steps, x0, xbar, xfull, xi0, xis, lost, first_abort):
        self.slice_steps = slice_steps          # list of grid step indices
        self.x0 = x0                            # {step: (n, d)}
        self.xbar = xbar                        # {step: [order arrays (n, d)]}  (index k-1 -> xbar_k)
        self.xfull = xfull                      # {eps: {step: (n, d)}}, one per noise level
        self.xi0 = xi0
        self.xis = xis
        # bool masks (n,): lost[None] = aborted in the chain; lost[eps] =
        # aborted in the chain or in the eps trajectory
        self.lost = lost
        self.first_abort = first_abort          # (step, component) or None

    @property
    def aborted(self) -> np.ndarray:
        """Paths aborted anywhere: in the chain or in any noisy trajectory."""
        return np.logical_or.reduce(list(self.lost.values()))

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
    noise: Optional[Sequence[float]] = None,
    *,
    with_xfull: bool = True,
    zero_noise: bool = False,
    _record=None,
) -> BatchResult:
    """Simulate n_paths jointly, retaining state only at `slice_steps`.

    The chain is stepped once; `noise` lists the noise levels eps that
    each get a noisy trajectory X_eps, started from `law.xi_eps` (an empty
    tuple simulates the chain only).  All components consume the identical
    increments array each step.  Paths that turn non-finite are frozen to
    NaN and flagged per trajectory (see `BatchResult.lost`); the first
    failure's (step, component) is kept for diagnostics.

    `with_xfull` is read only when `noise` is None: True stands for
    noise=(cfg.eps,), False for noise=().  It is the spelling
    benchmark/kernel.py uses and goes away with ROADMAP item 4(a).
    """
    if noise is None:
        noise = (cfg.eps,) if with_xfull else ()
    noise = tuple(noise)
    if len(set(noise)) != len(noise) or not all(0.0 < eps < 1.0 for eps in noise):
        raise ValueError("noise levels must be distinct and in (0, 1)")
    slice_steps = sorted(set(int(s) for s in slice_steps))
    if slice_steps and not 0 <= slice_steps[0] <= slice_steps[-1] <= cfg.n_steps:
        raise ValueError("slice steps outside the grid")
    xi0, xis = law.sample(rng, n_paths, cfg.dim, cfg.order)
    r2_xi0 = np.sum(xi0 * xi0, axis=1, keepdims=True)

    x0 = xi0.copy()
    xbar = [x.copy() for x in xis]
    # every noisy trajectory in one (levels, n, d) array, so that a step
    # updates them all with the same few array operations
    xfull = np.empty((len(noise), n_paths, cfg.dim))
    for i, eps in enumerate(noise):
        xfull[i] = law.xi_eps(xi0, xis, eps)
    sqrt_2eps = np.sqrt(2.0 * np.asarray(noise, dtype=float))[:, None, None]

    out_x0, out_xbar, out_xfull = {}, {}, {eps: {} for eps in noise}
    lost = {key: np.zeros(n_paths, dtype=bool) for key in (None,) + noise}
    first_abort = None
    sqrt_dt = np.sqrt(cfg.dt)
    sqrt2 = np.sqrt(2.0)
    dt = cfg.dt
    want = set(slice_steps)

    def snapshot(step):
        out_x0[step] = x0.copy()
        out_xbar[step] = [x.copy() for x in xbar]
        for i, eps in enumerate(noise):
            out_xfull[eps][step] = xfull[i].copy()

    def flag(mask, name, arr, step):
        nonlocal first_abort
        new = ~np.all(np.isfinite(arr), axis=1) & ~mask
        if np.any(new):
            if first_abort is None:
                first_abort = (step, name)
            mask |= new

    def check(step):
        for i, eps in enumerate(noise):
            flag(lost[eps], f"xfull(eps={eps:g})", xfull[i], step)
        chain = [("xbar0", x0)] + [(f"xbar{k}", xbar[k - 1]) for k in range(1, cfg.order + 1)]
        for name, arr in chain:
            flag(lost[None], name, arr, step)
        # a path lost in the chain is lost to every trajectory
        if np.any(lost[None]):
            for _, arr in chain:
                arr[lost[None]] = np.nan
        for i, eps in enumerate(noise):
            lost[eps] |= lost[None]
            if np.any(lost[eps]):
                xfull[i][lost[eps]] = np.nan

    if 0 in want:
        snapshot(0)
    for step in range(1, cfg.n_steps + 1):
        if zero_noise:
            dW = np.zeros((n_paths, cfg.dim))
        else:
            dW = sqrt_dt * rng.standard_normal((n_paths, cfg.dim))
        if _record is not None:
            _record.append(dW)
        if noise:
            # diverging paths overflow before they are frozen to NaN; the
            # abort bookkeeping handles them, so the warnings are noise
            with np.errstate(over="ignore", invalid="ignore"):
                r2_full = _row_dot(xfull, xfull)
                xfull += (1.0 - r2_full) * xfull * dt + sqrt_2eps * dW
        if cfg.order >= 1:
            r2 = _row_dot(x0, x0)
            # higher orders first: they are forced by the lower orders at
            # the *previous* time, so update from the top down
            for m in range(cfg.order, 1, -1):
                xbar[m - 1] += (_linearized_apply(x0, r2, xbar[m - 1])
                                - _forcing(x0, [None] + xbar, m)) * dt
            xbar[0] += _linearized_apply(x0, r2, xbar[0]) * dt + sqrt2 * dW
        x0 = xi0 / np.sqrt(r2_xi0 + (1.0 - r2_xi0) * np.exp(-2.0 * step * dt))
        if step % NAN_CHECK_STRIDE == 0 or step in want or step == cfg.n_steps:
            check(step)
        if step in want:
            snapshot(step)
    return BatchResult(slice_steps, out_x0, out_xbar, out_xfull, xi0, xis, lost, first_abort)


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
        noise=(cfg.eps,), zero_noise=zero_noise, _record=record,
    )
    if res.first_abort is not None:
        raise SimulationAbort(*res.first_abort)
    K = cfg.n_steps
    xfull = np.stack([res.xfull[cfg.eps][s][0] for s in range(K + 1)])
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
