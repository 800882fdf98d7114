"""A frozen copy of the row-major batch kernel, the reference for the lean one.

State arrays are (n_paths, dim); each dot product is a row reduction and
every order is stepped by its own array operations.  The step loop is
kept exactly as it was (less its test-only hooks), so that the
component-major kernel can be checked against it byte for byte.
"""

from typing import List, Sequence

import numpy as np

from fluctx import combinatorics
from fluctx.hierarchy import NAN_CHECK_STRIDE, BatchResult, InitialLaw, SimConfig


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


def simulate_batch(
    cfg: SimConfig,
    law: InitialLaw,
    n_paths: int,
    rng: np.random.Generator,
    slice_steps: Sequence[int],
    noise: Sequence[float],
) -> BatchResult:
    """The row-major step loop, as fluctx.hierarchy.simulate_batch had it."""
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
        dW = sqrt_dt * rng.standard_normal((n_paths, cfg.dim))
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
