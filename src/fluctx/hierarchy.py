"""Joint pathwise simulation of the fluctuation chain and its noisy trajectories.

One shared Brownian path drives everything: the deterministic leading
order (exact flow), the first-order linear SDE (diffusion sqrt(2) dW),
the higher orders, which are linear ODEs forced by products of
lower-order fluctuations over integer compositions, and one noisy
trajectory X_eps per requested noise level (Euler-Maruyama with additive
noise sqrt(2 eps) dW).  The chain Xbar_0..Xbar_n does not depend on eps,
so it is stepped once per simulation however many noise levels ride on
it; each X_eps starts from xi_eps and reads the same increments.

The batch engine is fully vectorized over paths and keeps its state
component-major: the chain is one (order + 1, dim, n_paths) array and
the noisy trajectories one (levels, dim, n_paths) array, so a dot product
is one reduction over a short outer axis and every order's linear part is
one array operation.  Only requested time slices are retained, transposed
to (n_paths, dim), so estimators can run 1e5+ paths without storing
trajectories.  Aborts are tracked per trajectory: a path that diverges in
the chain is lost to every quantity, one that diverges in the X_eps
trajectory only to quantities reading that trajectory.

The Brownian increments are drawn a block of steps at a time.  Below
DRAW_AHEAD_WIDTH doubles a step (n_paths * dim) they are drawn inline,
in blocks of up to DRAW_BLOCK doubles.  From there on one helper thread
draws them, in blocks of up to DRAW_AHEAD_BLOCK doubles and up to
DRAW_RING blocks ahead of the stepping loop, so the Philox draw runs on
a second core beside it; at narrower steps the thread handoffs cost more
than the draw.  Either way the same function fills each block, the
generator yields the same numbers in the same order and is left in the
same state.
"""

from __future__ import annotations

import itertools
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import combinatorics

NAN_CHECK_STRIDE = 25
DRAW_BLOCK = 16384  # doubles of standard normals drawn at a time inline (128 KB)
DRAW_AHEAD_WIDTH = 2048  # doubles a step from which a helper thread draws ahead
DRAW_AHEAD_BLOCK = 32768  # doubles a block the helper draws at a time (256 KB)
DRAW_RING = 3  # blocks of increments the helper may have drawn and not yet handed back


@dataclass(frozen=True)
class SimConfig:
    """The simulation grid and chain order.

    The chain never reads `eps`; only the `with_xfull` alias of
    `simulate_batch` (the one level it steps) and the `estimate_*` wrappers do.
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


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based private substream for one path (or batch) index."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([master_seed, path_index])))


def _component_sum(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the component axis (-2) of component-major p, into out.

    Bit for bit np.sum over the same values held row-major (last axis),
    signed zeros included, in one call: at these batch sizes a call costs
    as much as its arithmetic.  At d = 1 the sum is the single term plus
    0.0 (which turns -0.0 into 0.0, as np.sum does).  From 8 components on
    np.sum adds a row pairwise, so the rows are summed as rows.
    """
    d = p.shape[-2]
    if d == 1:
        return np.add(p[..., 0, :], 0.0, out=out)
    if d < 8:
        return np.add.reduce(p, axis=-2, out=out)
    return np.add.reduce(np.swapaxes(p, -1, -2).copy(), axis=-1, out=out)


@contextmanager
def _increment_blocks(rng, n_steps: int, n: int, d: int, dt: float):
    """The Brownian increments sqrt(dt) Z of n_steps steps, as an iterator of blocks.

    Each block is a (steps, d, n) component-major view, valid until the
    next one is taken; together they are the rng's next n_steps * n * d
    standard normals, read in (step, path, component) order.  Below
    DRAW_AHEAD_WIDTH doubles a step the blocks are drawn inline, when
    taken.  From there on a helper thread draws up to DRAW_RING blocks
    ahead of the caller, and only it touches rng until it is joined on
    leaving the context; Philox's fill and the ufunc loops release the
    GIL, so the draw runs beside the caller's stepping.  An exception in
    the helper is raised from the iterator.
    """
    inline = n * d < DRAW_AHEAD_WIDTH
    block = max(1, min(n_steps, (DRAW_BLOCK if inline else DRAW_AHEAD_BLOCK) // (n * d)))
    sizes = [min(block, n_steps - start) for start in range(0, n_steps, block)]
    sqrt_dt = np.sqrt(dt)
    # at d = 1 the transposed increments share the draws' memory
    z = None if d == 1 else np.empty((block, n, d))

    def fill(out, size):
        draw = out.reshape(block, n, d) if z is None else z
        rng.standard_normal(out=draw[:size])
        return np.multiply(draw[:size].transpose(0, 2, 1), sqrt_dt, out=out[:size])

    if inline:
        out = np.empty((block, d, n))
        yield (fill(out, size) for size in sizes)
        return

    free, ready = queue.Queue(), queue.Queue()
    for _ in range(DRAW_RING):
        free.put(np.empty((block, d, n)))

    def draw_ahead():
        try:
            for size in sizes:
                out = free.get()
                if out is None:
                    return
                ready.put((out, fill(out, size)))
        except BaseException as exc:  # handed to the caller, which raises it
            ready.put((None, exc))

    def blocks():
        for _ in sizes:
            out, item = ready.get()
            if out is None:
                raise item
            yield item
            free.put(out)

    helper = threading.Thread(target=draw_ahead, name="fluctx-draw-ahead", daemon=True)
    helper.start()
    try:
        yield blocks()
    finally:
        free.put(None)
        helper.join()


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
) -> BatchResult:
    """Simulate n_paths jointly, retaining state only at `slice_steps`.

    The chain is stepped once; `noise` lists the noise levels eps that
    each get a noisy trajectory X_eps, started from `law.xi_eps` (an empty
    tuple simulates the chain only).  All components consume the identical
    increments each step.  Paths that turn non-finite are frozen to NaN
    and flagged per trajectory (see `BatchResult.lost`); the first
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
    K, n, d, levels = cfg.order, n_paths, cfg.dim, len(noise)
    n_steps, dt = cfg.n_steps, cfg.dt
    r2_xi0 = np.sum(xi0 * xi0, axis=1)
    one_minus_r2_xi0 = 1.0 - r2_xi0

    # component-major state: chain[k] is Xbar_k and xfull[i] is X_eps at
    # eps = noise[i], each (d, n); all noise levels step together
    chain = np.empty((K + 1, d, n))
    for k, x in enumerate([xi0] + xis):
        chain[k] = x.T
    xi0_cm = np.ascontiguousarray(xi0.T)
    xfull = np.empty((levels, d, n))
    for i, eps in enumerate(noise):
        xfull[i] = law.xi_eps(xi0, xis, eps).T
    sqrt_2eps = np.sqrt(2.0 * np.asarray(noise, dtype=float))[:, None, None]
    sqrt2 = np.sqrt(2.0)

    # preallocated buffers; at d = 1 each dot product is formed in its own
    # output row
    prod = None if d == 1 else np.empty((max(K + 1, levels), d, n))
    r2_full, drift_full, noise_full = (np.empty((levels, n)), np.empty((levels, d, n)),
                                       np.empty((levels, d, n)))
    dots = np.empty((K + 1, n))
    # scratch[0] holds one term at a time, scratch[1:] the forcing of orders 2..K
    inc, scratch = np.empty((K, d, n)), np.empty((K, d, n))
    # Xbar_lo . Xbar_hi and that times x0, for lo <= hi, lo + hi <= K, at [lo][hi - lo]
    pair_dot = {lo: np.empty((K + 1 - 2 * lo, n)) for lo in range(1, K // 2 + 1)}
    pair_x0 = {lo: np.empty((K + 1 - 2 * lo, d, n)) for lo in range(1, K // 2 + 1)}
    forcing_plan = [(combinatorics.compositions(m, 2), combinatorics.compositions(m, 3))
                    for m in range(2, K + 1)]
    den = dots[0]  # the flow's denominator, once the chain has stepped

    def dot_into(a, b, out):
        """The dot products of the component-major vectors a and b, into out."""
        p = out[:, None, :] if prod is None else prod[:len(out)]
        return _component_sum(np.multiply(a, b, out=p), out)

    def step_chain(dW):
        x0 = chain[0]
        dot_into(chain, x0, dots)
        q = np.subtract(1.0, dots[0], out=dots[0])
        two_dot = np.multiply(dots[1:], 2.0, out=dots[1:])
        # linear part [(1 - |x0|^2) I - 2 x0 x0^T] Xbar_k, every order at once
        np.multiply(chain[1:], q, out=inc)
        np.subtract(inc, np.multiply(two_dot[:, None, :], x0, out=scratch), out=inc)
        for lo in pair_dot:
            dot_into(chain[lo:K + 1 - lo], chain[lo], pair_dot[lo])
            np.multiply(pair_dot[lo][:, None, :], x0, out=pair_x0[lo])
        # the cubic nonlinearity's order-m part, summed in composition order
        # from its first term (a start at +0.0 could only flip the sign of an
        # all-zero sum, which no Xbar_m shows); (Xbar_i . Xbar_j) Xbar_k is
        # shared by (i, j, k) and (j, i, k)
        shared = {}
        for f, (pairs, triples) in zip(scratch[1:], forcing_plan):
            for c, (i, j) in enumerate(pairs):
                # (Xbar_i . Xbar_j) x0 + 2 (Xbar_i . x0) Xbar_j
                term = np.multiply(two_dot[i - 1], chain[j], out=f if c == 0 else scratch[0])
                term += pair_x0[min(i, j)][abs(j - i)]
                if c:
                    f += term
            for (i, j, k) in triples:
                key = (min(i, j), max(i, j), k)
                if key not in shared:
                    shared[key] = pair_dot[key[0]][key[1] - key[0]] * chain[k]
                f += shared[key]
        inc[1:] -= scratch[1:]
        np.multiply(inc, dt, out=inc)
        inc[0] += np.multiply(dW, sqrt2, out=scratch[0])
        chain[1:] += inc

    out_x0, out_xbar, out_xfull = {}, {}, {eps: {} for eps in noise}
    lost = {key: np.zeros(n, dtype=bool) for key in (None,) + noise}
    first_abort = None
    want = set(slice_steps)

    def snapshot(step):
        out_x0[step] = chain[0].T.copy()
        out_xbar[step] = [x.T.copy() for x in chain[1:]]
        for i, eps in enumerate(noise):
            out_xfull[eps][step] = xfull[i].T.copy()

    def flag(mask, name, bad, step):
        nonlocal first_abort
        new = bad & ~mask
        if np.any(new):
            if first_abort is None:
                first_abort = (step, name)
            mask |= new

    def check(step):
        bad = ~np.all(np.isfinite(xfull), axis=1)
        for i, eps in enumerate(noise):
            flag(lost[eps], f"xfull(eps={eps:g})", bad[i], step)
        bad = ~np.all(np.isfinite(chain), axis=1)
        for k in range(K + 1):
            flag(lost[None], f"xbar{k}", bad[k], step)
        # a path lost in the chain is lost to every trajectory
        if np.any(lost[None]):
            chain[:, :, lost[None]] = np.nan
        for i, eps in enumerate(noise):
            lost[eps] |= lost[None]
            if np.any(lost[eps]):
                xfull[i][:, lost[eps]] = np.nan

    if 0 in want:
        snapshot(0)
    # diverging paths overflow before they are frozen to NaN; the abort
    # bookkeeping handles them, so the warnings are noise
    with _increment_blocks(rng, n_steps, n, d, dt) as blocks, \
            np.errstate(over="ignore", invalid="ignore"):
        for step, dW in enumerate(itertools.chain.from_iterable(blocks), start=1):
            if levels:
                dot_into(xfull, xfull, r2_full)
                np.subtract(1.0, r2_full, out=r2_full)
                np.multiply(xfull, r2_full[:, None, :], out=drift_full)
                drift_full *= dt
                drift_full += np.multiply(dW, sqrt_2eps, out=noise_full)
                xfull += drift_full
            if K >= 1:
                # every order is forced by the lower orders at the previous
                # time: all increments are taken before any order moves
                step_chain(dW)
            np.multiply(one_minus_r2_xi0, np.exp(-2.0 * step * dt), out=den)
            den += r2_xi0
            np.divide(xi0_cm, np.sqrt(den, out=den), out=chain[0])
            if step % NAN_CHECK_STRIDE == 0 or step in want or step == n_steps:
                check(step)
            if step in want:
                snapshot(step)
    return BatchResult(slice_steps, out_x0, out_xbar, out_xfull, xi0, xis, lost, first_abort)
