"""Monte Carlo estimators for the expansion coefficients and rate fitting.

`mc_multi` is the one engine: every estimator is a set of named per-path
quantities over a single simulation.  Paths are partitioned into a fixed
number of batches, run one after another on the calling thread; batch b
draws from a counter-based substream keyed by (seed, b), so each batch is
reproducible on its own, and the reduction runs over batches in index
order.  Standard errors come from batch means (>= 20 batches).  One
simulation steps the chain once and may carry several noise levels; a
quantity that reads a noisy trajectory names its level (`reads_noise`),
and only that trajectory's aborts, besides the chain's, leave its mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .combinatorics import s_value, taylor_weights
from .hierarchy import InitialLaw, SimConfig, path_rng, simulate_batch
from .observables import Observable

MIN_BATCHES = 20
MAX_ABORT_FRACTION = 1e-3
RATE_FIT_DROP_FACTOR = 5.0


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n_paths: int
    n_batches: int
    n_aborted: int = 0  # paths left out because they aborted (chain or the trajectory read)

    def agrees_with(self, reference: float, k_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= k_sigma * self.stderr


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    n_points: int = 0


def batch_layout(n_paths: int, n_batches: int) -> List[int]:
    """Deterministic batch sizes summing to n_paths."""
    if n_batches < MIN_BATCHES:
        raise ValueError(f"need at least {MIN_BATCHES} batches")
    if n_paths < n_batches:
        raise ValueError("fewer paths than batches")
    base = n_paths // n_batches
    rem = n_paths % n_batches
    return [base + (1 if b < rem else 0) for b in range(n_batches)]


def _combine(slots, name) -> McEstimate:
    """Batch-means reduction of per-batch (sum, count, aborted) triples.

    Batches that kept no paths (all masked out or aborted) carry no batch
    mean and are left out of the reduction.
    """
    aborted = sum(s[2] for s in slots)
    slots = [s for s in slots if s[1] > 0]
    if not slots:
        raise EstimationError(f"no retained paths for quantity {name!r}")
    means = np.array([s[0] / s[1] for s in slots])
    counts = np.array([float(s[1]) for s in slots])
    total = float(np.add.reduce([s[0] for s in slots]))
    value = total / float(np.add.reduce(counts))
    n_b = len(slots)
    # weighted batch-means variance of the overall mean
    w = counts / counts.sum()
    var_means = float(np.sum(w * (means - value) ** 2)) * n_b / max(n_b - 1, 1)
    stderr = float(np.sqrt(var_means / n_b))
    if not np.isfinite(value):
        raise EstimationError("estimate is not finite")
    return McEstimate(value=value, stderr=stderr, n_paths=sum(s[1] for s in slots),
                      n_batches=n_b, n_aborted=aborted)


def reads_noise(eps: float, values_fn):
    """Mark a values_fn as reading the noisy trajectory at noise level eps."""
    values_fn.eps = eps
    return values_fn


def mc_multi(quantities, cfg: SimConfig, law: InitialLaw, n_paths: int, seed: int,
             slice_steps: Sequence[int], *, noise: Sequence[float], n_batches: int = 40) -> dict:
    """Batched MC means of several per-path functionals from one simulation.

    `quantities` maps name -> values_fn(batch_result) or
    (values_fn, mask_fn).  The simulation steps the chain once, plus one
    noisy trajectory per level in `noise`; a values_fn marked by
    `reads_noise(eps, ...)` reads the eps trajectory, which `noise` must
    list.  Paths aborted in the chain, or in the trajectory a quantity
    reads, are excluded from that quantity's mean and counted against it
    (the run errors out at the first batch where more than 0.1% of its
    paths have aborted, naming the first abort); masked-out
    paths are excluded from that quantity's mean (used for sign-
    conditioning by rejection).
    """
    sizes = batch_layout(n_paths, n_batches)
    noise = tuple(noise)
    specs = []
    for name, q in quantities.items():
        values_fn, mask_fn = q if isinstance(q, tuple) else (q, None)
        eps = getattr(values_fn, "eps", None)
        if eps is not None and eps not in noise:
            raise ValueError(f"quantity {name!r} reads noise level {eps}, which is not simulated")
        specs.append((values_fn, mask_fn, eps))

    slots = []  # per batch, one (sum, count, aborted) triple per quantity
    # aborts so far per trajectory read (they only grow, so the budget can be
    # checked batch by batch), and the (batch, step, component) of the first
    aborted, first = dict.fromkeys((spec[2] for spec in specs), 0), None
    for b, size in enumerate(sizes):
        # with_xfull repeats what noise says: benchmark/tracer.py keys each
        # traced call's shape by that keyword (ROADMAP item 4(a) drops it)
        res = simulate_batch(cfg, law, size, path_rng(seed, b), slice_steps, noise=noise,
                             with_xfull=bool(noise))
        if first is None and res.first_abort is not None:
            first = (b, *res.first_abort)
        for eps in aborted:
            aborted[eps] += int(res.lost[eps].sum())
            if aborted[eps] > MAX_ABORT_FRACTION * n_paths:
                raise EstimationError(
                    f"{aborted[eps]} of {n_paths} paths aborted by batch {b} of {len(sizes)}"
                    f" (the first in batch {first[0]}, step {first[1]}, {first[2]})")
        out = []
        for values_fn, mask_fn, eps in specs:
            vals = np.asarray(values_fn(res), dtype=float)
            lost = res.lost[eps]
            keep = ~lost
            if mask_fn is not None:
                keep = keep & np.asarray(mask_fn(res), dtype=bool)
            out.append((float(np.add.reduce(vals[keep])), int(keep.sum()), int(lost.sum())))
        slots.append(out)
    return {name: _combine([s[idx] for s in slots], name)
            for idx, name in enumerate(quantities)}


def mc_mean(values_fn, cfg: SimConfig, law: InitialLaw, n_paths: int, seed: int,
            slice_steps: Sequence[int], *, noise: Sequence[float],
            n_batches: int = 40) -> McEstimate:
    """Batched MC mean of one per-path functional `values_fn(batch_result)`."""
    return mc_multi({"mean": values_fn}, cfg, law, n_paths, seed, slice_steps,
                    noise=noise, n_batches=n_batches)["mean"]


def a_functional(m: int, F: Observable, res, step: int) -> np.ndarray:
    """Pathwise integrand of the m-th weak coefficient at a grid step.

    sum_i (1/i!) sum over compositions of D^i F(Xbar_0)(Xbar_{j_1}, ...).
    """
    x0 = res.x0[step]
    if m == 0:
        return F.eval_batch(x0)
    out = np.zeros(x0.shape[0])
    for i in range(1, m + 1):
        for comp, w in taylor_weights(m, i):
            vs = [res.xbar_at(step, j) for j in comp]
            out += float(w) * F.apply_derivative_batch(i, x0, vs)
    return out


def conditional_s(m: int, i: int, step: int, sign: str = "+") -> tuple:
    """(values_fn, mask_fn) of S_{m,i} at a grid step given sign(xi_0) (d = 1)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")

    def values(res):
        return s_value(m, i, [None] + [res.xbar_at(step, j)[:, 0] for j in range(1, m + 1)])

    def wanted(res):
        return res.xi0[:, 0] > 0 if sign == "+" else res.xi0[:, 0] < 0

    return values, wanted


def weak_remainder(m: int, F: Observable, cfg: SimConfig, step: int):
    """Per-path scaled weak remainder v_m^eps at a grid step (reads X_eps at cfg.eps).

    v_m = (E F(X_eps) - sum_{k<=m} eps^{k/2} a_k) / eps^{m/2}, estimated
    pathwise on coupled noise: the same increments drive X_eps and every
    a_k integrand, which keeps the variance of the difference small.
    """
    if not 0 <= m <= cfg.order:
        raise ValueError(f"m must be in [0, {cfg.order}]")
    scale = cfg.eps ** (m / 2.0)

    def values(res):
        out = F.eval_batch(res.xfull[cfg.eps][step])
        for k in range(m + 1):
            out = out - cfg.eps ** (k / 2.0) * a_functional(k, F, res, step)
        return out / scale

    return reads_noise(cfg.eps, values)


def strong_remainder_sq(cfg: SimConfig, step: int) -> dict:
    """Per-path |w_{eps,m}|^2 at a grid step for m = 0..cfg.order, keyed by m.

    Each reads the noisy trajectory at cfg.eps.
    """

    def w_sq(m):
        def values(res):
            acc = res.xfull[cfg.eps][step].copy()
            for k in range(m + 1):
                acc -= cfg.eps ** (k / 2.0) * res.xbar_at(step, k)
            acc /= cfg.eps ** (m / 2.0)
            return np.sum(acc * acc, axis=1)
        return reads_noise(cfg.eps, values)

    return {m: w_sq(m) for m in range(cfg.order + 1)}


def estimate_weak_remainder(m: int, t: float, F: Observable, cfg: SimConfig, law: InitialLaw,
                            n_paths: int, seed: int, n_batches: int = 40) -> McEstimate:
    """MC estimate of the scaled weak remainder v_m^eps at grid time t."""
    step = cfg.grid_index(t)
    return mc_mean(weak_remainder(m, F, cfg, step), cfg, law, n_paths, seed, [step],
                   noise=(cfg.eps,), n_batches=n_batches)


def estimate_strong_remainder_sq(t: float, cfg: SimConfig, law: InitialLaw, n_paths: int,
                                 seed: int, n_batches: int = 40) -> List[McEstimate]:
    """MC estimates of E |w_{eps,m}(t)|^2 at grid time t for m = 0..cfg.order.

    Every order is read off the same simulated paths.
    """
    step = cfg.grid_index(t)
    return list(mc_multi(strong_remainder_sq(cfg, step), cfg, law, n_paths, seed, [step],
                         noise=(cfg.eps,), n_batches=n_batches).values())


def fit_power_law(xs, ys) -> RateFit:
    """Least-squares slope of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise ValueError("need at least 4 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(exponent=float(slope), intercept=float(intercept), r_squared=r2,
                   n_points=len(xs))


def fit_exponential_rate(ts, gaps, stderrs: Optional[Sequence[float]] = None) -> RateFit:
    """Decay rate of gaps ~ C e^{-rate t}; returns the positive rate.

    Points within RATE_FIT_DROP_FACTOR standard errors of zero are dropped
    first: below that, the Monte Carlo noise floor flattens the fit.
    """
    ts = np.asarray(ts, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if stderrs is not None:
        se = np.asarray(stderrs, dtype=float)
        keep = gaps > RATE_FIT_DROP_FACTOR * se
        ts, gaps = ts[keep], gaps[keep]
    if np.any(gaps <= 0):
        raise ValueError("gaps must be positive")
    if len(ts) < 4:
        raise ValueError("fewer than 4 usable points for the rate fit")
    slope, intercept = np.polyfit(ts, np.log(gaps), 1)
    pred = slope * ts + intercept
    ly = np.log(gaps)
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(exponent=float(-slope), intercept=float(intercept), r_squared=r2,
                   n_points=len(ts))
