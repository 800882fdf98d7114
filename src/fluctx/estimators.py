"""Monte Carlo estimators for the expansion coefficients and rate fitting.

`mc_multi` is the one engine: every estimator is a set of named
`Quantity`s, each declaring the chain orders, grid steps and noise level
it reads, and `simulation` derives the one simulation they are read off.
Paths are partitioned into N_BATCHES batches, run one after another on
the calling thread; batch b draws from a counter-based substream keyed by
(seed, b), so each batch is reproducible on its own, and the reduction
runs over batches in index order.  Standard errors come from batch means
over that fixed batch count (Flegal & Jones, Ann. Statist. 2010).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .combinatorics import s_value, taylor_weights
from .hierarchy import InitialLaw, SimConfig, path_rng, simulate_batch
from .observables import Observable

N_BATCHES = 40
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


def batch_layout(n_paths: int) -> List[int]:
    """Deterministic sizes of the N_BATCHES batches, summing to n_paths."""
    if n_paths < N_BATCHES:
        raise ValueError("fewer paths than batches")
    base = n_paths // N_BATCHES
    rem = n_paths % N_BATCHES
    return [base + (1 if b < rem else 0) for b in range(N_BATCHES)]


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


@dataclass(frozen=True)
class Quantity:
    """A per-path `values(batch)` that reads chain orders 0..`order` at grid `steps`.

    `mask(batch)`, if set, keeps only the paths it marks.  A quantity that
    reads X_eps names its `eps` and the `truncation` order of its xi_eps.
    """

    values: Callable
    order: int
    steps: tuple
    mask: Optional[Callable] = None
    eps: Optional[float] = None
    truncation: Optional[int] = None


def simulation(quantities, dim: int, dt: float):
    """(SimConfig, slice steps, noise levels) of the one simulation `quantities` read.

    The chain runs to the last step read and to the highest order read, or
    to the truncation order of the X_eps read: every X_eps starts from all
    the xi_k the chain draws, so a lower truncation order is rejected.  The
    noise levels come in the order first read.
    """
    qs = list(quantities.values())
    noisy = [q for q in qs if q.eps is not None]
    order = max([q.order for q in qs] + [q.truncation for q in noisy])
    if any(q.truncation != order for q in noisy):
        raise ValueError(f"an X_eps is truncated below the chain order {order}")
    steps = sorted({s for q in qs for s in q.steps})
    noise = tuple(dict.fromkeys(q.eps for q in noisy))
    return SimConfig(dim=dim, order=order, dt=dt, t_final=steps[-1] * dt), steps, noise


def batch_bytes(quantities, dim: int, dt: float, n_paths: int) -> int:
    """Bytes the largest batch keeps: per slice, Xbar_0..Xbar_order and X_eps per level."""
    sim, steps, noise = simulation(quantities, dim, dt)
    return len(steps) * (sim.order + 1 + len(noise)) * dim * max(batch_layout(n_paths)) * 8


def mc_multi(quantities, dim: int, dt: float, law: InitialLaw, n_paths: int, seed: int) -> dict:
    """Batched MC means of named `Quantity`s read off one `simulation`.

    Paths aborted in the chain, or in the trajectory a quantity reads, are
    excluded from that quantity's mean and counted against it (the run
    errors out at the first batch where more than 0.1% of its paths have
    aborted, naming the first abort); masked-out paths are excluded from
    that quantity's mean.
    """
    sizes = batch_layout(n_paths)
    sim, steps, noise = simulation(quantities, dim, dt)

    slots = []  # per batch, one (sum, count, aborted) triple per quantity
    # aborts so far per trajectory read (they only grow, so the budget can be
    # checked batch by batch), and the (batch, step, component) of the first
    aborted, first = dict.fromkeys((q.eps for q in quantities.values()), 0), None
    for b, size in enumerate(sizes):
        # with_xfull repeats noise: benchmark/tracer.py keys each call's shape by it
        res = simulate_batch(sim, law, size, path_rng(seed, b), steps, noise=noise,
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
        for q in quantities.values():
            vals = np.asarray(q.values(res), dtype=float)
            lost = res.lost[q.eps]
            keep = ~lost
            if q.mask is not None:
                keep = keep & np.asarray(q.mask(res), dtype=bool)
            out.append((float(np.add.reduce(vals[keep])), int(keep.sum()), int(lost.sum())))
        slots.append(out)
    return {name: _combine([s[idx] for s in slots], name)
            for idx, name in enumerate(quantities)}


# benchmark/tracer.py wraps this name
def mc_mean(quantity, dim, dt, law, n_paths, seed) -> McEstimate:
    """Batched MC mean of one `Quantity`."""
    return mc_multi({"mean": quantity}, dim, dt, law, n_paths, seed)["mean"]


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


def weak_coefficient(m: int, F: Observable, step: int) -> Quantity:
    """The m-th weak coefficient's integrand `a_functional` at a grid step; reads up to m."""
    return Quantity(lambda res: a_functional(m, F, res, step), m, (step,))


def conditional_s(m: int, i: int, step: int, sign: str = "+") -> Quantity:
    """S_{m,i} at a grid step given sign(xi_0) (d = 1), by rejection on that sign.

    S_{m,i} multiplies only Xbar_1..Xbar_{m-i+1}, but it reads up to m: the
    traced benchmark times the S_22 request at chain order 2 only.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")

    def values(res):
        return s_value(m, i, [res.xbar_at(step, j)[:, 0] for j in range(1, m + 1)])

    def wanted(res):
        return res.xi0[:, 0] > 0 if sign == "+" else res.xi0[:, 0] < 0

    return Quantity(values, m, (step,), mask=wanted)


def weak_remainder(m: int, F: Observable, eps: float, order: int, step: int) -> Quantity:
    """Per-path scaled weak remainder v_m^eps at a grid step, xi_eps truncated at `order`.

    v_m = (E F(X_eps) - sum_{k<=m} eps^{k/2} a_k) / eps^{m/2}, estimated
    pathwise on coupled noise: the same increments drive X_eps and every
    a_k integrand, which keeps the variance of the difference small.
    """
    scale = eps ** (m / 2.0)

    def values(res):
        out = F.eval_batch(res.xfull[eps][step])
        for k in range(m + 1):
            out = out - eps ** (k / 2.0) * a_functional(k, F, res, step)
        return out / scale

    return Quantity(values, m, (step,), eps=eps, truncation=order)


def strong_remainder_sq(eps: float, order: int, step: int) -> dict:
    """Per-path |w_{eps,m}|^2 at a grid step for m = 0..order, keyed by m.

    Each reads X_eps with xi_eps truncated at `order`, and the chain up to m.
    """

    def w_sq(m):
        def values(res):
            acc = res.xfull[eps][step].copy()
            for k in range(m + 1):
                acc -= eps ** (k / 2.0) * res.xbar_at(step, k)
            acc /= eps ** (m / 2.0)
            return np.sum(acc * acc, axis=1)
        return Quantity(values, m, (step,), eps=eps, truncation=order)

    return {m: w_sq(m) for m in range(order + 1)}


# benchmark/tracer.py wraps the two estimate_* names where cli imports them
def estimate_weak_remainder(m: int, t: float, F: Observable, cfg: SimConfig, law: InitialLaw,
                            n_paths: int, seed: int) -> McEstimate:
    """MC estimate of v_m^eps at grid time t, eps = cfg.eps, xi_eps truncated at cfg.order."""
    return mc_mean(weak_remainder(m, F, cfg.eps, cfg.order, cfg.grid_index(t)), cfg.dim,
                   cfg.dt, law, n_paths, seed)


def estimate_strong_remainder_sq(t: float, cfg: SimConfig, law: InitialLaw, n_paths: int,
                                 seed: int) -> List[McEstimate]:
    """MC estimates of E |w_{eps,m}(t)|^2 at grid time t and eps = cfg.eps, m = 0..cfg.order."""
    return list(mc_multi(strong_remainder_sq(cfg.eps, cfg.order, cfg.grid_index(t)), cfg.dim,
                         cfg.dt, law, n_paths, seed).values())


def fit_power_law(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise ValueError("need at least 4 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def fit_exponential_rate(ts, gaps, stderrs: Sequence[float]) -> float:
    """Decay rate of gaps ~ C e^{-rate t}; returns the positive rate.

    Points that do not clear RATE_FIT_DROP_FACTOR standard errors (each >= 0)
    are dropped first, nonpositive gaps among them: below that, the Monte
    Carlo noise floor flattens the fit.
    """
    ts = np.asarray(ts, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    keep = gaps > RATE_FIT_DROP_FACTOR * np.asarray(stderrs, dtype=float)
    ts, gaps = ts[keep], gaps[keep]
    if len(ts) < 4:
        raise ValueError("fewer than 4 usable points for the rate fit")
    return float(-np.polyfit(ts, np.log(gaps), 1)[0])
