"""Isolated timings of `fluctx.hierarchy.simulate_batch`.

Every figure is nanoseconds per path-step, the median over REPEATS calls,
each on its own Philox substream.  The kernel split times one batch at
increasing configurations and reports the increments:

    rng     the Philox `standard_normal((n, d))` draw alone, once per step
    flow    order 0 without the noisy trajectory, minus rng
    xfull   order 0 with the noisy trajectory, minus order 0 without it
    orderK  order K without the noisy trajectory, minus order K-1
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5
SPLIT_STEPS = 200
SPLIT_DT = 0.01


def _law(spec):
    """The InitialLaw a config's `initial_law` object stands for, as the CLI builds it."""
    from fluctx.cli import ExperimentConfig

    return ExperimentConfig(experiment="strong_rates", seed=0, initial_law=spec).law()


def batch_ns(dim, order, eps, dt, t_final, law, n, slice_times, with_xfull,
             repeats=REPEATS) -> float:
    """Median ns per path-step of one simulate_batch call of this shape."""
    from fluctx.hierarchy import SimConfig, path_rng, simulate_batch

    cfg = SimConfig(dim=dim, order=order, eps=eps, dt=dt, t_final=t_final)
    steps = [cfg.grid_index(t) for t in slice_times]
    law = _law(law)
    samples = []
    for r in range(repeats):
        rng = path_rng(1, r)
        t0 = time.perf_counter()
        simulate_batch(cfg, law, n, rng, steps, with_xfull=with_xfull)
        samples.append((time.perf_counter() - t0) * 1e9 / (n * cfg.n_steps))
    return statistics.median(samples)


def rng_ns(dim, n, steps=SPLIT_STEPS, repeats=REPEATS) -> float:
    from fluctx.hierarchy import path_rng

    samples = []
    for r in range(repeats):
        rng = path_rng(1, r)
        t0 = time.perf_counter()
        for _ in range(steps):
            rng.standard_normal((n, dim))
        samples.append((time.perf_counter() - t0) * 1e9 / (n * steps))
    return statistics.median(samples)


def kernel_split(dim, n, law, eps, steps=SPLIT_STEPS, repeats=REPEATS) -> dict:
    """rng_ns, flow_ns, xfull_ns and order1_ns..order3_ns at dim and batch n."""
    t_final = steps * SPLIT_DT

    def at(order, with_xfull):
        return batch_ns(dim, order, eps, SPLIT_DT, t_final, law, n, (t_final,), with_xfull,
                        repeats)

    rng = rng_ns(dim, n, steps, repeats)
    chain = [at(k, False) for k in range(4)]
    out = {"rng_ns": rng, "flow_ns": chain[0] - rng, "xfull_ns": at(0, True) - chain[0]}
    for k in (1, 2, 3):
        out[f"order{k}_ns"] = chain[k] - chain[k - 1]
    return out
