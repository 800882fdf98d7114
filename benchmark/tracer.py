"""Spans around the public functions of fluctx, recorded from outside.

Each function is wrapped under the name its callers look it up by (for
example `simulate_batch` as `fluctx.estimators` imports it), so the
program itself is unchanged.  A span is (id, name, start, end, parent,
thread, attrs); spans stay in memory until the round writes them out.  A
span opened on a worker thread with nothing open on that thread takes the
innermost open span of the main thread as its parent: the main thread is
then blocked in the estimator that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


def _batch_attrs(args, kwargs, result):
    cfg, n_paths = args[0], args[2]
    return {"path_steps": n_paths * cfg.n_steps, "aborted": int(result.aborted.sum()),
            "shape": [cfg.dim, cfg.order, bool(kwargs.get("with_xfull", True)), n_paths,
                      cfg.n_steps]}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.get_ident()

    def wrap(self, owner, attr, name, attrs_fn=None):
        fn = getattr(owner, attr)
        spans, ids, stacks, main = self.spans, self._ids, self._stacks, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, tid = next(ids), threading.get_ident()
            stack = stacks.setdefault(tid, [])
            outer = stack or stacks.get(main) or [None]
            parent = outer[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans.append((sid, name, t0, t1, parent, tid, attrs))
            return result

        setattr(owner, attr, traced)

    def install(self):
        """Wrap every public function the per-layer metrics are built from."""
        from fluctx import cli, equilibrium, estimators, observables

        for attr in ("main", "run_experiment", "parse_config"):
            self.wrap(cli, attr, f"cli.{attr}")
        for attr in ("mc_multi", "estimate_strong_remainder_sq", "estimate_weak_remainder",
                     "a_functional", "fit_power_law", "fit_exponential_rate"):
            self.wrap(cli, attr, f"estimators.{attr}")
        for attr in ("mc_mean", "a_functional"):
            self.wrap(estimators, attr, f"estimators.{attr}")
        self.wrap(estimators, "simulate_batch", "hierarchy.simulate_batch", _batch_attrs)
        for attr in ("eval_batch", "apply_derivative_batch"):
            self.wrap(observables.Observable, attr, f"observables.{attr}")
        for attr in ("c_table", "d_table", "b_coeff", "big_b_coeff"):
            self.wrap(cli, attr, f"recursions.{attr}")
        self.wrap(equilibrium, "big_b_coeff", "recursions.big_b_coeff")
        for attr in ("stationarity_defect", "gibbs_expectation", "expansion_residual_order",
                     "residual_coefficient_fit"):
            self.wrap(cli, attr, f"equilibrium.{attr}")
        self.wrap(equilibrium, "gibbs_expectation", "equilibrium.gibbs_expectation")
        return self

    def dump(self):
        return [list(s) for s in self.spans]


# -- aggregation ---------------------------------------------------------------


def _union(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _length(union):
    return sum((b - a for a, b in union), 0.0)


def _overlap(u, v):
    """Length of the intersection of two unions of intervals."""
    i = j = 0
    total = 0.0
    while i < len(u) and j < len(v):
        lo, hi = max(u[i][0], v[j][0]), min(u[i][1], v[j][1])
        total += max(0.0, hi - lo)
        if u[i][1] < v[j][1]:
            i += 1
        else:
            j += 1
    return total


def _select(spans, *prefixes):
    return [s for s in spans if s[1].startswith(prefixes)]


def _busy(spans, *prefixes):
    return _length(_union([(s[2], s[3]) for s in _select(spans, *prefixes)]))


def _busy_minus(spans, outer, inner):
    u = _union([(s[2], s[3]) for s in _select(spans, *outer)])
    return _length(u) - _overlap(u, _union([(s[2], s[3]) for s in _select(spans, *inner)]))


ESTIMATOR_ENTRIES = ("estimators.mc_multi", "estimators.mc_mean", "estimators.estimate_")


def layer_metrics(spans, required_path_steps):
    """Per-layer metrics of one traced round; a layer it never calls reads 0."""
    sims = _select(spans, "hierarchy.simulate_batch")
    path_steps = sum(s[6]["path_steps"] for s in sims)
    busy = _busy(spans, "hierarchy.")
    return {
        "hierarchy.simulate_calls": len(sims),
        "hierarchy.path_steps": path_steps,
        "hierarchy.busy_s": busy,
        "hierarchy.ns_per_path_step": 1e9 * busy / path_steps if path_steps else 0.0,
        "hierarchy.aborted_paths": sum(s[6]["aborted"] for s in sims),
        "estimators.mc_calls": len(_select(spans, "estimators.mc_multi", "estimators.mc_mean")),
        "estimators.useful_path_step_ratio":
            required_path_steps / path_steps if path_steps else 0.0,
        "estimators.self_s": _busy_minus(spans, ESTIMATOR_ENTRIES, ("hierarchy.",)),
        "estimators.a_functional_s": _busy(spans, "estimators.a_functional"),
        "observables.eval_s": _busy(spans, "observables."),
        "recursions.c_table_s": _busy(spans, "recursions.c_table"),
        "recursions.d_table_s": _busy(spans, "recursions.d_table"),
        "equilibrium.quadrature_s": _busy(spans, "equilibrium."),
        "equilibrium.calls": len(_select(spans, "equilibrium.")),
        "cli.self_s": _busy_minus(spans, ("cli.run_experiment",),
                                  ("estimators.", "hierarchy.", "observables.", "recursions.",
                                   "equilibrium.")),
        "cli.parse_config_s": _busy(spans, "cli.parse_config"),
    }


def isolated_busy(spans, shape_ns):
    """Seconds the round's simulate_batch calls take when run alone, one at a time."""
    return sum(s[6]["path_steps"] * shape_ns[shape_key(s[6]["shape"])] * 1e-9
               for s in _select(spans, "hierarchy.simulate_batch"))


def shape_key(shape):
    """dim, order, with_xfull, batch size, steps as one string."""
    return ",".join(str(x) for x in shape)
