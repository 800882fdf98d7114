"""Experiment orchestration: JSON configs in, CSV results out.

Each subcommand names an experiment suite; a checked-in config under
configs/ reproduces the corresponding desk-scale check.  Outputs are
results.csv (one row per estimate or check), tables.csv (exact rational
tables, when the experiment produces them) and manifest.json (config
echo, versions, seed, wall time).  Exit code 0 iff every pass flag is
true, 2 if any check fails, 1 on runtime/config errors.

results.csv is byte-identical across reruns of the same config for any
worker count; volatile quantities (wall times) go to manifest.json only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .combinatorics import MAX_ORDER
from .equilibrium import (
    QuadratureSpec,
    expansion_residual_order,
    gibbs_expectation,
    residual_coefficient_fit,
    stationarity_defect,
)
from .estimators import (
    a_functional,
    conditional_s,
    estimate_strong_remainder_sq,
    estimate_weak_remainder,
    fit_exponential_rate,
    fit_power_law,
    mc_multi,
)
from .hierarchy import InitialLaw, SimConfig
from .observables import Observable, ParseError, parse_polynomial
from .recursions import b_coeff, big_b_coeff, c_table, d_table

EXPERIMENTS = (
    "strong_rates",
    "weak_rates",
    "longtime_scalar",
    "recursion_tables",
    "equilibrium_check",
    "consistency",
    "vector_divergence",
)

RESULT_COLUMNS = ["experiment", "params", "estimate", "stderr", "reference", "provenance", "passed"]


class ConfigError(ValueError):
    """Config validation failure; `pointer` is a JSON pointer to the field."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    dim: int = 1
    order: int = 2
    eps_grid: tuple = (0.1,)
    time_grid: tuple = (2.0,)
    dt: float = 2e-3
    n_paths: int = 10000
    initial_law: Optional[dict] = None
    observable: Optional[str] = None
    output_dir: str = "."

    def law(self) -> InitialLaw:
        spec = dict(self.initial_law or {})
        kind = spec.pop("kind", None)
        if kind is None:
            raise ConfigError("initial_law requires a 'kind'", "/initial_law/kind")
        point = spec.pop("point", None)
        r_min = spec.pop("r_min", 0.0)
        r_max = spec.pop("r_max", 0.0)
        higher_std = spec.pop("higher_std", ())
        for key in spec:
            raise ConfigError(f"unknown initial_law key {key!r}", f"/initial_law/{key}")
        try:
            return InitialLaw(
                kind=kind,
                point=tuple(point) if point is not None else None,
                r_min=float(r_min),
                r_max=float(r_max),
                higher_std=tuple(float(s) for s in higher_std),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), "/initial_law") from exc

    def parsed_observable(self) -> Observable:
        if not self.observable:
            raise ConfigError("experiment requires an observable", "/observable")
        try:
            return parse_polynomial(self.observable, self.dim)
        except ParseError as exc:
            raise ConfigError(f"bad observable literal: {exc}", "/observable") from exc


_SCHEMA = {
    "experiment": str,
    "seed": int,
    "dim": int,
    "order": int,
    "eps_grid": list,
    "time_grid": list,
    "dt": float,
    "n_paths": int,
    "initial_law": dict,
    "observable": str,
    "output_dir": str,
}
_REQUIRED = ("experiment", "seed")


def parse_config(path) -> ExperimentConfig:
    """Strict JSON config parse: unknown keys rejected, errors carry pointers."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "/") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", "/") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", "/")
    for key in doc:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", f"/{key}")
    for key in _REQUIRED:
        if key not in doc:
            raise ConfigError(f"missing mandatory field {key!r}", f"/{key}")
    clean = {}
    for key, expected in _SCHEMA.items():
        if key not in doc:
            continue
        value = doc[key]
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ConfigError(f"{key} must be of type {expected.__name__}", f"/{key}")
        clean[key] = value
    if clean["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {EXPERIMENTS}", "/experiment"
        )
    if "eps_grid" in clean:
        for i, e in enumerate(clean["eps_grid"]):
            if not isinstance(e, (int, float)) or isinstance(e, bool) or not 0.0 < e < 1.0:
                raise ConfigError("eps_grid entries must be floats in (0, 1)", f"/eps_grid/{i}")
        clean["eps_grid"] = tuple(float(e) for e in clean["eps_grid"])
    if "time_grid" in clean:
        for i, t in enumerate(clean["time_grid"]):
            if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
                raise ConfigError("time_grid entries must be nonnegative", f"/time_grid/{i}")
        clean["time_grid"] = tuple(float(t) for t in clean["time_grid"])
    cfg = ExperimentConfig(**clean)
    if cfg.dim < 1:
        raise ConfigError("dim must be >= 1", "/dim")
    if not 0 <= cfg.order <= MAX_ORDER:
        raise ConfigError(f"order must be in [0, {MAX_ORDER}]", "/order")
    if not 0.0 < cfg.dt <= 1e-2:
        raise ConfigError("dt must be in (0, 1e-2]", "/dt")
    if cfg.n_paths < 100:
        raise ConfigError("n_paths must be >= 100", "/n_paths")
    return cfg


def config_to_document(cfg: ExperimentConfig) -> dict:
    """Round-trippable JSON document for a config (tuples back to lists)."""
    doc = asdict(cfg)
    doc["eps_grid"] = list(doc["eps_grid"])
    doc["time_grid"] = list(doc["time_grid"])
    return {k: v for k, v in doc.items() if v is not None}


# -- result rows ---------------------------------------------------------------


@dataclass
class ResultRow:
    experiment: str
    params: str
    estimate: float
    stderr: Optional[float]
    reference: Optional[float]
    provenance: str  # paper | derived | trivial | none
    passed: bool
    runtime: float = 0.0  # seconds; reported in manifest.json, not results.csv

    def csv_values(self):
        fmt = lambda v: "" if v is None else repr(float(v))
        return [self.experiment, self.params, fmt(self.estimate), fmt(self.stderr),
                fmt(self.reference), self.provenance, str(self.passed).lower()]


def _write_results(rows: List[ResultRow], out_dir: Path) -> None:
    with open(out_dir / "results.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        for row in rows:
            w.writerow(row.csv_values())


def _write_tables(tables, out_dir: Path) -> None:
    with open(out_dir / "tables.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "m", "i", "numerator", "denominator"])
        for table in tables:
            for (m, i), v, vbar in table.entries():
                w.writerow([table.family, m, i, v.numerator, v.denominator])
                w.writerow([table.family + "bar", m, i, vbar.numerator, vbar.denominator])


def _write_manifest(cfg: ExperimentConfig, rows: List[ResultRow], out_dir: Path,
                    wall_time: float, workers: int) -> None:
    manifest = {
        "config": config_to_document(cfg),
        "seed": cfg.seed,
        "versions": {
            "fluctx": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "workers": workers,
        "wall_time_s": wall_time,
        "row_runtimes_s": {f"{r.params}": round(r.runtime, 3) for r in rows},
        "n_rows": len(rows),
        "n_failed": sum(not r.passed for r in rows),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- experiment implementations ------------------------------------------------


def _plan(cfg: ExperimentConfig) -> List[str]:
    """Human-readable operation DAG for --dry-run."""
    e = cfg.experiment
    if e == "recursion_tables":
        return [f"c_table(order={cfg.order})", "check seeds and hand values",
                "check odd-m rows vanish", "write tables.csv"]
    if e == "consistency":
        return [f"c_table(order={cfg.order})", f"d_table(order={cfg.order})",
                "compare entrywise as exact rationals", "write tables.csv"]
    if e == "equilibrium_check":
        return [f"stationarity identity at eps={cfg.eps_grid[0]}",
                f"quadrature residuals over eps_grid={list(cfg.eps_grid)}",
                "power-law order fit", "leading-coefficient fit vs table"]
    if e == "strong_rates":
        return [f"simulate X_eps + chain to t={max(cfg.time_grid)} over eps_grid={list(cfg.eps_grid)}",
                f"E|w_m|^2 for m=0..{cfg.order} with {cfg.n_paths} paths",
                "log-log slope fits"]
    if e == "weak_rates":
        return [f"coupled weak remainder v_{cfg.order} over eps_grid={list(cfg.eps_grid)} "
                f"({cfg.n_paths} paths)",
                "power-law fit of |v|",
                f"v_0 re-expansion consistency at eps={cfg.eps_grid[-1]:g} "
                f"({cfg.n_paths // 5} paths)"]
    if e == "longtime_scalar":
        return [f"simulate chain to t={max(cfg.time_grid)} ({cfg.n_paths} paths)",
                "E[S_22 | xi0>0] at each grid time; exponential rate fit",
                f"a_1, a_2, a_3 at each grid time ({cfg.n_paths // 4} paths)",
                "compare a_m limits against the rational table"]
    if e == "vector_divergence":
        return [f"simulate chain in d={cfg.dim} to t={max(cfg.time_grid)} ({cfg.n_paths} paths)",
                "a_2(t, x1) vs closed form; linear-in-t slope fit",
                "radial variance and tangential dispersion sub-checks"]
    raise ConfigError(f"unknown experiment {e!r}", "/experiment")


def _run_recursion_tables(cfg, workers):
    t0 = time.perf_counter()
    n = max(cfg.order, 8)
    table = c_table(n)
    rows = []
    anchors = [((1, 1), 0, 1, "paper"), ((2, 2), 1, 2, "paper"),
               ((2, 1), -3, 4, "derived"), ((4, 4), 3, 4, "derived"),
               ((4, 3), -15, 8, "derived"), ((4, 2), 39, 16, "derived"),
               ((4, 1), -87, 32, "derived")]
    for (m, i), num, den, prov in anchors:
        got = table.get(m, i)
        rows.append(ResultRow(cfg.experiment, f"c[{m},{i}]", float(got), None,
                              num / den, prov, got.numerator == num and got.denominator == den))
    odd_nonzero = sum(
        1 for (m, i), v, vbar in table.entries() if m % 2 == 1 and (v != 0 or vbar != 0)
    )
    rows.append(ResultRow(cfg.experiment, f"odd_m_nonzero_entries(n={n})",
                          float(odd_nonzero), None, 0.0, "paper", odd_nonzero == 0))
    dt = time.perf_counter() - t0
    for r in rows:
        r.runtime = dt / len(rows)
    return rows, [table]


def _run_consistency(cfg, workers):
    t0 = time.perf_counter()
    n = max(cfg.order, 8)
    ct, dtab = c_table(n), d_table(n)
    equal = ct.equals(dtab)
    rows = [ResultRow(cfg.experiment, f"c_equals_d(n={n})", float(equal), None,
                      1.0, "paper", equal, runtime=time.perf_counter() - t0)]
    return rows, [ct, dtab]


def _run_equilibrium_check(cfg, workers):
    rows = []
    F = cfg.parsed_observable()
    table = d_table(max(cfg.order + 2, 8))
    t0 = time.perf_counter()
    defect, scale = stationarity_defect(F, cfg.eps_grid[0])
    rows.append(ResultRow(cfg.experiment, f"stationarity_defect(eps={cfg.eps_grid[0]:g})",
                          defect, None, 0.0, "derived", abs(defect) <= 1e-10 * scale,
                          runtime=time.perf_counter() - t0))
    t0 = time.perf_counter()
    for eps in sorted(cfg.eps_grid, reverse=True):
        value = gibbs_expectation(F, eps, QuadratureSpec.for_eps(eps))
        pred = sum(eps ** (k / 2.0) * big_b_coeff(k, F, table) for k in range(cfg.order + 1))
        rows.append(ResultRow(cfg.experiment, f"residual(eps={eps:g})",
                              value - pred, None, None, "none", True))
    fit = expansion_residual_order(F, cfg.order, cfg.eps_grid, table)
    rows.append(ResultRow(cfg.experiment, "residual_order", fit.exponent, None,
                          1.8, "paper", fit.exponent >= 1.8))
    coeffs = residual_coefficient_fit(F, cfg.order, cfg.eps_grid, table, degree=3)
    lead = float(big_b_coeff(cfg.order + 2, F, table))
    rows.append(ResultRow(cfg.experiment, f"leading_coefficient(eps^{(cfg.order + 2) // 2})",
                          float(coeffs[0]), None, lead, "derived",
                          lead != 0 and abs(coeffs[0] - lead) <= 0.1 * abs(lead)))
    dtphase = time.perf_counter() - t0
    for r in rows[1:]:
        r.runtime = dtphase / (len(rows) - 1)
    return rows, []


def _run_strong_rates(cfg, workers):
    rows = []
    law = cfg.law()
    t = max(cfg.time_grid)
    per_m = {m: [] for m in range(cfg.order + 1)}
    for eps in sorted(cfg.eps_grid, reverse=True):
        sim = SimConfig(dim=cfg.dim, order=cfg.order, eps=eps, dt=cfg.dt, t_final=t)
        t0 = time.perf_counter()
        ests = estimate_strong_remainder_sq(t, sim, law, cfg.n_paths, cfg.seed, workers=workers)
        elapsed = time.perf_counter() - t0
        for m, est in enumerate(ests):
            per_m[m].append(est.value)
            rows.append(ResultRow(cfg.experiment, f"E|w_{m}|^2(eps={eps:g},t={t:g})",
                                  est.value, est.stderr, None, "none", True,
                                  runtime=elapsed / len(ests)))
    for m in range(cfg.order + 1):
        fit = fit_power_law(sorted(cfg.eps_grid, reverse=True), per_m[m])
        rows.append(ResultRow(cfg.experiment, f"strong_order(m={m})", fit.exponent,
                              None, 0.9, "paper", fit.exponent >= 0.9))
    return rows, []


def _run_weak_rates(cfg, workers):
    rows = []
    law = cfg.law()
    F = cfg.parsed_observable()
    t = max(cfg.time_grid)
    vals = []
    for eps in sorted(cfg.eps_grid, reverse=True):
        sim = SimConfig(dim=cfg.dim, order=cfg.order, eps=eps, dt=cfg.dt, t_final=t)
        t0 = time.perf_counter()
        est = estimate_weak_remainder(cfg.order, t, F, sim, law, cfg.n_paths, cfg.seed,
                                      workers=workers)
        vals.append(abs(est.value))
        rows.append(ResultRow(cfg.experiment, f"v_{cfg.order}(eps={eps:g},t={t:g})",
                              est.value, est.stderr, None, "none", True,
                              runtime=time.perf_counter() - t0))
    fit = fit_power_law(sorted(cfg.eps_grid, reverse=True), vals)
    rows.append(ResultRow(cfg.experiment, f"weak_order(m={cfg.order})", fit.exponent,
                          None, 0.4, "paper", fit.exponent >= 0.4))

    # re-expansion consistency: v_0 against sqrt(eps) a_1 + eps a_2, at the
    # last eps listed in the grid.  The discrepancy is a deterministic
    # O(eps^{3/2}) quantity, so the Monte Carlo resolution (path count) sets
    # the band width; this check runs at a fifth of the configured paths.
    eps = cfg.eps_grid[-1]
    n_small = max(cfg.n_paths // 5, 1000)
    sim = SimConfig(dim=cfg.dim, order=cfg.order, eps=eps, dt=cfg.dt, t_final=t)
    t0 = time.perf_counter()
    v0 = estimate_weak_remainder(0, t, F, sim, law, n_small, cfg.seed + 1, workers=workers)
    step = sim.grid_index(t)
    coeffs = mc_multi(
        {
            "a1": lambda res: a_functional(1, F, res, step),
            "a2": lambda res: a_functional(2, F, res, step),
        },
        sim, law, n_small, cfg.seed + 2, [step], with_xfull=False, workers=workers,
    )
    a1, a2 = coeffs["a1"], coeffs["a2"]
    pred = np.sqrt(eps) * a1.value + eps * a2.value
    combined = float(np.sqrt(v0.stderr ** 2 + eps * a1.stderr ** 2 + eps ** 2 * a2.stderr ** 2))
    rows.append(ResultRow(cfg.experiment, f"v_0_consistency(eps={eps:g},t={t:g})",
                          v0.value, combined, pred, "derived",
                          abs(v0.value - pred) <= 3.0 * combined,
                          runtime=time.perf_counter() - t0))
    return rows, []


def _run_longtime_scalar(cfg, workers):
    rows = []
    law = cfg.law()
    F = cfg.parsed_observable()
    eps = cfg.eps_grid[0]
    t_final = max(cfg.time_grid)
    sim = SimConfig(dim=1, order=2, eps=eps, dt=cfg.dt, t_final=t_final)
    times = sorted(cfg.time_grid)
    steps = [sim.grid_index(t) for t in times]
    table = c_table(8)

    # phase 1: conditional composition sum S_22 along the time grid
    t0 = time.perf_counter()
    qs = {f"s22_{t:g}": conditional_s(2, 2, s) for t, s in zip(times, steps)}
    s_out = mc_multi(qs, sim, law, cfg.n_paths, cfg.seed, steps, with_xfull=False,
                     workers=workers)
    dt1 = time.perf_counter() - t0
    # the rate window is [times[0], 4]: the e^{-t} claim is checked there,
    # while later grid times only feed the coefficient phase below
    window = [t for t in times if t <= 4.0] or times
    gaps, ses = [], []
    for t in times:
        est = s_out[f"s22_{t:g}"]
        if t in window:
            gaps.append(abs(est.value - 0.5))
            ses.append(est.stderr)
        rows.append(ResultRow(cfg.experiment, f"S22_plus(t={t:g})", est.value,
                              est.stderr, 0.5, "paper", True, runtime=dt1 / len(times)))
    final = s_out[f"s22_{window[-1]:g}"]
    rows.append(ResultRow(cfg.experiment, f"S22_limit(t={window[-1]:g})", final.value,
                          final.stderr, 0.5, "paper", final.agrees_with(0.5)))
    try:
        rate = fit_exponential_rate(window, gaps, ses).exponent
    except ValueError:  # too few window points clear the Monte Carlo noise floor
        rate = float("nan")
    rows.append(ResultRow(cfg.experiment, "S22_rate", rate, None, 0.8, "paper", rate >= 0.8))

    # phase 2: weak coefficients a_1..a_3 on an independent, smaller run
    sim3 = SimConfig(dim=1, order=max(cfg.order, 3), eps=eps, dt=cfg.dt, t_final=t_final)
    steps3 = [sim3.grid_index(t) for t in times]
    n_small = max(cfg.n_paths // 4, 1000)
    qs = {f"a{m}_{t:g}": (lambda res, m=m, s=s: a_functional(m, F, res, s))
          for m in (1, 2, 3) for t, s in zip(times, steps3)}
    t0 = time.perf_counter()
    a_out = mc_multi(qs, sim3, law, n_small, cfg.seed + 1, steps3, with_xfull=False,
                     workers=workers)
    dt2 = time.perf_counter() - t0
    # P(xi_0 > 0): both symmetric kinds put half their mass on each sign
    p_plus = 0.5 if law.kind != "deterministic_point" else float(law.point[0] > 0)
    b1, b2, b3 = (b_coeff(m, F, p_plus, table) for m in (1, 2, 3))
    for t in times:
        for m, b in ((1, b1), (2, b2), (3, b3)):
            est = a_out[f"a{m}_{t:g}"]
            check = est.agrees_with(b) if (m != 2 or t == times[-1]) else True
            rows.append(ResultRow(cfg.experiment, f"a{m}(t={t:g})", est.value,
                                  est.stderr, b, "paper", check,
                                  runtime=dt2 / (3 * len(times))))
    return rows, []


def _run_vector_divergence(cfg, workers):
    rows = []
    d = cfg.dim
    if d < 2:
        raise ConfigError("vector_divergence requires dim >= 2", "/dim")
    law = cfg.law()
    F = cfg.parsed_observable()
    eps = cfg.eps_grid[0]
    times = sorted(cfg.time_grid)
    sim = SimConfig(dim=d, order=max(cfg.order, 2), eps=eps, dt=cfg.dt, t_final=max(times))
    steps = [sim.grid_index(t) for t in times]

    def closed_a2(t):
        e2, e4 = np.exp(-2 * t), np.exp(-4 * t)
        return -(0.75 * (1 - e2) - 0.75 * (e2 - e4) + (d - 1) * (t - (1 - e2) / 2))

    qs = {}
    for t, s in zip(times, steps):
        qs[f"a2_{t:g}"] = (lambda res, s=s: a_functional(2, F, res, s))
        qs[f"r1sq_{t:g}"] = (lambda res, s=s: res.xbar_at(s, 1)[:, 0] ** 2)
        qs[f"v1sq_{t:g}"] = (lambda res, s=s: np.sum(res.xbar_at(s, 1)[:, 1:] ** 2, axis=1))
    t0 = time.perf_counter()
    out = mc_multi(qs, sim, law, cfg.n_paths, cfg.seed, steps, with_xfull=False,
                   workers=workers)
    elapsed = time.perf_counter() - t0
    for t in times:
        est = out[f"a2_{t:g}"]
        ref = closed_a2(t)
        rows.append(ResultRow(cfg.experiment, f"a2(t={t:g})", est.value, est.stderr,
                              ref, "derived", est.agrees_with(ref),
                              runtime=elapsed / (3 * len(times))))
    fit_ts = [t for t in times if t >= 2.0]
    slope = float(np.polyfit(fit_ts, [out[f"a2_{t:g}"].value for t in fit_ts], 1)[0])
    target = -(d - 1.0)
    rows.append(ResultRow(cfg.experiment, "a2_slope_in_t", slope, None, target,
                          "paper", abs(slope - target) <= 0.2 * abs(target)))
    for t in (times[0], times[-1]):
        est = out[f"r1sq_{t:g}"]
        ref = (1 - np.exp(-4 * t)) / 2
        rows.append(ResultRow(cfg.experiment, f"var_r1(t={t:g})", est.value, est.stderr,
                              ref, "derived", est.agrees_with(ref),
                              runtime=elapsed / (3 * len(times))))
        est = out[f"v1sq_{t:g}"]
        ref = 2.0 * (d - 1) * t
        rows.append(ResultRow(cfg.experiment, f"E|v1|^2(t={t:g})", est.value, est.stderr,
                              ref, "derived", est.agrees_with(ref),
                              runtime=elapsed / (3 * len(times))))
    return rows, []


_RUNNERS = {
    "recursion_tables": _run_recursion_tables,
    "consistency": _run_consistency,
    "equilibrium_check": _run_equilibrium_check,
    "strong_rates": _run_strong_rates,
    "weak_rates": _run_weak_rates,
    "longtime_scalar": _run_longtime_scalar,
    "vector_divergence": _run_vector_divergence,
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1, dry_run: bool = False,
                   stream=None) -> int:
    """Execute one experiment; returns the process exit code."""
    stream = stream or sys.stdout
    if dry_run:
        print(f"dry run: {cfg.experiment}", file=stream)
        for step_desc in _plan(cfg):
            print(f"  - {step_desc}", file=stream)
        return 0
    t0 = time.perf_counter()
    rows, tables = _RUNNERS[cfg.experiment](cfg, workers)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_results(rows, out_dir)
    if tables:
        _write_tables(tables, out_dir)
    _write_manifest(cfg, rows, out_dir, time.perf_counter() - t0, workers)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.experiment}:{r.params} = {r.estimate:.6g}"
              + (f" (ref {r.reference:.6g})" if r.reference is not None else ""),
              file=stream)
    return 2 if failed else 0


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("FLUCTX_WORKERS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("FLUCTX_WORKERS must be an integer", "/")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluctx",
        description="Small-noise fluctuation expansion experiments for the "
                    "double-well Langevin dynamics.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: $FLUCTX_WORKERS or 1)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate the config and print the plan only")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"config names experiment {cfg.experiment!r}, "
                f"subcommand was {args.experiment!r}", "/experiment")
        workers = _resolve_workers(args)
        if workers < 1:
            raise ConfigError("workers must be >= 1", "/")
        return run_experiment(cfg, workers=workers, dry_run=args.dry_run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime errors: exit 1 per contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
