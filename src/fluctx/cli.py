"""Experiment orchestration: JSON configs in, CSV results out.

Each subcommand names an experiment suite; a checked-in config under
configs/ reproduces the corresponding desk-scale check.  An experiment is
a function cfg -> (requests, checks): each request holds the arguments of
one `mc_multi` call, which simulates what its quantities read, and
`checks` turns the estimates into result rows.  Building the plan reads
the whole config, so `--dry-run` rejects a bad config, an `output_dir` it
cannot create, or a batch that would keep more than MAX_BATCH_BYTES of
slices, before any Monte Carlo.  Outputs are results.csv (one row per
estimate or check), tables.csv (exact rational tables, when the
experiment produces them) and manifest.json (config echo, versions, seed,
wall time, seconds per request, each row's rule).  A row names one of the
six RULES; its verdict follows from its own estimate, stderr and
reference.  Exit code 0 iff every row passes, 2 if any fails, 1 on
runtime/config errors.

results.csv is byte-identical across reruns of the same config; volatile
quantities (wall times) go to manifest.json only.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from dataclasses import dataclass, asdict
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .combinatorics import MAX_ORDER
from .equilibrium import (
    expansion_residual_order,
    expansion_residuals,
    leading_order,
    residual_coefficient_fit,
    stationarity_defect,
)
from .estimators import (
    Quantity,
    batch_bytes,
    conditional_s,
    fit_exponential_rate,
    fit_power_law,
    mc_multi,
    simulation,
    strong_remainder_sq,
    weak_coefficient,
    weak_remainder,
)
# not called here: benchmark/tracer.py looks these names up in this module
from .equilibrium import gibbs_expectation
from .estimators import a_functional, estimate_strong_remainder_sq, estimate_weak_remainder
from .hierarchy import InitialLaw, LawError, SimConfig
from .observables import Observable, ParseError, parse_polynomial
from .recursions import b_coeff, big_b_coeff, c_table, d_table

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
        # a null point counts as left out
        spec = {k: v for k, v in (self.initial_law or {}).items() if k != "point" or v is not None}
        spec = _typed(spec, _LAW_SCHEMA, "/initial_law/")
        if "kind" not in spec:
            raise ConfigError("initial_law requires a 'kind'", "/initial_law/kind")
        for key in ("point", "higher_std"):
            if key in spec:
                if not all(map(_number, spec[key])):
                    raise ConfigError(f"{key} must be a list of numbers", f"/initial_law/{key}")
                spec[key] = tuple(float(v) for v in spec[key])
        try:
            return InitialLaw(**spec)
        except LawError as exc:
            raise ConfigError(str(exc), f"/initial_law/{exc.field}") from exc

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
_LAW_SCHEMA = {"kind": str, "point": list, "r_min": float, "r_max": float, "higher_std": list}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(doc: dict, schema: dict, at: str) -> dict:
    """doc's fields, each a key of schema and of its type there (an int reads as a float)."""
    clean = {}
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r}", f"{at}{key}")
        if schema[key] is float and _number(value):
            value = float(value)
        if not isinstance(value, schema[key]) or isinstance(value, bool):
            raise ConfigError(f"{key} must be of type {schema[key].__name__}", f"{at}{key}")
        clean[key] = value
    return clean


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
    clean = _typed(doc, _SCHEMA, "/")
    for key in ("experiment", "seed"):
        if key not in clean:
            raise ConfigError(f"missing mandatory field {key!r}", f"/{key}")
    for key, words, ok in (("eps_grid", "floats in (0, 1)", lambda v: 0.0 < v < 1.0),
                           ("time_grid", "nonnegative", lambda v: v >= 0)):
        if key not in clean:
            continue
        for i, v in enumerate(clean[key]):
            if not _number(v) or not ok(v):
                raise ConfigError(f"{key} entries must be {words}", f"/{key}/{i}")
        if not clean[key] or len({f"{v:g}" for v in clean[key]}) < len(clean[key]):
            raise ConfigError(f"{key} must be nonempty, with distinct :g labels", f"/{key}")
        clean[key] = tuple(float(v) for v in clean[key])
    cfg = ExperimentConfig(**clean)
    for key, words, ok in (("experiment", f"one of {tuple(EXPERIMENTS)}",
                            cfg.experiment in EXPERIMENTS),
                           ("seed", ">= 0", cfg.seed >= 0), ("dim", ">= 1", cfg.dim >= 1),
                           ("order", f"in [0, {MAX_ORDER}]", 0 <= cfg.order <= MAX_ORDER),
                           ("dt", "in (0, 1e-2]", 0.0 < cfg.dt <= 1e-2),
                           ("n_paths", ">= 100", cfg.n_paths >= 100)):
        if not ok:
            raise ConfigError(f"{key} must be {words}", f"/{key}")
    return cfg


def config_to_document(cfg: ExperimentConfig) -> dict:
    """Round-trippable JSON document for a config (tuples back to lists)."""
    doc = asdict(cfg)
    doc["eps_grid"] = list(doc["eps_grid"])
    doc["time_grid"] = list(doc["time_grid"])
    return {k: v for k, v in doc.items() if v is not None}


# -- result rows and their pass rules -----------------------------------------


# the six pass rules: name -> (statement, test(estimate e, stderr s, reference r, tol))
RULES = {
    "reported": ("always passes", lambda e, s, r, tol: True),
    "sigma": ("|estimate - reference| <= 3 stderr", lambda e, s, r, tol: abs(e - r) <= 3.0 * s),
    "at_least": ("estimate >= reference", lambda e, s, r, tol: e >= r),
    "relative": ("reference != 0 and |estimate - reference| <= tol |reference|",
                 lambda e, s, r, tol: r != 0 and abs(e - r) <= tol * abs(r)),
    "within": ("|estimate - reference| <= tol", lambda e, s, r, tol: abs(e - r) <= tol),
    "exact": ("estimate == reference", lambda e, s, r, tol: e == r),
}


@dataclass
class ResultRow:
    params: str
    estimate: float
    stderr: Optional[float]
    reference: Optional[float]
    provenance: str  # paper | derived | trivial | none
    rule: str  # a key of RULES; the verdict follows from the row's own columns
    tol: Optional[float] = None  # the parameter of "relative" and "within"

    @property
    def passed(self) -> bool:
        return bool(RULES[self.rule][1](self.estimate, self.stderr, self.reference, self.tol))

    def csv_values(self):
        fmt = lambda v: "" if v is None else repr(float(v))
        return [self.params, fmt(self.estimate), fmt(self.stderr), fmt(self.reference),
                self.provenance, str(self.passed).lower()]


def _write_results(experiment: str, rows: List[ResultRow], out_dir: Path) -> None:
    with open(out_dir / "results.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        for row in rows:
            w.writerow([experiment] + row.csv_values())


def _write_tables(tables, out_dir: Path) -> None:
    with open(out_dir / "tables.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "m", "i", "numerator", "denominator"])
        for table in tables:
            for (m, i), v, vbar in table.entries():
                w.writerow([table.family, m, i, v.numerator, v.denominator])
                w.writerow([table.family + "bar", m, i, vbar.numerator, vbar.denominator])


def _write_manifest(cfg: ExperimentConfig, rows: List[ResultRow], out_dir: Path,
                    wall_time: float, runtimes: dict, path_steps: dict) -> None:
    manifest = {
        "config": config_to_document(cfg),
        "seed": cfg.seed,
        "versions": {
            "fluctx": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time,
        "runtimes_s": runtimes,
        "path_steps": path_steps,
        "n_failed": sum(not r.passed for r in rows),
        "rules": [{"params": r.params, "rule": r.rule, "tol": r.tol, "test": RULES[r.rule][0],
                   "passed": r.passed} for r in rows],
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- experiment plans: cfg -> (requests, checks(estimates by label)) ----------


# the time slices one batch keeps; the checked-in configs keep at most 1.44 MB
MAX_BATCH_BYTES = 256 * 2 ** 20


@dataclass(frozen=True)
class Request:
    """One simulation: exactly the arguments of one `mc_multi` call."""

    label: str
    quantities: dict  # name -> Quantity
    dim: int
    dt: float
    law: InitialLaw
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.law.point is not None and len(self.law.point) != self.dim:
            raise ConfigError(f"point has {len(self.law.point)} components, dim is "
                              f"{self.dim}", "/initial_law/point")
        kept = batch_bytes(self.quantities, self.dim, self.dt, self.n_paths)
        if kept > MAX_BATCH_BYTES:
            raise ConfigError(f"{self.label}: one batch would keep {kept:,} bytes of time slices,"
                              f" above {MAX_BATCH_BYTES:,}", "/n_paths")

    def __str__(self):
        sim, steps, noise = simulation(self.quantities, self.dim, self.dt)
        kept = batch_bytes(self.quantities, self.dim, self.dt, self.n_paths)
        return (f"{self.label}: {sim}, {self.law.kind} law, {self.n_paths} paths, "
                f"seed {self.seed}, slice steps {steps}, noise {noise}, "
                f"{len(self.quantities)} quantities, {kept:,} bytes of slices a batch, "
                f"{self.path_steps:,} path-steps")

    @property
    def path_steps(self) -> int:
        """Paths times grid steps of the simulation: the request's Monte Carlo work."""
        return self.n_paths * simulation(self.quantities, self.dim, self.dt)[0].n_steps


def _grid_steps(cfg: ExperimentConfig) -> dict:
    """The grid step of each grid time."""
    t_final = max(cfg.time_grid)
    try:
        grid = SimConfig(dim=cfg.dim, order=0, dt=cfg.dt, t_final=t_final)
    except ValueError as exc:  # parse_config checked dim and dt: t_final < dt
        raise ConfigError(str(exc), f"/time_grid/{cfg.time_grid.index(t_final)}") from exc
    steps = {}
    for i, t in enumerate(cfg.time_grid):
        try:
            steps[t] = grid.grid_index(t)
        except ValueError as exc:
            raise ConfigError(str(exc), f"/time_grid/{i}") from exc
    return steps


def _fit_eps(cfg: ExperimentConfig) -> list:
    if len(cfg.eps_grid) < 4:
        raise ConfigError(f"{cfg.experiment} fits a power law over at least 4 eps values",
                          "/eps_grid")
    return sorted(cfg.eps_grid, reverse=True)


def _recursion_tables(cfg):
    n = max(cfg.order, 8)

    def checks(est):
        table = c_table(n)
        anchors = [((1, 1), 0, 1, "paper"), ((2, 2), 1, 2, "paper"),
                   ((2, 1), -3, 4, "derived"), ((4, 4), 3, 4, "derived"),
                   ((4, 3), -15, 8, "derived"), ((4, 2), 39, 16, "derived"),
                   ((4, 1), -87, 32, "derived")]
        rows = [ResultRow(f"c[{m},{i}]", table.get(m, i), None, Fraction(num, den), prov, "exact")
                for (m, i), num, den, prov in anchors]
        odd_nonzero = sum(
            1 for (m, i), v, vbar in table.entries() if m % 2 == 1 and (v != 0 or vbar != 0)
        )
        rows.append(ResultRow(f"odd_m_nonzero_entries(n={n})",
                              float(odd_nonzero), None, 0.0, "paper", "exact"))
        return rows, [table]

    return [], checks


def _consistency(cfg):
    n = max(cfg.order, 8)

    def checks(est):
        ct, dtab = c_table(n), d_table(n)
        return [ResultRow(f"c_equals_d(n={n})", float(ct.equals(dtab)), None,
                          1.0, "paper", "exact")], [ct, dtab]

    return [], checks


def _equilibrium_check(cfg):
    if cfg.dim != 1:
        raise ConfigError("equilibrium_check is a d = 1 experiment", "/dim")
    if cfg.order + 2 > MAX_ORDER:
        raise ConfigError(f"equilibrium_check needs order <= {MAX_ORDER - 2}", "/order")
    if len(cfg.eps_grid) < 4 or not all(0.005 <= e <= 0.3 for e in cfg.eps_grid):
        raise ConfigError("equilibrium_check needs at least 4 eps values in [0.005, 0.3]",
                          "/eps_grid")
    F = cfg.parsed_observable()
    k = leading_order(cfg.order)  # the residuals lead with eps^{k/2} B_k

    def checks(est):
        table = d_table(max(k, 8))
        defect, scale = stationarity_defect(F, cfg.eps_grid[0])
        rows = [ResultRow(f"stationarity_defect(eps={cfg.eps_grid[0]:g})",
                          defect, None, 0.0, "derived", "within", 1e-10 * scale)]
        try:
            eps, residuals = expansion_residuals(F, cfg.order, cfg.eps_grid, table)
        except ValueError:  # a residual at the quadrature floor: no order to read off
            return rows + [ResultRow("residual_order", float("nan"), None, k / 2 - 0.2, "paper",
                                     "at_least")], []
        for e, r in zip(eps, residuals):
            rows.append(ResultRow(f"residual(eps={e:g})", r, None, None, "none", "reported"))
        order = expansion_residual_order(eps, residuals)
        rows.append(ResultRow("residual_order", order, None, k / 2 - 0.2, "paper", "at_least"))
        coeffs = residual_coefficient_fit(eps, residuals, cfg.order)
        lead = float(big_b_coeff(k, F, table))
        rows.append(ResultRow(f"leading_coefficient(eps^{k // 2})",
                              float(coeffs[0]), None, lead, "derived", "relative", 0.1))
        return rows, []

    return [], checks


def _strong_rates(cfg):
    law, eps_list = cfg.law(), _fit_eps(cfg)
    t = max(cfg.time_grid)
    step = _grid_steps(cfg)[t]
    qs = {}
    for eps in eps_list:
        for m, q in strong_remainder_sq(eps, cfg.order, step).items():
            qs[eps, m] = q
    w = Request("w", qs, cfg.dim, cfg.dt, law, cfg.n_paths, cfg.seed)

    def checks(est):
        rows, per_m = [], [[] for _ in range(cfg.order + 1)]
        for eps in eps_list:
            for m in range(cfg.order + 1):
                e = est[w.label][eps, m]
                per_m[m].append(e.value)
                rows.append(ResultRow(f"E|w_{m}|^2(eps={eps:g},t={t:g})",
                                      e.value, e.stderr, None, "none", "reported"))
        for m, values in enumerate(per_m):
            order = fit_power_law(eps_list, values)
            rows.append(ResultRow(f"strong_order(m={m})", order, None, 0.9, "paper", "at_least"))
        return rows, []

    return [w], checks


def _weak_rates(cfg):
    law, F, eps_list = cfg.law(), cfg.parsed_observable(), _fit_eps(cfg)
    if F.max_degree == 0:
        raise ConfigError("weak_rates fits |v| over eps, which a constant observable makes 0",
                          "/observable")
    t, m = max(cfg.time_grid), cfg.order
    step = _grid_steps(cfg)[t]
    vm = Request(f"v_{m}", {eps: weak_remainder(m, F, eps, m, step) for eps in eps_list},
                 cfg.dim, cfg.dt, law, cfg.n_paths, cfg.seed)

    # re-expansion consistency: v_0 against sqrt(eps) a_1 + eps a_2, at the
    # last eps listed in the grid.  The discrepancy is a deterministic
    # O(eps^{3/2}) quantity, so the Monte Carlo resolution (path count) sets
    # the band width; this check runs at a fifth of the configured paths.
    # X_eps starts from xi_eps truncated at `order`, as v_order's does.
    eps_c = cfg.eps_grid[-1]
    n_small = max(cfg.n_paths // 5, 1000)
    v0 = Request(f"v_0(eps={eps_c:g}) re-expansion", {"v": weak_remainder(0, F, eps_c, m, step)},
                 cfg.dim, cfg.dt, law, n_small, cfg.seed + 1)
    coeffs = Request(f"a_1,a_2(eps={eps_c:g}) re-expansion",
                     {"a1": weak_coefficient(1, F, step), "a2": weak_coefficient(2, F, step)},
                     cfg.dim, cfg.dt, law, n_small, cfg.seed + 2)

    def checks(est):
        rows, vals = [], []
        for eps in eps_list:
            e = est[vm.label][eps]
            vals.append(abs(e.value))
            rows.append(ResultRow(f"v_{m}(eps={eps:g},t={t:g})",
                                  e.value, e.stderr, None, "none", "reported"))
        order = fit_power_law(eps_list, vals)
        rows.append(ResultRow(f"weak_order(m={m})", order, None, 0.4, "paper", "at_least"))
        v, a1, a2 = est[v0.label]["v"], est[coeffs.label]["a1"], est[coeffs.label]["a2"]
        pred = np.sqrt(eps_c) * a1.value + eps_c * a2.value
        combined = float(np.sqrt(v.stderr ** 2 + eps_c * a1.stderr ** 2
                                 + eps_c ** 2 * a2.stderr ** 2))
        rows.append(ResultRow(f"v_0_consistency(eps={eps_c:g},t={t:g})",
                              v.value, combined, pred, "derived", "sigma"))
        return rows, []

    return [vm, v0, coeffs], checks


def _longtime_scalar(cfg):
    if cfg.dim != 1:
        raise ConfigError("longtime_scalar is a d = 1 experiment", "/dim")
    law, F = cfg.law(), cfg.parsed_observable()
    if law.kind == "deterministic_point" and law.point[0] < 0:
        raise ConfigError("S_22 is conditioned on xi_0 > 0, which a negative point never has",
                          "/initial_law/point")
    times = sorted(cfg.time_grid)
    # the rate window is [times[0], 4]: the e^{-t} claim is checked there,
    # while later grid times only feed the coefficient phase
    window = [t for t in times if t <= 4.0] or times
    if len(window) < 4:
        raise ConfigError("the S_22 rate fit needs at least 4 grid times up to 4",
                          "/time_grid")
    steps = _grid_steps(cfg)
    # phase 1: conditional composition sum S_22 along the time grid
    s22 = Request("S22", {f"s22_{t:g}": conditional_s(2, 2, steps[t]) for t in times},
                  cfg.dim, cfg.dt, law, cfg.n_paths, cfg.seed)
    # phase 2: weak coefficients a_1..a_3 on an independent, smaller run
    coeffs = Request("a_1..a_3", {f"a{m}_{t:g}": weak_coefficient(m, F, steps[t])
                                  for m in (1, 2, 3) for t in times},
                     cfg.dim, cfg.dt, law, max(cfg.n_paths // 4, 1000), cfg.seed + 1)
    # P(xi_0 > 0): the symmetric kinds put half their mass on each sign
    p_plus = Fraction(1) if law.kind == "deterministic_point" else Fraction(1, 2)

    def checks(est):
        rows, gaps, ses = [], [], []
        s_out, a_out = est[s22.label], est[coeffs.label]
        for t in times:
            e = s_out[f"s22_{t:g}"]
            if t in window:
                gaps.append(abs(e.value - 0.5))
                ses.append(e.stderr)
            rows.append(ResultRow(f"S22_plus(t={t:g})", e.value, e.stderr, 0.5, "paper",
                                  "reported"))
        final = s_out[f"s22_{window[-1]:g}"]
        rows.append(ResultRow(f"S22_limit(t={window[-1]:g})", final.value,
                              final.stderr, 0.5, "paper", "sigma"))
        try:
            rate = fit_exponential_rate(window, gaps, ses)
        except ValueError:  # too few window points clear the Monte Carlo noise floor
            rate = float("nan")
        rows.append(ResultRow("S22_rate", rate, None, 0.8, "paper", "at_least"))
        table = c_table(8)
        b = {m: b_coeff(m, F, p_plus, table) for m in (1, 2, 3)}
        for t in times:
            for m in (1, 2, 3):
                e = a_out[f"a{m}_{t:g}"]
                # a_2 drifts toward its limit: only the final time is held to it
                rule = "sigma" if (m != 2 or t == times[-1]) else "reported"
                rows.append(ResultRow(f"a{m}(t={t:g})", e.value, e.stderr, b[m], "paper", rule))
        return rows, []

    return [s22, coeffs], checks


def _vector_divergence(cfg):
    d = cfg.dim
    if d < 2:
        raise ConfigError("vector_divergence requires dim >= 2", "/dim")
    law, F = cfg.law(), cfg.parsed_observable()
    # the references below are closed forms for xi_0 = e_1, xi_1 = 0 and F = x1
    e1 = (1,) + (0,) * (d - 1)
    for wrong, pointer in ((law.kind != "deterministic_point", "/initial_law/kind"),
                           (law.point != e1, "/initial_law/point"),
                           (law.std_for(1) != 0.0, "/initial_law/higher_std"),
                           (F.terms != {e1: 1.0}, "/observable")):
        if wrong:
            raise ConfigError("vector_divergence's references hold only for a deterministic_point"
                              f" law at {list(e1)} with xi_1 = 0 and the observable x1", pointer)
    times = sorted(cfg.time_grid)
    fit_ts = [t for t in times if t >= 2.0]
    if len(fit_ts) < 2:
        raise ConfigError("the a2 slope fit needs at least 2 grid times >= 2", "/time_grid")
    steps = _grid_steps(cfg)
    qs = {}
    for t in times:
        s = steps[t]
        qs[f"a2_{t:g}"] = weak_coefficient(2, F, s)
        qs[f"r1sq_{t:g}"] = Quantity(lambda res, s=s: res.xbar_at(s, 1)[:, 0] ** 2, 1, (s,))
        qs[f"v1sq_{t:g}"] = Quantity(lambda res, s=s: np.sum(res.xbar_at(s, 1)[:, 1:] ** 2,
                                                             axis=1), 1, (s,))
    chain = Request("chain", qs, cfg.dim, cfg.dt, law, cfg.n_paths, cfg.seed)

    def closed_a2(t):
        e2, e4 = np.exp(-2 * t), np.exp(-4 * t)
        return -(0.75 * (1 - e2) - 0.75 * (e2 - e4) + (d - 1) * (t - (1 - e2) / 2))

    def checks(est):
        rows, out = [], est[chain.label]
        for t in times:
            e = out[f"a2_{t:g}"]
            ref = closed_a2(t)
            rows.append(ResultRow(f"a2(t={t:g})", e.value, e.stderr, ref, "derived", "sigma"))
        slope = float(np.polyfit(fit_ts, [out[f"a2_{t:g}"].value for t in fit_ts], 1)[0])
        target = -(d - 1.0)
        rows.append(ResultRow("a2_slope_in_t", slope, None, target, "paper", "relative", 0.2))
        for t in (times[0], times[-1]):
            e = out[f"r1sq_{t:g}"]
            ref = (1 - np.exp(-4 * t)) / 2
            rows.append(ResultRow(f"var_r1(t={t:g})", e.value, e.stderr, ref, "derived", "sigma"))
            e = out[f"v1sq_{t:g}"]
            ref = 2.0 * (d - 1) * t
            rows.append(ResultRow(f"E|v1|^2(t={t:g})", e.value, e.stderr, ref, "derived", "sigma"))
        return rows, []

    return [chain], checks


EXPERIMENTS = {
    "strong_rates": _strong_rates,
    "weak_rates": _weak_rates,
    "longtime_scalar": _longtime_scalar,
    "recursion_tables": _recursion_tables,
    "equilibrium_check": _equilibrium_check,
    "consistency": _consistency,
    "vector_divergence": _vector_divergence,
}


def run_experiment(cfg: ExperimentConfig, dry_run: bool = False, stream=None) -> int:
    """Plan one experiment, then print the plan or run it; returns the exit code."""
    stream = stream or sys.stdout
    t0 = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"{str(nearest)!r} is not a directory", "/output_dir")
    requests, checks = EXPERIMENTS[cfg.experiment](cfg)
    if dry_run:
        print(f"dry run: {cfg.experiment}, {len(requests)} simulation request(s)", file=stream)
        for req in requests:
            print(f"  - {req}", file=stream)
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    estimates, runtimes = {}, {}
    for req in requests:
        t1 = time.perf_counter()
        estimates[req.label] = mc_multi(req.quantities, req.dim, req.dt, req.law, req.n_paths,
                                        req.seed)
        runtimes[req.label] = time.perf_counter() - t1
    t1 = time.perf_counter()
    rows, tables = checks(estimates)
    runtimes["checks"] = time.perf_counter() - t1
    _write_results(cfg.experiment, rows, out_dir)
    if tables:
        _write_tables(tables, out_dir)
    _write_manifest(cfg, rows, out_dir, time.perf_counter() - t0, runtimes,
                    {req.label: req.path_steps for req in requests})
    for r in rows:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {cfg.experiment}:{r.params} = {float(r.estimate):.6g}"
              + (f" (ref {float(r.reference):.6g})" if r.reference is not None else ""),
              file=stream)
    return 0 if all(r.passed for r in rows) else 2


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
        # benchmark/round.py and benchmark/reference.py pass --workers
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored (must be >= 1): batches run on one thread")
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
        if args.workers < 1:
            raise ConfigError("workers must be >= 1", "/")
        return run_experiment(cfg, dry_run=args.dry_run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime errors: exit 1 per contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
