"""Workload definitions of the fluctx benchmark.

A workload is a list of experiments that one process runs through
`fluctx.cli.main`, one after another.  Its configs are generated from the
workload seed; see README.md for why the seed reorders grids, keys and
formatting but never changes the Monte Carlo seed.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

# The Monte Carlo seed of every checked-in config.  It is fixed because the
# program's 3-sigma checks fail on a few per cent of seeds by design, which
# would make the failed share of a run depend on the workload seed.
MC_SEED = 20260824
N_BATCHES = 40  # the estimators' default batch count; batch = n_paths / 40
ANNULUS = {"kind": "uniform_annulus", "r_min": 0.6, "r_max": 1.4, "higher_std": [1.0]}


def import_fluctx():
    """Import fluctx from the checkout's src/ and nowhere else."""
    if not (SRC / "fluctx" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fluctx sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fluctx = importlib.import_module("fluctx")
    if Path(fluctx.__file__).resolve().parent != SRC / "fluctx":
        raise SystemExit(f"benchmark: fluctx imported from {fluctx.__file__}, not {SRC}")
    return fluctx


def _equilibrium_check():
    return {"experiment": "equilibrium_check", "order": 2,
            "eps_grid": [0.04, 0.025, 0.015, 0.01, 0.006], "observable": "x1^2"}


def _consistency():
    return {"experiment": "consistency", "order": 8}


# name -> (workers, {scale: [base config, ...]})
WORKLOADS = {
    "strong_scalar": (1, {
        "full": [{"experiment": "strong_rates", "dim": 1, "order": 2,
                  "eps_grid": [0.05, 0.02, 0.01, 0.005], "time_grid": [1.0], "dt": 0.01,
                  "n_paths": 100000, "initial_law": ANNULUS}],
        "smoke": [{"experiment": "strong_rates", "dim": 1, "order": 2,
                   "eps_grid": [0.05, 0.02, 0.01, 0.005], "time_grid": [1.0], "dt": 0.01,
                   "n_paths": 8000, "initial_law": ANNULUS}],
    }),
    "longtime_equilibrium": (1, {
        "full": [{"experiment": "longtime_scalar", "dim": 1, "order": 3, "eps_grid": [0.1],
                  "time_grid": [1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 5.0], "dt": 0.005,
                  "n_paths": 300000, "initial_law": ANNULUS, "observable": "x1^2"},
                 _consistency(), _equilibrium_check()],
        "smoke": [{"experiment": "longtime_scalar", "dim": 1, "order": 3, "eps_grid": [0.1],
                   "time_grid": [0.1, 0.2, 0.3, 0.4, 0.6, 1.0, 2.0, 4.0], "dt": 0.01,
                   "n_paths": 8000, "initial_law": ANNULUS, "observable": "x1^2"},
                  _consistency(), _equilibrium_check()],
    }),
    "vector_d3_threads": (2, {
        "full": [{"experiment": "vector_divergence", "dim": 3, "order": 2, "eps_grid": [0.1],
                  "time_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "dt": 0.01, "n_paths": 8000,
                  "initial_law": {"kind": "deterministic_point", "point": [1.0, 0.0, 0.0]},
                  "observable": "x1"}],
        "smoke": [{"experiment": "vector_divergence", "dim": 3, "order": 2, "eps_grid": [0.1],
                   "time_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "dt": 0.01, "n_paths": 800,
                   "initial_law": {"kind": "deterministic_point", "point": [1.0, 0.0, 0.0]},
                   "observable": "x1"}],
    }),
}


def generate(bases, seed: int, out_dir: Path):
    """Write configs for `seed` from base configs; return [(experiment, path, doc)].

    The seed permutes what the program must ignore: the order of grids it
    sorts, the key order and the JSON layout.  results.csv stays the same.
    """
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for base in bases:
        doc = json.loads(json.dumps(base))
        exp = doc["experiment"]
        doc["seed"] = MC_SEED
        doc["output_dir"] = str(out_dir / exp)
        if exp in ("strong_rates", "longtime_scalar", "vector_divergence"):
            rng.shuffle(doc["time_grid"])
        if exp == "strong_rates":
            rng.shuffle(doc["eps_grid"])
        if exp == "equilibrium_check":  # eps_grid[0] names the stationarity row
            rest = doc["eps_grid"][1:]
            rng.shuffle(rest)
            doc["eps_grid"] = doc["eps_grid"][:1] + rest
        keys = list(doc)
        rng.shuffle(keys)
        doc = {k: doc[k] for k in keys}
        path = out_dir / f"{exp}.json"
        path.write_text(json.dumps(doc, indent=rng.choice([None, 1, 2, 4])) + "\n")
        out.append((exp, path, doc))
    return out


@dataclass(frozen=True)
class Request:
    """One distinct simulation request of an experiment's estimates."""

    dim: int
    order: int
    eps: float
    dt: float
    t_final: float
    law: dict
    n_paths: int
    slice_times: tuple
    with_xfull: bool

    @property
    def path_steps(self) -> int:
        return self.n_paths * int(round(self.t_final / self.dt))

    @property
    def batch(self) -> int:
        return self.n_paths // N_BATCHES


def requests(doc) -> list:
    """The distinct simulation requests the experiment's estimates need."""
    exp = doc["experiment"]
    if exp not in ("strong_rates", "longtime_scalar", "vector_divergence"):
        return []
    times = tuple(sorted(doc["time_grid"]))
    common = dict(dim=doc["dim"], dt=doc["dt"], t_final=times[-1], law=doc["initial_law"])
    n = doc["n_paths"]
    if exp == "strong_rates":  # the program simulates each of these order + 1 times
        return [Request(order=doc["order"], eps=e, n_paths=n, slice_times=(times[-1],),
                        with_xfull=True, **common)
                for e in sorted(doc["eps_grid"], reverse=True)]
    if exp == "longtime_scalar":  # phase 2 runs on seed + 1
        eps = doc["eps_grid"][0]
        return [Request(order=2, eps=eps, n_paths=n, slice_times=times, with_xfull=False,
                        **common),
                Request(order=max(doc["order"], 3), eps=eps, n_paths=max(n // 4, 1000),
                        slice_times=times, with_xfull=False, **common)]
    return [Request(order=max(doc["order"], 2), eps=doc["eps_grid"][0], n_paths=n,
                    slice_times=times, with_xfull=False, **common)]


def expected_rows(doc) -> int:
    """Rows the experiment writes to results.csv."""
    exp = doc["experiment"]
    if exp == "strong_rates":
        return (len(doc["eps_grid"]) + 1) * (doc["order"] + 1)
    if exp == "longtime_scalar":
        return 4 * len(doc["time_grid"]) + 2
    if exp == "vector_divergence":
        return len(doc["time_grid"]) + 5
    if exp == "consistency":
        return 1
    if exp == "equilibrium_check":
        return len(doc["eps_grid"]) + 3
    raise ValueError(exp)


def required_path_steps(docs) -> int:
    return sum(r.path_steps for doc in docs for r in requests(doc))
