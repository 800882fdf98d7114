#!/usr/bin/env python3
"""Reference figures for benchmark/README.md.

Runs every checked-in config under configs/ through the CLI at 1 and 2
workers, each in a fresh process, and checks its results.csv against the
golden out/<name>/results.csv.  Then sweeps the simulate_batch kernel split
over d in {1, 2, 3} and batch sizes {2500, 25000}.

    python3 benchmark/reference.py

Writes benchmark/_work/reference.json and prints Markdown tables.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from workloads import ANNULUS, ROOT, SRC, WORK, import_fluctx


def run_configs(workers_list=(1, 2)):
    rows = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        for workers in workers_list:
            out_dir = WORK / "reference" / f"w{workers}" / path.stem
            out_dir.mkdir(parents=True, exist_ok=True)
            cfg = out_dir / "config.json"
            cfg.write_text(json.dumps({**doc, "output_dir": str(out_dir)}))
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "fluctx.cli", doc["experiment"], "--config", str(cfg),
                 "--workers", str(workers)],
                env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            wall = time.perf_counter() - t0
            golden = ROOT / "out" / path.stem / "results.csv"
            fresh = out_dir / "results.csv"
            same = (golden.read_bytes() == fresh.read_bytes()
                    if golden.is_file() and fresh.is_file() else None)
            rows.append({"config": path.stem, "workers": workers, "exit": proc.returncode,
                         "wall_s": round(wall, 2), "golden_identical": same})
            print(rows[-1], flush=True)
    return rows


def run_sweep():
    from kernel import kernel_split

    rows = []
    for dim in (1, 2, 3):
        law = ANNULUS if dim == 1 else {"kind": "deterministic_point",
                                        "point": [1.0] + [0.0] * (dim - 1)}
        for n in (2500, 25000):
            split = kernel_split(dim, n, law, eps=0.05, steps=100, repeats=3)
            chain2 = split["rng_ns"] + split["flow_ns"] + split["order1_ns"] + split["order2_ns"]
            rows.append({"dim": dim, "batch": n, **{k: round(v, 1) for k, v in split.items()},
                         "total_order2_ns": round(chain2, 1),
                         "total_order3_ns": round(chain2 + split["order3_ns"], 1)})
            print(rows[-1], flush=True)
    return rows


def main():
    import_fluctx()
    import numpy

    report = {"machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__, "platform": platform.platform()}}
    report["configs"] = run_configs()
    report["kernel_sweep"] = run_sweep()
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "reference.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
