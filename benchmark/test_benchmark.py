"""Smoke tests of the benchmark itself.

    python -m pytest benchmark -q

Every workload runs at the smoke scale (tiny configs, one round).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(workload, trace):
    proc = _run("benchmark/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = WORKLOADS + list(_units("end_to_end")) + list(_units("per_layer"))
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload, useful", [("strong_scalar", 1 / 3),
                                              ("longtime_equilibrium", 1.0),
                                              ("vector_d3_threads", 1.0)])
def test_per_layer_metrics(workload, useful):
    metrics = _result(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["estimators.useful_path_step_ratio"]["value"] == useful
    assert metrics["hierarchy.aborted_paths"]["value"] == 0


def test_results_independent_of_workers_and_workload_seed(tmp_path):
    outputs = set()
    for seed, workers in ((7, 2), (7, 1), (8, 1)):
        out_dir = tmp_path / f"seed{seed}-w{workers}"
        out_dir.mkdir()
        plan = {"workload": "vector_d3_threads", "scale": "smoke", "seed": seed,
                "workers": workers, "traced": False, "dir": str(out_dir)}
        (out_dir / "plan.json").write_text(json.dumps(plan))
        proc = _run("benchmark/round.py", "round", str(out_dir / "plan.json"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.add((out_dir / "vector_divergence" / "results.csv").read_bytes())
    assert len(outputs) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(*SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
