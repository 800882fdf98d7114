"""What benchmark/ needs of the program: its generated configs plan, its tracer installs.

These read benchmark/ and change nothing in it, so that a name the
benchmark looks up, or a config it writes, cannot go missing unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fluctx import cli

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"
sys.path.append(str(BENCHMARK))
import workloads  # noqa: E402  (benchmark/workloads.py)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("scale", ["full", "smoke"])
def test_every_generated_config_plans(workload, scale, tmp_path, capsys):
    bases = workloads.WORKLOADS[workload][1][scale]
    for exp, path, _ in workloads.generate(bases, 1, tmp_path):
        assert cli.main([exp, "--config", str(path), "--workers", "1", "--dry-run"]) == 0, \
            capsys.readouterr().err


def test_the_tracer_installs():
    # Tracer.install wraps module attributes in place, so it runs in its own process
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=BENCHMARK, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
