"""The scripts under scripts/, run as a user runs them: in their own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


class TestExpansionDiagnostics:
    def test_prints_coefficients_and_partial_sums(self):
        done = _run_script("expansion_diagnostics.py", "--max-order", "4")
        assert done.returncode == 0, done.stderr
        assert "  k =  4:           -3" in done.stdout.splitlines()
        assert "partial sums vs quadrature:" in done.stdout

    def test_order_beyond_the_tables_is_a_usage_error(self):
        # the d-table stops at MAX_ORDER = 12; past it the script used to end in a traceback
        done = _run_script("expansion_diagnostics.py", "--max-order", "13")
        assert done.returncode == 2
        assert "argument --max-order: invalid choice: 13" in done.stderr
        assert "Traceback" not in done.stderr
