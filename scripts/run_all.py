#!/usr/bin/env python3
"""Run every checked-in experiment config and summarize the exit codes.

Usage: python scripts/run_all.py [--only NAME ...]
"""

import argparse
import sys
import time
from pathlib import Path

from fluctx.cli import main as fluctx_main, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", nargs="*", default=None,
                    help="config stems to run (default: all)")
    args = ap.parse_args(argv)

    configs = sorted(CONFIG_DIR.glob("*.json"))
    if args.only:
        configs = [c for c in configs if c.stem in args.only]
    if not configs:
        print("no configs matched", file=sys.stderr)
        return 1

    failures = 0
    for path in configs:
        cfg = parse_config(path)
        cli_args = [cfg.experiment, "--config", str(path)]
        t0 = time.perf_counter()
        code = fluctx_main(cli_args)
        status = {0: "ok", 2: "CHECK FAILED"}.get(code, "ERROR")
        print(f"== {path.stem}: {status} (exit {code}, "
              f"{time.perf_counter() - t0:.1f}s)")
        failures += code != 0
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
