#!/usr/bin/env python3
"""The fluctx benchmark: one workload for a fixed time, then one JSON line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole rounds while one more round still ends within S seconds
of the first round's start (at least one round).  A round is a fresh
process that generates the workload's configs from the seed, parses them,
and runs each experiment through `fluctx.cli.main`, one after another
(a closed loop).  After each round this process checks every results.csv
row and the benchmark's own checks (checks.py), and that every round wrote
the same bytes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, each the median
over the run's rounds; set-up time is the median set-up CPU time over the
rounds and SETUPS_EACH_SIDE set-up-only processes before and after them.
--trace 1 alternates traced and untraced rounds and prints the per-layer
metrics; the spans go to the run directory's trace.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import verify
from workloads import ROOT, SRC, WORK, WORKLOADS, generate, required_path_steps

HERE = Path(__file__).resolve().parent
SETUPS_EACH_SIDE = 5  # set-up-only processes before and after the rounds, untraced runs
DEADLINE_S = 150.0  # start no process that would end after this; runs must end by 180 s


class Run:
    def __init__(self, args):
        self.args = args
        self.workers, bases = WORKLOADS[args.workload][0], WORKLOADS[args.workload][1][args.scale]
        self.dir = WORK / "runs" / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # the same generation the round processes make, to know the docs here
        self.configs = generate(bases, args.seed, self.dir / "configs")
        self.required = required_path_steps([doc for _, _, doc in self.configs])
        self.t0 = time.monotonic()
        self.slowest = 0.0
        self.count = 0

    def spawn(self, mode, traced=False):
        """Run benchmark/round.py in a fresh process and return its record."""
        self.count += 1
        out_dir = self.dir / f"{mode}{self.count:03d}"
        out_dir.mkdir()
        plan = {"workload": self.args.workload, "scale": self.args.scale,
                "seed": self.args.seed, "workers": self.workers, "traced": traced,
                "dir": str(out_dir)}
        (out_dir / "plan.json").write_text(json.dumps(plan))
        timeout = DEADLINE_S + 20.0 - (time.monotonic() - self.t0)
        started = time.monotonic()
        with open(out_dir / "process.log", "w") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "round.py"), mode, str(out_dir / "plan.json")],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        self.slowest = max(self.slowest, time.monotonic() - started)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: {mode} process failed; see {out_dir / 'process.log'}")
        record = json.loads((out_dir / "record.json").read_text())
        record["dir"] = out_dir
        return record

    def setups(self, n):
        return [self.spawn("setup")["setup_s"] for _ in range(n)]

    def fits(self, seconds, since):
        """Whether one more process as slow as the slowest so far ends `seconds` after
        `since`, and before the deadline."""
        now = time.monotonic() + self.slowest
        return now - since <= seconds and now - self.t0 <= DEADLINE_S


def _verify_round(run, record, reference):
    """(attempted, failed, ok, bytes of every output table) of one round."""
    attempted = failed = 0
    ok = True
    outputs = b""
    for (exp, _, doc), code in zip(run.configs, record["exit_codes"]):
        out_dir = record["dir"] / exp
        a, f, consistent, notes = verify(exp, doc, code, out_dir)
        attempted, failed, ok = attempted + a, failed + f, ok and consistent
        for note in notes:
            print(f"  {record['dir'].name}: {note}", file=sys.stderr)
        for name in ("results.csv", "tables.csv"):
            if (out_dir / name).is_file():
                outputs += name.encode() + (out_dir / name).read_bytes()
    if reference is not None and outputs != reference:
        print(f"  {record['dir'].name}: outputs differ from the first round", file=sys.stderr)
        ok = False
    return attempted, failed, ok, outputs


def _end_to_end(run, rounds, setups):
    walls = [r["wall_s"] for r in rounds]
    return {
        "wall_s": statistics.median(walls),
        "path_steps_per_s": statistics.median(run.required / w for w in walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def _per_layer(run, rounds, probe):
    from tracer import isolated_busy, layer_metrics

    traced = [r for r in rounds if "spans" in r]
    per_round = []
    for r in traced:
        m = layer_metrics(r["spans"], run.required)
        m["estimators.worker_slowdown"] = (m["hierarchy.busy_s"]
                                           / isolated_busy(r["spans"], probe["shape_ns"]))
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    out.update({f"hierarchy.{k}": v for k, v in probe["kernel"].items()})
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in rounds
                                                   if "spans" not in r))
    trace = {"rounds": [{"dir": r["dir"].name, "spans": r["spans"]} for r in traced],
             "metrics": out}
    (run.dir / "trace.json").write_text(json.dumps(trace))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny configs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "fluctx" / "__init__.py").is_file():
        print(f"benchmark: no fluctx sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args)
    rounds = []
    setups = [] if args.trace else run.setups(SETUPS_EACH_SIDE)
    attempted = failed = 0
    correct, reference = True, None
    t_rounds = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        record = run.spawn("round", traced)
        a, f, ok, reference = _verify_round(run, record, reference)
        attempted, failed, correct = attempted + a, failed + f, correct and ok
        rounds.append(record)
        setups.append(record["setup_s"])
        need_untraced = args.trace and len(rounds) < 2
        if not need_untraced and not run.fits(args.seconds, t_rounds):
            break
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = _per_layer(run, rounds, run.spawn("probe"))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        setups += run.setups(SETUPS_EACH_SIDE)
        metrics = _end_to_end(run, rounds, setups)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
