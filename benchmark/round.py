"""One process of the benchmark: a workload round, a set-up sample or the layer probe.

    python3 benchmark/round.py round|setup|probe PLAN_JSON

PLAN_JSON names the workload, scale, seed, worker count, whether to trace,
and the directory to work in.  The record goes to <dir>/record.json.
Set-up time is the process's CPU time (every thread) from its start to the
end of set-up, so it covers the interpreter start.

round   set up, then run every experiment of the workload through
        `fluctx.cli.main`, one after another
setup   set up and stop before the first CLI call
probe   time simulate_batch alone at the workload's shapes and the kernel
        split at its main shape (see README.md)
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate, import_fluctx, requests


def _bases(plan):
    return WORKLOADS[plan["workload"]][1][plan["scale"]]


def _set_up(plan, out_dir, bases, traced):
    import_fluctx()
    from fluctx import cli

    configs = generate(bases, plan["seed"], out_dir)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    for _, path, _ in configs:
        cli.parse_config(path)
    return cli, configs, tracer


def _run_all(cli, configs, workers, out_dir):
    with open(out_dir / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        return [cli.main([exp, "--config", str(path), "--workers", str(workers)])
                for exp, path, _ in configs]


def _peak_rss_mb():
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _probe(plan, out_dir):
    import_fluctx()
    from kernel import batch_ns, kernel_split
    from tracer import shape_key

    reqs = [r for _, _, doc in generate(_bases(plan), plan["seed"], out_dir)
            for r in requests(doc)]
    shape_ns = {}
    for r in reqs:
        key = shape_key([r.dim, r.order, r.with_xfull, r.batch, round(r.t_final / r.dt)])
        if key not in shape_ns:
            shape_ns[key] = batch_ns(r.dim, r.order, r.eps, r.dt, r.t_final, r.law, r.batch,
                                     r.slice_times, r.with_xfull, repeats=3)
    main = max(reqs, key=lambda r: r.path_steps)
    return {"shape_ns": shape_ns, "kernel": kernel_split(main.dim, main.batch, main.law,
                                                         main.eps)}


def main(argv):
    mode, plan_path = argv[1], Path(argv[2])
    plan = json.loads(plan_path.read_text())
    out_dir = Path(plan["dir"])
    if mode == "probe":
        record = _probe(plan, out_dir)
    else:
        cli, configs, tracer = _set_up(plan, out_dir, _bases(plan), plan["traced"])
        record = {"setup_s": time.process_time()}
        if mode == "round":
            t0 = time.perf_counter()
            record["exit_codes"] = _run_all(cli, configs, plan["workers"], out_dir)
            record["wall_s"] = time.perf_counter() - t0
            record["peak_rss_mb"] = _peak_rss_mb()
            if tracer:
                record["spans"] = tracer.dump()
    (out_dir / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
