"""End-to-end acceptance gate.

Each test drives one checked-in experiment config through the CLI runner
(outputs redirected to a temp dir), compares the fresh results.csv (and
the two tables.csv) byte for byte with the checked-in out/<name>/ files,
and prints a single summary line so the full-suite log shows the verdicts
at a glance.
"""

import csv
import dataclasses
import time
from pathlib import Path

import numpy as np

from fluctx.cli import parse_config, run_experiment
from fluctx.combinatorics import s_value
from fluctx.equilibrium import stationarity_defect
from fluctx.estimators import batch_layout, weak_coefficient
from fluctx.hierarchy import InitialLaw, SimConfig
from fluctx.observables import Observable, parse_polynomial

from pathwise import batch_slot, mc_multi_slots

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "out"


def _matches_golden(name, out, files):
    """Whether each fresh file equals the checked-in out/<name>/ file byte for byte."""
    return all((GOLDEN_DIR / name / f).read_bytes() == (out / f).read_bytes() for f in files)


def _run(name, tmp_path, files=("results.csv",)):
    cfg = parse_config(CONFIG_DIR / f"{name}.json")
    out = tmp_path / name
    cfg = dataclasses.replace(cfg, output_dir=str(out))
    t0 = time.perf_counter()
    code = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    rows = {}
    with open(out / "results.csv") as fh:
        for row in csv.DictReader(fh):
            rows[row["params"]] = row
    return code, elapsed, rows, _matches_golden(name, out, files)


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_recursion_table_anchors(tmp_path, capsys):
    code, elapsed, rows, golden = _run("recursion_tables", tmp_path,
                                       ("results.csv", "tables.csv"))
    ok = code == 0 and elapsed < 1.0 and golden
    _report(capsys, 1, ok, f"exit={code}, anchors+odd-m rows all passed, {elapsed:.2f}s, "
                           f"golden results and tables={golden}")


def test_criterion_2_independent_table_consistency(tmp_path, capsys):
    code, elapsed, rows, golden = _run("consistency", tmp_path, ("results.csv", "tables.csv"))
    ok = code == 0 and elapsed < 1.0 and golden
    _report(capsys, 2, ok, f"exit={code}, c == d entrywise to n=8, {elapsed:.2f}s, "
                           f"golden results and tables={golden}")


def test_criterion_3_equilibrium_residual_order(tmp_path, capsys):
    code, elapsed, rows, golden = _run("equilibrium_check", tmp_path)
    slope = float(rows["residual_order"]["estimate"])
    coeff = float(rows["leading_coefficient(eps^2)"]["estimate"])
    ok = code == 0 and golden
    _report(capsys, 3, ok,
            f"exit={code}, residual order {slope:.3f} (>= 1.8), "
            f"eps^2 coefficient {coeff:.3f} (target -3 within 10%), golden={golden}")


def test_criterion_4_strong_remainder_orders(tmp_path, capsys):
    code, elapsed, rows, golden = _run("strong_rates", tmp_path)
    slopes = [float(rows[f"strong_order(m={m})"]["estimate"]) for m in (0, 1, 2)]
    ok = code == 0 and golden
    _report(capsys, 4, ok,
            f"exit={code}, E|w_m|^2 orders "
            + ", ".join(f"m={m}: {s:.2f}" for m, s in enumerate(slopes))
            + f" (all >= 0.9), golden={golden}")


def test_criterion_5_weak_remainder_orders(tmp_path, capsys):
    code, elapsed, rows, golden = _run("weak_rates", tmp_path)
    slope = float(rows["weak_order(m=2)"]["estimate"])
    v0_row = next(v for k, v in rows.items() if k.startswith("v_0_consistency"))
    ok = code == 0 and golden
    _report(capsys, 5, ok,
            f"exit={code}, |v_2| order {slope:.2f} (>= 0.4), v_0 at eps=0.1 "
            f"= {float(v0_row['estimate']):.4f} vs sqrt(eps) a_1 + eps a_2 "
            f"= {float(v0_row['reference']):.4f} within 3 combined stderr, golden={golden}")


def test_criterion_6_longtime_scalar_limits(tmp_path, capsys):
    code, elapsed, rows, golden = _run("longtime_scalar", tmp_path)
    limit_row = next(v for k, v in rows.items() if k.startswith("S22_limit"))
    rate = float(rows["S22_rate"]["estimate"])
    a2 = float(rows["a2(t=5)"]["estimate"])
    ok = code == 0 and golden
    _report(capsys, 6, ok,
            f"exit={code}, E[S_22|xi0>0] -> {float(limit_row['estimate']):.4f} "
            f"(target 1/2), rate {rate:.2f} (>= 0.8), a_2(5) = {a2:.4f} "
            f"(target -1), a_1/a_3 consistent with 0, golden={golden}")


def test_criterion_7_vector_divergence(tmp_path, capsys):
    code2, _, rows2, golden2 = _run("vector_divergence_d2", tmp_path)
    code3, _, rows3, golden3 = _run("vector_divergence_d3", tmp_path)
    s2 = float(rows2["a2_slope_in_t"]["estimate"])
    s3 = float(rows3["a2_slope_in_t"]["estimate"])
    ok = code2 == 0 and code3 == 0 and golden2 and golden3
    _report(capsys, 7, ok,
            f"exit d=2: {code2}, d=3: {code3}; a_2 slopes {s2:.3f} "
            f"(target -1) and {s3:.3f} (target -2), sub-checks within 3 stderr, "
            f"golden d=2: {golden2}, d=3: {golden3}")


def test_criterion_8_property_suites(capsys):
    checks = {}

    # exact derivative tensors agree with finite differences
    rng = np.random.default_rng(99)
    F = Observable({(2, 1): 1.5, (0, 3): -0.7, (1, 0): 2.0}, 2)
    x, v = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    h = 1e-5
    fd = (F.eval(x + h * v) - F.eval(x - h * v)) / (2 * h)
    checks["derivative_fd"] = abs(F.apply_derivative(1, x, [v]) - fd) < 1e-6

    # derivative tensors are symmetric in their arguments
    vs = [rng.uniform(-1, 1, 2) for _ in range(3)]
    base = F.apply_derivative(3, x, vs)
    perm = F.apply_derivative(3, x, [vs[2], vs[0], vs[1]])
    checks["derivative_symmetry"] = abs(base - perm) < 1e-12

    # composition splitting identity S_{4,4} = sum_l S_{l,3} S_{4-l,1}
    vals = [0.7, -1.2, 0.4, 0.9]
    lhs = s_value(4, 4, vals)
    rhs = sum(s_value(l, 3, vals) * s_value(4 - l, 1, vals) for l in range(2, 4))
    checks["splitting_identity"] = abs(lhs - rhs) < 1e-12

    # stationary Fokker-Planck identity at quadrature accuracy
    defect, scale = stationarity_defect(parse_polynomial("x1^4 - x1^2", 1), 0.1)
    checks["stationarity"] = abs(defect) <= 1e-10 * scale

    # batches are independent: batch b simulated alone from its own
    # substream reproduces its slot of the full estimator run
    cfg = SimConfig(dim=1, order=2, eps=0.1, dt=5e-3, t_final=0.5)
    law = InitialLaw(kind="symmetric_two_point", point=(1.0,), higher_std=(1.0,))
    X2 = parse_polynomial("x1^2", 1)
    a2 = weak_coefficient(2, X2, cfg.grid_index(0.5))
    _, slots = mc_multi_slots({"a2": a2}, 1, cfg.dt, law, 2000, 5)
    sizes = batch_layout(2000)
    checks["batch_independence"] = all(
        batch_slot(a2, cfg, law, sizes[b], 5, b, ()) == slots["a2"][b]
        for b in (39, 20, 0))

    ok = all(checks.values())
    _report(capsys, 8, ok,
            "property spot-checks: "
            + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
