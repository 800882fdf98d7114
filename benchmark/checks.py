"""The benchmark's own correctness checks of each experiment's outputs.

References are computed here from the paper's closed forms and anchors
and from scipy quadrature, never read from the `reference` column of
results.csv.  Each experiment has a fixed number of checks, so a run that
errors can count all of them as failed.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from functools import lru_cache
from statistics import linear_regression

from workloads import expected_rows

K_SIGMA = 3.0
# paper anchors c_{2,1} = -3/4 and c_{2,2} = 1/2; for F = x^2, F'(1) = F''(1) = 2
# and F is even, so the well at -1 contributes the same:
# b_2 = c_{2,1} F'(1) + c_{2,2} F''(1) / 2! = -1 for any P(xi_0 > 0)
B2_X2 = float(Fraction(-3, 4) * 2 + Fraction(1, 2) * 2 / 2)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within(row, reference):
    return abs(float(row["estimate"]) - reference) <= K_SIGMA * float(row["stderr"])


def _slope(xs, ys):
    return linear_regression(xs, ys).slope


def strong_rates(doc, rows, out_dir):
    t = max(doc["time_grid"])
    eps = sorted(doc["eps_grid"], reverse=True)
    out = []
    for m in range(doc["order"] + 1):
        vals = [float(rows[f"E|w_{m}|^2(eps={e:g},t={t:g})"]["estimate"]) for e in eps]
        positive = all(v > 0 for v in vals)
        out.append((f"E|w_{m}|^2 > 0", positive))
        slope = _slope([math.log(e) for e in eps], [math.log(v) for v in vals]) if positive \
            else math.nan
        out.append((f"strong slope m={m} >= 0.9", slope >= 0.9))
    return out


def longtime_scalar(doc, rows, out_dir):
    if doc["observable"] != "x1^2":
        raise ValueError("the b_m references are derived for F = x^2")
    times = sorted(doc["time_grid"])
    window = [t for t in times if t <= 4.0] or times
    s22 = f"S22_plus(t={window[-1]:g})"
    out = [(f"{s22} ~ 1/2", _within(rows[s22], 0.5)),
           (f"a2(t={times[-1]:g}) ~ b2", _within(rows[f"a2(t={times[-1]:g})"], B2_X2))]
    for t in times:  # odd m vanish: b_1 = b_3 = 0
        out += [(f"a{m}(t={t:g}) ~ 0", _within(rows[f"a{m}(t={t:g})"], 0.0)) for m in (1, 3)]
    return out


def consistency(doc, rows, out_dir):
    tables = {}
    for row in read_rows(out_dir / "tables.csv"):
        key = (int(row["m"]), int(row["i"]))
        tables.setdefault(row["family"], {})[key] = Fraction(int(row["numerator"]),
                                                             int(row["denominator"]))

    def equal(a, b):
        return all(a.get(k, 0) == b.get(k, 0) for k in set(a) | set(b))

    return [("c rows == d rows", equal(tables["c"], tables["d"])
             and equal(tables["cbar"], tables["dbar"]))]


@lru_cache(maxsize=None)
def gibbs_x2(eps):
    """E[x^2] under exp(-V/eps) by scipy quadrature; V - V(1) = (x^2 - 1)^2 / 4."""
    from scipy.integrate import quad

    def weight(x):
        return math.exp(-(x * x - 1.0) ** 2 / (4.0 * eps))

    opts = dict(points=[-1.0, 0.0, 1.0], epsabs=0.0, epsrel=1e-13, limit=500)
    num = quad(lambda x: x * x * weight(x), -4.0, 4.0, **opts)[0]
    return num / quad(weight, -4.0, 4.0, **opts)[0]


def equilibrium_check(doc, rows, out_dir):
    if doc["observable"] != "x1^2" or doc["order"] != 2:
        raise ValueError("the checks are derived for F = x^2 at order 2")
    eps = sorted(doc["eps_grid"], reverse=True)
    # residual = E[x^2] - (B_0 + eps B_2) with B_0 = 1, B_1 = 0, B_2 = -1
    ex2 = [float(rows[f"residual(eps={e:g})"]["estimate"]) + (1.0 - e) for e in eps]
    out = [(f"E[x^2](eps={e:g}) == quad", abs(v - gibbs_x2(e)) <= 1e-12 * gibbs_x2(e))
           for e, v in zip(eps, ex2)]
    gaps = [abs((v - 1.0 + e) / e ** 2 + 3.0) for e, v in zip(eps, ex2)]
    out.append(("(E[x^2] - 1 + eps) / eps^2 -> -3", all(b < a for a, b in zip(gaps, gaps[1:]))))
    return out


def vector_divergence(doc, rows, out_dir):
    d = doc["dim"]
    times = sorted(doc["time_grid"])

    def a2(t):
        u = 1.0 - math.exp(-2.0 * t)
        return -(0.75 * u * u + (d - 1) * (t - u / 2.0))

    out = [(f"a2(t={t:g}) closed form", _within(rows[f"a2(t={t:g})"], a2(t))) for t in times]
    for t in (times[0], times[-1]):
        out.append((f"var_r1(t={t:g})", _within(rows[f"var_r1(t={t:g})"],
                                                (1.0 - math.exp(-4.0 * t)) / 2.0)))
        out.append((f"E|v1|^2(t={t:g})", _within(rows[f"E|v1|^2(t={t:g})"], 2.0 * (d - 1) * t)))
    late = [t for t in times if t >= 2.0]
    slope = _slope(late, [float(rows[f"a2(t={t:g})"]["estimate"]) for t in late])
    out.append(("a2 slope ~ -(d-1)", abs(slope + (d - 1)) <= 0.2 * (d - 1)))
    return out


CHECKS = {
    "strong_rates": (strong_rates, lambda doc: 2 * (doc["order"] + 1)),
    "longtime_scalar": (longtime_scalar, lambda doc: 2 + 2 * len(doc["time_grid"])),
    "consistency": (consistency, lambda doc: 1),
    "equilibrium_check": (equilibrium_check, lambda doc: len(doc["eps_grid"]) + 1),
    "vector_divergence": (vector_divergence, lambda doc: len(doc["time_grid"]) + 5),
}


def verify(exp, doc, exit_code, out_dir):
    """(attempted, failed, consistent, notes) for one experiment of one round.

    An operation is a results.csv row or one of the checks above, and an
    experiment always attempts its expected number of them.  Every
    operation of an experiment that exited with an error counts as failed,
    and so does every expected row results.csv lacks.
    """
    check_fn, n_checks = CHECKS[exp]
    n_rows = expected_rows(doc)
    n_ops = n_rows + n_checks(doc)
    results = out_dir / "results.csv"
    if exit_code not in (0, 2) or not results.is_file():
        return n_ops, n_ops, True, [f"{exp}: exit {exit_code}"]
    table = read_rows(results)
    rows = {r["params"]: r for r in table}
    failed_rows = [r["params"] for r in table if r["passed"] != "true"]
    notes = [f"{exp}: row {p} failed" for p in failed_rows]
    missing = max(0, n_rows - len(rows))
    if missing:
        notes.append(f"{exp}: {missing} of {n_rows} rows missing")
    consistent = (exit_code == 2) == bool(failed_rows)
    if not consistent:
        notes.append(f"{exp}: exit {exit_code} disagrees with the passed column")
    if len(rows) != len(table) or len(table) > n_rows:
        consistent = False
        notes.append(f"{exp}: results.csv has repeated or unexpected rows")
    try:
        checks = check_fn(doc, rows, out_dir)
    except (KeyError, ValueError, OSError) as exc:
        checks = [(f"{exp}: checks raised {exc!r}", False)] * n_checks(doc)
    notes += [f"{exp}: check {name} failed" for name, ok in checks if not ok]
    failed = len(failed_rows) + missing + sum(not ok for _, ok in checks)
    return n_ops, failed, consistent, notes
