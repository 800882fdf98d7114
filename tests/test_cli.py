import contextlib
import csv
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctx import cli
from fluctx.combinatorics import MAX_ORDER
from fluctx.cli import (
    ConfigError,
    config_to_document,
    main,
    parse_config,
    run_experiment,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name="config.json", **fields):
    doc = {"experiment": "recursion_tables", "seed": 7}
    doc.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        path = write_config(tmp_path, experiment="strong_rates", seed=11,
                            eps_grid=[0.05, 0.02], time_grid=[1.0, 2.0],
                            dt=0.005, n_paths=5000,
                            initial_law={"kind": "uniform_annulus",
                                         "r_min": 0.5, "r_max": 1.5},
                            output_dir=str(tmp_path / "out"))
        cfg = parse_config(path)
        assert cfg.experiment == "strong_rates"
        assert cfg.seed == 11
        doc = config_to_document(cfg)
        assert doc["eps_grid"] == [0.05, 0.02]
        assert parse_config(write_config(tmp_path, "b.json", **doc)) == cfg

    def test_grid_values_parse_bit_exact(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, eps_grid=[0.4, 0.2, 0.1]))
        assert cfg.eps_grid == (0.4, 0.2, 0.1)

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "consistency"}))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.pointer == "/seed"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, frobnicate=1))
        assert err.value.pointer == "/frobnicate"

    def test_bad_grid_entry_pointer(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, eps_grid=[0.1, 1.5]))
        assert err.value.pointer == "/eps_grid/1"
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, time_grid=[1.0, -2.0]))
        assert err.value.pointer == "/time_grid/1"

    def test_type_errors(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, n_paths=True))
        assert err.value.pointer == "/n_paths"
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, seed="twelve"))
        assert err.value.pointer == "/seed"

    def test_range_checks(self, tmp_path):
        for fields, pointer in (
            ({"dt": 0.5}, "/dt"),
            ({"n_paths": 10}, "/n_paths"),
            ({"order": 13}, "/order"),
            ({"experiment": "quantum"}, "/experiment"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config(write_config(tmp_path, **fields))
            assert err.value.pointer == pointer

    def test_negative_seed(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, seed=-1))
        assert err.value.pointer == "/seed"
        assert parse_config(write_config(tmp_path, seed=0)).seed == 0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "missing.json")


ANNULUS = {"kind": "uniform_annulus", "r_min": 0.6, "r_max": 1.4, "higher_std": [1.0]}
POINT2 = {"kind": "deterministic_point", "point": [1.0, 0.0]}
STRONG = dict(experiment="strong_rates", eps_grid=[0.05, 0.02, 0.01, 0.005],
              time_grid=[1.0], dt=0.01, n_paths=2000, initial_law=ANNULUS)
VECTOR = dict(experiment="vector_divergence", dim=2, eps_grid=[0.1],
              time_grid=[1.0, 2.0, 3.0], dt=0.01, initial_law=POINT2, observable="x1")
LONGTIME = dict(experiment="longtime_scalar", eps_grid=[0.1], time_grid=[0.1, 0.2, 0.3, 0.4],
                dt=0.01, initial_law=ANNULUS, observable="x1^2")
EQUILIBRIUM = dict(experiment="equilibrium_check", eps_grid=[0.04, 0.025, 0.015, 0.01],
                   observable="x1^2")
# (config, JSON pointer): each passes parse_config, and without the plan's
# checks would fail only at run time, most of them after the Monte Carlo
LATE_FAILURES = [
    (dict(VECTOR, dim=1, initial_law={"kind": "deterministic_point", "point": [1.0]}),
     "/dim"),
    (dict(VECTOR, time_grid=[1.0, 1.5]), "/time_grid"),
    (dict(STRONG, eps_grid=[0.05, 0.02, 0.01]), "/eps_grid"),
    (dict(STRONG, experiment="weak_rates", eps_grid=[0.4, 0.2, 0.1], observable="x1^2"),
     "/eps_grid"),
    (dict(EQUILIBRIUM, eps_grid=[0.04, 0.02, 0.01]), "/eps_grid"),
    (dict(EQUILIBRIUM, eps_grid=[0.5, 0.04, 0.02, 0.01]), "/eps_grid"),
    (dict(EQUILIBRIUM, dim=2), "/dim"),
    (dict(EQUILIBRIUM, order=11), "/order"),
    (dict(LONGTIME, dim=2), "/dim"),
    (dict(LONGTIME, initial_law={"kind": "deterministic_point", "point": [-1.0]}),
     "/initial_law/point"),
    (dict(LONGTIME, time_grid=[0.1, 0.2, 0.3]), "/time_grid"),
    (dict(VECTOR, time_grid=[1.0, 2.0, 3.005]), "/time_grid/2"),
    (dict(STRONG, initial_law={"kind": "deterministic_point", "point": [1.0, 0.0]}),
     "/initial_law/point"),
    (dict(STRONG, time_grid=[0.005]), "/time_grid/0"),
    (dict(STRONG, eps_grid=[]), "/eps_grid"),
    (dict(VECTOR, initial_law={"kind": "deterministic_point", "point": 1.0}),
     "/initial_law/point"),
    (dict(VECTOR, initial_law={"kind": "deterministic_point", "point": [1.0, "0"]}),
     "/initial_law/point"),
    (dict(STRONG, initial_law=dict(ANNULUS, higher_std=1.0)), "/initial_law/higher_std"),
    (dict(STRONG, initial_law=dict(ANNULUS, higher_std=[None])), "/initial_law/higher_std"),
    (dict(STRONG, initial_law=dict(ANNULUS, higher_std=None)), "/initial_law/higher_std"),
    (dict(STRONG, experiment="weak_rates", observable="1"), "/observable"),
    # vector_divergence's closed-form references hold only for xi_0 = e_1,
    # xi_1 = 0 and F = x1
    (dict(VECTOR, initial_law=dict(POINT2, kind="symmetric_two_point")), "/initial_law/kind"),
    (dict(VECTOR, initial_law=dict(POINT2, point=[2.0, 0.0])), "/initial_law/point"),
    (dict(VECTOR, initial_law=dict(POINT2, higher_std=[1.0])), "/initial_law/higher_std"),
    (dict(VECTOR, observable="x1^2"), "/observable"),
    # found by the schema property: a radius that is no number failed in float()
    (dict(STRONG, initial_law=dict(ANNULUS, r_min=None)), "/initial_law/r_min"),
    # a repeated time made the slope fit degenerate; two times that print
    # alike under :g shared one quantity name, so one overwrote the other
    (dict(VECTOR, time_grid=[1.0, 2.0, 2.0]), "/time_grid"),
    (dict(VECTOR, dt=1e-7, time_grid=[0.5, 2.0000001, 2.0000002]), "/time_grid"),
    # the first batch would keep 1 000 x 3 x 3 x 25 000 doubles of time slices
    (dict(VECTOR, dim=3, initial_law={"kind": "deterministic_point", "point": [1.0, 0.0, 0.0]},
          time_grid=[k / 100 for k in range(1, 1001)], n_paths=1_000_000), "/n_paths"),
]
# simulation requests per checked-in config
PLANNED_REQUESTS = {"consistency": 0, "equilibrium_check": 0, "longtime_scalar": 2,
                    "recursion_tables": 0, "strong_rates": 1, "vector_divergence_d2": 1,
                    "vector_divergence_d3": 1, "weak_rates": 3}


def test_no_config_writes_into_the_goldens():
    # out/ holds the golden results that the acceptance tests compare against
    for path in CONFIG_DIR.glob("*.json"):
        assert Path(json.loads(path.read_text())["output_dir"]).parts[0] != "out", path.name


class TestDryRun:
    def test_plan_only_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, output_dir=str(out))
        assert main(["recursion_tables", "--config", str(path), "--dry-run"]) == 0
        assert not out.exists()
        assert "dry run" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(PLANNED_REQUESTS))
    def test_every_config_plans_without_simulating(self, name, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("--dry-run simulated")

        monkeypatch.setattr(cli, "mc_multi", no_simulation)
        out = tmp_path / "out"
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        path = write_config(tmp_path, **dict(doc, output_dir=str(out)))
        assert main([doc["experiment"], "--config", str(path), "--dry-run"]) == 0
        assert not out.exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"dry run: {doc['experiment']}, {PLANNED_REQUESTS[name]} " \
                           "simulation request(s)"
        assert len(lines) == 1 + PLANNED_REQUESTS[name]
        assert all(line.startswith("  - ") for line in lines[1:])

    def test_vector_divergence_plans_where_its_references_hold(self, tmp_path, capsys):
        # integer coordinates of e_1, and a nonzero xi_2, which no reference reads
        law = dict(POINT2, point=[1, 0], higher_std=[0.0, 0.5])
        path = write_config(tmp_path, **dict(VECTOR, initial_law=law))
        assert main(["vector_divergence", "--config", str(path), "--dry-run"]) == 0
        assert "noise ()" in capsys.readouterr().out

    @pytest.mark.parametrize("fields, pointer", LATE_FAILURES)
    def test_late_failures_rejected_up_front(self, fields, pointer, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, **dict(fields, output_dir=str(out)))
        assert main([fields["experiment"], "--config", str(path), "--dry-run"]) == 1
        assert capsys.readouterr().err.rstrip().endswith(f"(at {pointer})")
        assert not out.exists()


class TestRunExperiment:
    def test_recursion_tables_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path, order=8, output_dir=str(out)))
        assert run_experiment(cfg) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["experiment", "params"]
        assert all(r[-1] == "true" for r in rows[1:])
        with open(out / "tables.csv") as fh:
            table_rows = list(csv.reader(fh))
        assert ["c", "2", "2", "1", "2"] in table_rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["n_failed"] == 0
        assert [r["rule"] for r in manifest["rules"]] == ["exact"] * (len(rows) - 1)
        assert manifest["rules"][0]["test"] == "estimate == reference"
        assert "wall_time_s" in manifest

    def test_check_failure_exits_2(self, tmp_path):
        # too coarse an eps grid: the equilibrium residual changes sign near
        # eps ~ 0.17, so the fitted order stays well below the target
        out = tmp_path / "out"
        cfg = parse_config(write_config(
            tmp_path, experiment="equilibrium_check", order=2,
            eps_grid=[0.2, 0.1, 0.05, 0.02], observable="x1^2",
            output_dir=str(out)))
        assert run_experiment(cfg) == 2
        with open(out / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert any(r[-1] == "false" for r in rows[1:])


    def test_longtime_reference_follows_the_law(self, tmp_path):
        # xi_0 = +1 always: b_2(x1) = c_{2,1} = -3/4, not the symmetric law's 0.
        # The early times keep the S_22 gaps clear of the noise for the rate fit.
        out = tmp_path / "out"
        cfg = parse_config(write_config(
            tmp_path, experiment="longtime_scalar", order=3, eps_grid=[0.1],
            time_grid=[0.1, 0.2, 0.3, 0.4], dt=0.01, n_paths=2000,
            initial_law={"kind": "deterministic_point", "point": [1.0]},
            observable="x1", output_dir=str(out)))
        run_experiment(cfg)
        with open(out / "results.csv") as fh:
            rows = {r["params"]: r for r in csv.DictReader(fh)}
        assert rows["S22_rate"]["passed"] == "true"
        for t in ("0.1", "0.2", "0.3", "0.4"):
            assert float(rows[f"a2(t={t})"]["reference"]) == -0.75
            assert float(rows[f"a1(t={t})"]["reference"]) == 0.0

    def test_failed_rate_fit_is_a_failed_row(self, tmp_path):
        # at 4000 paths fewer than 4 window times clear 5 stderr
        out = tmp_path / "out"
        doc = json.loads((CONFIG_DIR / "longtime_scalar.json").read_text())
        doc.update(n_paths=4000, dt=0.01, output_dir=str(out))
        cfg = parse_config(write_config(tmp_path, **doc))
        assert run_experiment(cfg) == 2
        with open(out / "results.csv") as fh:
            rows = {r["params"]: r for r in csv.DictReader(fh)}
        times = ("1", "1.25", "1.5", "1.75", "2", "3", "4", "5")
        expected = {f"S22_plus(t={t})" for t in times} | {"S22_limit(t=4)", "S22_rate"}
        expected |= {f"a{m}(t={t})" for m in (1, 2, 3) for t in times}
        assert set(rows) == expected
        assert rows["S22_rate"]["estimate"] == "nan"
        assert rows["S22_rate"]["passed"] == "false"

    @pytest.mark.parametrize("order", [0, 1])
    def test_weak_rates_below_order_2_reaches_a_verdict(self, order, tmp_path):
        # the re-expansion check reads Xbar_2 whatever the configured order
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path, **dict(
            STRONG, experiment="weak_rates", order=order, eps_grid=[0.4, 0.2, 0.1, 0.05],
            observable="x1^2", output_dir=str(out))))
        assert run_experiment(cfg) in (0, 2)
        with open(out / "results.csv") as fh:
            params = [r["params"] for r in csv.DictReader(fh)]
        assert params == [f"v_{order}(eps={e:g},t=1)" for e in (0.4, 0.2, 0.1, 0.05)] + [
            f"weak_order(m={order})", "v_0_consistency(eps=0.05,t=1)"]

    def test_residuals_at_the_quadrature_floor_are_a_failed_row(self, tmp_path):
        # every B_k(x1) and E[x1] vanish: the residuals sit at rounding level
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path, **dict(
            EQUILIBRIUM, observable="x1", output_dir=str(out))))
        assert run_experiment(cfg) == 2
        with open(out / "results.csv") as fh:
            rows = {r["params"]: r for r in csv.DictReader(fh)}
        assert rows["residual_order"]["estimate"] == "nan"
        assert rows["residual_order"]["passed"] == "false"

    def test_manifest_times_each_request(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path, **dict(STRONG, output_dir=str(out))))
        assert run_experiment(cfg) in (0, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        runtimes = manifest["runtimes_s"]
        assert set(runtimes) == {"w", "checks"}
        assert all(v > 0 for v in runtimes.values())
        assert sum(runtimes.values()) <= manifest["wall_time_s"]


class TestDeterminism:
    @pytest.fixture()
    def strong_cfg(self, tmp_path):
        def make(out_name):
            out = tmp_path / out_name
            return parse_config(write_config(
                tmp_path, f"{out_name}.json", experiment="strong_rates", seed=3,
                order=2, eps_grid=[0.05, 0.02, 0.01, 0.005], time_grid=[1.0],
                dt=0.005, n_paths=2000,
                initial_law={"kind": "uniform_annulus", "r_min": 0.6,
                             "r_max": 1.4, "higher_std": [1.0]},
                output_dir=str(out))), out
        return make

    def test_results_byte_identical_across_runs_and_workers(self, strong_cfg):
        cfg_a, out_a = strong_cfg("a")
        cfg_b, out_b = strong_cfg("b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


class TestMain:
    def test_config_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "consistency"}))
        assert main(["consistency", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_subcommand_mismatch_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["consistency", "--config", str(path)]) == 1
        assert "/experiment" in capsys.readouterr().err

    def test_law_type_error_exits_1_with_pointer(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, **dict(STRONG, output_dir=str(out),
                                             initial_law=dict(ANNULUS, higher_std=1.0)))
        assert main(["strong_rates", "--config", str(path)]) == 1
        assert capsys.readouterr().err.rstrip().endswith("(at /initial_law/higher_std)")
        assert not out.exists()

    def test_workers_accepted_and_ignored(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, output_dir=str(out))
        assert main(["recursion_tables", "--config", str(path), "--workers", "3"]) == 0
        assert "workers" not in json.loads((out / "manifest.json").read_text())
        assert main(["recursion_tables", "--config", str(path), "--workers", "0"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err


class TestRules:
    # (rule, tol, estimate on the boundary, stderr, reference, the side past it)
    BOUNDARIES = [
        ("sigma", None, 2.5, 0.5, 1.0, np.inf),  # |2.5 - 1| = 3 x 0.5
        ("at_least", None, 0.9, None, 0.9, -np.inf),
        ("relative", 0.1, 11.0, None, 10.0, np.inf),  # |11 - 10| = 0.1 x 10
        ("within", 0.5, 1.5, None, 1.0, np.inf),
        ("exact", None, 0.75, None, 0.75, np.inf),
    ]

    @pytest.mark.parametrize("rule, tol, est, se, ref, past", BOUNDARIES)
    def test_boundary(self, rule, tol, est, se, ref, past):
        test = cli.RULES[rule][1]
        assert test(est, se, ref, tol)
        assert not test(np.nextafter(est, past), se, ref, tol)
        nan = float("nan")
        assert not test(nan, se, ref, tol)
        assert not test(est, se, nan, tol)
        assert rule != "sigma" or not test(est, nan, ref, tol)

    def test_reported_always_passes(self):
        assert cli.RULES["reported"][1](float("nan"), None, None, None)

    def test_relative_needs_a_nonzero_reference(self):
        assert not cli.RULES["relative"][1](0.0, None, 0.0, 0.1)

    def test_exact_compares_fractions_exactly(self):
        exact = cli.RULES["exact"][1]
        assert exact(Fraction(39, 16), None, Fraction(39, 16), None)
        assert not exact(Fraction(1, 3), None, 1 / 3, None)

    def test_a_row_passes_by_its_own_columns(self):
        row = cli.ResultRow("S22_rate", float("nan"), None, 0.8, "paper", "at_least")
        assert row.csv_values()[-1] == "false"
        row = cli.ResultRow("a2_slope_in_t", -0.9, None, -1.0, "paper", "relative", 0.2)
        assert row.passed


# every key of cli._SCHEMA but output_dir, with good values and some bad ones
_BAD = st.sampled_from([None, True, "x", [1.0], {"a": 1}, -1])
_STDS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 30.0]), max_size=3)
_LAW = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["deterministic_point", "symmetric_two_point"]),
         "point": st.lists(st.sampled_from([1.0, 0.0, -1.0, 0.5, 2, 10.0]), min_size=1,
                           max_size=4)},
        optional={"higher_std": _STDS}),
    st.fixed_dictionaries(
        {"kind": st.just("uniform_annulus"), "r_min": st.sampled_from([0.0, 0.6, 1.0]),
         "r_max": st.sampled_from([0.5, 1.4, 2.0, 10.0])}, optional={"higher_std": _STDS}),
    st.dictionaries(st.sampled_from(["kind", "point", "r_min", "r_max", "higher_std", "radius"]),
                    st.one_of(_BAD, st.sampled_from(["uniform_annulus", 0.5, [1.0, 0.0]])),
                    max_size=4),
)
_FIELDS = {
    "seed": st.integers(-1, 2 ** 64),
    "dim": st.integers(0, 4),
    "order": st.integers(0, MAX_ORDER),
    "eps_grid": st.lists(st.sampled_from([0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]),
                         min_size=1, max_size=6, unique=True),
    # times on the 0.01 grid, and 0.125 off it
    "time_grid": st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.125, 2.0, 2.1]),
                          min_size=1, max_size=6),
    "dt": st.sampled_from([0.01, 0.005, 0.025, 0.0]),
    "n_paths": st.sampled_from([100, 200, 40]),
    "initial_law": _LAW,
    "observable": st.sampled_from(["x1", "x1^2", "x1^4 - x1^2", "1", "x2", "x1*x2", "x1 +"]),
}
_ANY_FIELD = {key: st.one_of(value, _BAD) for key, value in _FIELDS.items()}
# one config per experiment that plans, at a few hundred paths and steps
_BASES = [
    dict(STRONG, n_paths=200, time_grid=[0.5]),
    dict(STRONG, experiment="weak_rates", n_paths=200, time_grid=[0.5],
         eps_grid=[0.4, 0.2, 0.1, 0.05], observable="x1^2"),
    dict(LONGTIME, n_paths=200),
    dict(VECTOR, n_paths=200, time_grid=[0.5, 2.0, 2.1]),
    EQUILIBRIUM,
    dict(experiment="recursion_tables"),
    dict(experiment="consistency"),
]
_CONFIGS = st.one_of(
    # free draws of the right types; n_paths and dt always set, as their
    # defaults simulate for minutes
    st.fixed_dictionaries(
        {"experiment": st.sampled_from(sorted(cli.EXPERIMENTS)), "seed": _FIELDS["seed"],
         "n_paths": _FIELDS["n_paths"], "dt": _FIELDS["dt"]},
        optional={k: v for k, v in _FIELDS.items() if k not in ("seed", "n_paths", "dt")}),
    # a config that plans, with one or two fields redrawn, of any type
    st.tuples(st.sampled_from(_BASES),
              st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=2, unique=True)
              .flatmap(lambda keys: st.fixed_dictionaries({k: _ANY_FIELD[k] for k in keys})))
    .map(lambda drawn: {"seed": 7, **drawn[0], **drawn[1]}),
)


def test_the_property_draws_every_schema_key():
    assert set(_FIELDS) | {"experiment", "output_dir"} == set(cli._SCHEMA)


# about 25 s on 2 cores: 800 configs, of which some 140 run (50 with Monte Carlo)
@settings(max_examples=800, deadline=None, derandomize=True)
@given(_CONFIGS)
def test_every_config_is_rejected_up_front_or_reaches_a_verdict(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(dict(doc, output_dir=str(Path(tmp) / "out"))))
        argv = [doc["experiment"], "--config", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            planned = main(argv + ["--dry-run"])
            if planned == 1:
                assert err.getvalue().startswith("config error: ")
                assert err.getvalue().rstrip().endswith(")") and "(at /" in err.getvalue()
                return
            assert planned == 0
            # diverging paths may trip the abort budget; nothing else fails a run
            assert main(argv) in (0, 2) or "paths aborted by batch" in err.getvalue(), \
                err.getvalue()
