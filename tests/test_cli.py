import csv
import json
from pathlib import Path

import pytest

from fluctx import cli
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
