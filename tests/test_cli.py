"""Command-line interface: every subcommand, config plumbing, determinism."""

import json
import os

import pytest

from rsgame import cli
from rsgame.cli import main


@pytest.fixture
def e1_config(tmp_path):
    config = {
        "n_players": 2, "n_dims": 1, "leaders": [0],
        "utility": {"kind": "priced", "price": [0.8, 0.5]},
        "action_min": 0.0, "action_max": [[1.0], [2.0]], "noise": 0.1,
        "fixed_gains": [[[1.0], [0.5]], [[0.5], [1.0]]],
        "rng_seed": 0, "ensemble_size": 1,
        "eps_grid": [0.0, 0.1], "delta_grid": [0.0, 0.1],
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def budget_config(tmp_path):
    config = {
        "n_players": 2, "n_dims": 3, "leaders": [0],
        "utility": {"kind": "budgeted", "budget": [6.0, 6.0]},
        "action_min": 0.0, "action_max": 6.0, "noise": 0.05,
        "channel_model": "rayleigh", "rng_seed": 4, "ensemble_size": 12,
        "eps_grid": [0.0, 0.4], "delta_grid": [0.0],
        "restarts": 2,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_nse_prints_worked_values(e1_config, capsys):
    assert main(["--config", e1_config, "nse"]) == 0
    out = capsys.readouterr().out
    assert "0.4834" in out or "0.4835" in out
    assert "social utility" in out


def test_rse1_requires_eps(e1_config):
    with pytest.raises(SystemExit):
        main(["--config", e1_config, "rse1"])


def test_rse1_and_rse2(e1_config, capsys):
    assert main(["--config", e1_config, "rse1", "--eps", "0.1"]) == 0
    assert main(["--config", e1_config, "rse2", "--delta", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "case 1" in out and "case 2" in out


def test_conditions(e1_config, capsys):
    assert main(["--config", e1_config, "conditions"]) == 0
    out = capsys.readouterr().out
    assert "c1:" in out and "regimes:" in out


def test_sweep_byte_identical_bodies(e1_config, tmp_path, capsys):
    main(["--config", e1_config, "--out", str(tmp_path / "r1"), "sweep"])
    main(["--config", e1_config, "--out", str(tmp_path / "r2"), "sweep"])
    b1 = open(tmp_path / "r1" / "sweep.csv").readlines()[1:]
    b2 = open(tmp_path / "r2" / "sweep.csv").readlines()[1:]
    assert b1 == b2


def test_sweep_grid_override(e1_config, tmp_path, capsys):
    main(["--config", e1_config, "--out", str(tmp_path / "g"), "sweep",
          "--eps-grid", "0,0.05", "--delta-grid", "0"])
    body = open(tmp_path / "g" / "sweep.csv").read()
    assert "RSE1" in body and "RSE2" not in body
    assert "0.05" in body


def test_sweep_prints_the_prediction_agreement(tmp_path, capsys):
    # the default priced game: most instances shut a player off at the NSE,
    # and the agreement still counts every triggered prediction
    path = tmp_path / "default.json"
    path.write_text(json.dumps({"rng_seed": 0, "ensemble_size": 10}))
    assert main(["--config", str(path), "--out", str(tmp_path / "s"), "sweep",
                 "--eps-grid", "0,0.02", "--delta-grid", "0,0.02"]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines()
                if "condition/prediction agreement case1:" in ln)
    ok, total = map(int, line.split(":")[1].split("/"))
    assert ok == total > 0


def test_montecarlo(budget_config, tmp_path, capsys):
    assert main(["--config", budget_config, "--out", str(tmp_path / "mc"),
                 "montecarlo", "--scenario", "none"]) == 0
    out = capsys.readouterr().out
    assert "fraction with follower d > 0" in out
    cdf_csv = open(tmp_path / "mc" / "montecarlo_cdf.csv").read()
    assert cdf_csv.startswith("# metric: d1_rse1")


def test_montecarlo_svg(budget_config, tmp_path):
    main(["--config", budget_config, "--out", str(tmp_path / "mc"),
          "--format", "csv+svg", "montecarlo", "--scenario", "none"])
    svg = open(tmp_path / "mc" / "montecarlo_cdf.svg").read()
    assert svg.startswith("<svg")


def test_montecarlo_scenario_sets_the_filter(budget_config, tmp_path,
                                             monkeypatch):
    # the config's own filter stands without the flag; "none" clears it
    config = json.loads(open(budget_config).read())
    config["scenario"] = {"filter": "s1"}
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(config))
    seen = []

    class Stop(Exception):
        pass

    def record(cfg):
        seen.append(cfg.scenario.filter)
        raise Stop

    monkeypatch.setattr(cli, "monte_carlo_cdf", record)
    for flags in ([], ["--scenario", "s2"], ["--scenario", "none"]):
        with pytest.raises(Stop):
            main(["--config", str(path), "montecarlo", *flags])
    assert seen == ["s1", "s2", None]


def test_seed_flag_overrides_the_config(budget_config, monkeypatch):
    # the config's own seed stands without the flag, on either side of the
    # subcommand the flag wins
    seen = []

    class Stop(Exception):
        pass

    def record(cfg):
        seen.append(cfg.rng_seed)
        raise Stop

    monkeypatch.setattr(cli, "monte_carlo_cdf", record)
    for argv in (["--config", budget_config, "montecarlo"],
                 ["--config", budget_config, "--seed", "9", "montecarlo"],
                 ["--config", budget_config, "montecarlo", "--seed", "7"]):
        with pytest.raises(Stop):
            main(argv)
    assert seen == [4, 9, 7]


def test_waterfill_demo(budget_config, capsys):
    assert main(["--config", budget_config, "waterfill-demo",
                 "--eps", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "totals" in out


def test_waterfill_demo_needs_budget(e1_config):
    with pytest.raises(SystemExit):
        main(["--config", e1_config, "waterfill-demo"])


def test_heuristic(tmp_path, capsys):
    import numpy as np
    from ensembles import heuristic_protocol_spec
    spec = heuristic_protocol_spec(strong_leader=0, seed=3)
    config = {
        "n_players": 3, "n_dims": 2, "leaders": [0, 1],
        "utility": {"kind": "priced",
                    "price": np.asarray(spec.utility_model.price).tolist()},
        "action_min": 0.0, "action_max": np.asarray(spec.action_max).tolist(),
        "noise": np.asarray(spec.noise).tolist(),
        "fixed_gains": np.asarray(spec.cross_gain).tolist(),
        "rng_seed": 0, "ensemble_size": 1,
        "eps_grid": [0.0], "delta_grid": [0.0, 0.3],
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "heuristic.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "heuristic"]) == 0
    out = capsys.readouterr().out
    assert "selected leader: 0" in out
    assert "->" in out


def test_unknown_config_key_fails(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(Exception):
        main(["--config", str(path), "nse"])
