"""Channel generation, config parsing, experiment pipeline, protocols."""

import dataclasses
import json
import os

import numpy as np
import pytest

import rsgame as rs
from rsgame import equilibria, lockstep
from rsgame.errors import (ConfigError, InvalidSpecError, IterationLimitError,
                           SchemaVersionError)
from rsgame.harness import (ExperimentConfig, ScenarioSpec, batch_from_config,
                            channels, cooperative_leaders_nse,
                            demote_to_single_leader, generate_channels,
                            heuristic_leader_selection, load_rows,
                            experiment, monte_carlo_cdf, montecarlo,
                            run_experiment, solve_instance)
from rsgame.harness.montecarlo import leader_ascent_batch, follower_response_batch

from conftest import random_priced_multi_follower
from ensembles import heuristic_protocol_spec
from oracles import two_leaders_grid_max


def small_config(**over):
    base = dict(
        n_players=2, n_dims=1, leaders=(0,),
        utility={"kind": "priced", "price": [0.8, 0.5]},
        action_min=0.0, action_max=8.0, noise=0.1,
        channel_model="rayleigh", rng_seed=11, ensemble_size=2,
        eps_grid=(0.0, 0.05), delta_grid=(0.0, 0.05),
        out_dir="unused", format="csv",
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestChannels:
    def test_deterministic_in_seed_and_index(self):
        config = small_config(n_dims=4)
        g1 = generate_channels(config, 3)
        g2 = generate_channels(config, 3)
        assert np.array_equal(g1, g2)
        g3 = generate_channels(config, 4)
        assert not np.array_equal(g1, g3)

    def test_order_insensitive(self):
        config = small_config(n_dims=2, ensemble_size=4)
        forward = [generate_channels(config, i) for i in range(4)]
        backward = [generate_channels(config, i) for i in (3, 2, 1, 0)][::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a, b)

    def test_rayleigh_unit_mean(self):
        config = small_config(n_dims=1, ensemble_size=1)
        rng_draws = [generate_channels(config, i)[0, 0, 0] for i in range(0)]
        # one big instance is cheaper than many: draw through the same model
        big = small_config(n_dims=25000, ensemble_size=1)
        gains = generate_channels(big, 0)
        mean = float(gains.mean())
        assert 0.98 <= mean <= 1.02

    def test_scenario_s2_ratios_hold(self):
        config = small_config(n_dims=6, scenario=ScenarioSpec(filter="s2"))
        for i in range(5):
            g = generate_channels(config, i)
            r_lf = g[1, 0, :] / g[1, 1, :]
            r_fl = g[0, 1, :] / g[0, 0, :]
            assert np.all(r_lf > 0.9)
            assert np.all(r_fl > 0.9)

    def test_scenario_s1_and_s3_ratios_hold(self):
        for scen, check in (
            ("s1", lambda g: np.all(g[1, 0] / g[1, 1] > 0.8)
                and np.all(g[0, 1] / g[0, 0] < 0.1)),
            ("s3", lambda g: np.all(g[1, 0] / g[1, 1] < 0.1)
                and np.all(g[0, 1] / g[0, 0] > 0.9)),
        ):
            config = small_config(n_dims=4, scenario=ScenarioSpec(filter=scen))
            for i in range(3):
                assert check(generate_channels(config, i))

    def test_four_ray_per_dim_mean(self):
        config = small_config(n_dims=16, channel_model="four_ray",
                              ensemble_size=1)
        draws = np.array([generate_channels(
            dataclasses.replace(config, rng_seed=s), 0) for s in range(800)])
        assert abs(draws.mean() - 1.0) < 0.05

    def test_fixed_gains_override(self):
        gains = np.full((2, 2, 1), 0.7)
        config = small_config(fixed_gains=gains.tolist())
        assert np.array_equal(generate_channels(config, 5), gains)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n_players": 2, "frobnicate": 1})

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": {"filter": "s1", "bogus": 2}})

    def test_unknown_utility_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"utility": {"kind": "priced", "price": [1], "coupon": 3}})

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            small_config(eps_grid=(0.05, 0.1))

    @pytest.mark.parametrize("data", [
        {"cross_scale": 1.0},
        {"scenario": {"filter": "s2", "high": 0.9}},
    ], ids=["cross-scale", "scenario-threshold"])
    def test_removed_keys_rejected(self, data):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_readme_schema_example_parses(self):
        # the README's config block is the documented schema
        text = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                 "README.md"), encoding="utf-8").read()
        block = text.split("### Config schema", 1)[1]
        block = block.split("```json", 1)[1].split("```", 1)[0]
        config = ExperimentConfig.from_dict(json.loads(block))
        assert config.scenario == ScenarioSpec(filter="s2")
        assert config.utility["kind"] == "budgeted"

    @pytest.mark.parametrize("fields, rejected", [
        ({"scenario": None}, False),  # no filter, as when the key is absent
        ({"n_players": 3}, True),  # the default utility prices two players
        ({"utility": {"kind": "budgeted", "budget": [5.0, 5.0, 5.0]}}, True),
        ({"utility": {"kind": "priced", "price": [0.8, 0.5, 0.3]}}, True),
        ({"leaders": [5]}, True),
        ({"leaders": [-1]}, True),
        ({"leaders": [1, 1]}, True),
    ], ids=["null-scenario", "prices-for-two-of-three", "three-budgets",
            "three-prices", "leader-out-of-range", "negative-leader",
            "repeated-leader"])
    def test_rejected_at_once_or_materializes(self, fields, rejected):
        # a config that constructs must draw and build its first instance;
        # one that cannot is refused with a ConfigError when it is built
        if rejected:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(fields)
        else:
            config = ExperimentConfig.from_dict(fields)
            assert config.scenario == ScenarioSpec()
            config.to_spec(generate_channels(config, 0))


class TestRunExperiment:
    def test_minimal_run_contains_only_nse(self, tmp_path):
        config = small_config(ensemble_size=1, eps_grid=(0.0,),
                              delta_grid=(0.0,), out_dir=str(tmp_path))
        summary = run_experiment(config)
        rows = load_rows(summary.csv_path)
        assert [r["kind"] for r in rows] == ["NSE"]

    def test_one_player_sweep_completes(self, tmp_path):
        config = small_config(n_players=1, utility={"kind": "priced",
                                                    "price": [0.8]},
                              out_dir=str(tmp_path), format="csv+svg")
        summary = run_experiment(config)
        assert summary.excluded == 0 and len(summary.records) == 2
        rows = load_rows(summary.csv_path)
        assert sorted({r["kind"] for r in rows}) == ["NSE", "RSE1", "RSE2"]

    def test_rerun_identical_apart_from_timestamp(self, tmp_path):
        config = small_config(out_dir=str(tmp_path / "a"))
        s1 = run_experiment(config)
        config2 = dataclasses.replace(config, out_dir=str(tmp_path / "b"))
        s2 = run_experiment(config2)
        body1 = open(s1.csv_path).readlines()[1:]
        body2 = open(s2.csv_path).readlines()[1:]
        assert body1 == body2

    def test_worked_instance_through_the_pipeline(self, tmp_path):
        gains = [[[1.0], [0.5]], [[0.5], [1.0]]]
        config = small_config(
            fixed_gains=gains, ensemble_size=1,
            action_max=[[1.0], [2.0]],
            eps_grid=(0.0, 0.1), delta_grid=(0.0, 0.1),
            out_dir=str(tmp_path))
        summary = run_experiment(config)
        rows = {r["kind"]: r for r in load_rows(summary.csv_path)}
        assert float(rows["NSE"]["a0_0"]) == pytest.approx(0.4835, abs=1e-3)
        assert float(rows["NSE"]["w0"]) == pytest.approx(0.0322, abs=1e-3)
        assert float(rows["RSE1"]["w1"]) == pytest.approx(0.7448, abs=1e-3)
        assert float(rows["RSE2"]["w1"]) == pytest.approx(1.0944, abs=1e-3)

    def test_budgeted_sweep_counts_active_channels(self, tmp_path):
        # demo_05's s2 ensemble through the per-instance pipeline
        config = ExperimentConfig(
            n_players=2, n_dims=4, leaders=(0,),
            utility={"kind": "budgeted", "budget": [10.0, 10.0]},
            action_max=10.0, noise=0.01, channel_model="four_ray",
            rng_seed=1, ensemble_size=3, eps_grid=(0.0, 0.05),
            delta_grid=(0.0, 0.05), scenario=ScenarioSpec(filter="s2"),
            restarts=3, out_dir=str(tmp_path / "a"))
        summary = run_experiment(config)
        assert summary.excluded == 0
        threshold = rs.activity_threshold(10.0, 4)
        spec = config.to_spec(summary.records[0].gains)
        assert experiment._activity_threshold(spec) == threshold
        rows = load_rows(summary.csv_path)
        assert len(rows) == 3 * 3
        for row in rows:
            a = np.array([[float(row[f"a{p}_{d}"]) for d in range(4)]
                          for p in range(2)])
            stats = rs.overlap_stats(a, threshold)
            assert [int(row["used0"]), int(row["used1"])] == [
                stats.sizes[0], stats.sizes[1]]
            assert int(row["common01"]) == stats.common_sizes[(0, 1)]
        rerun = run_experiment(dataclasses.replace(
            config, out_dir=str(tmp_path / "b")))
        body1 = open(summary.csv_path, "rb").read().split(b"\n", 1)[1]
        body2 = open(rerun.csv_path, "rb").read().split(b"\n", 1)[1]
        assert body1 == body2

    def test_svg_outputs(self, tmp_path):
        gains = [[[1.0], [0.5]], [[0.5], [1.0]]]
        config = small_config(format="csv+svg", out_dir=str(tmp_path),
                              fixed_gains=gains, ensemble_size=1,
                              action_max=[[1.0], [2.0]])
        summary = run_experiment(config)
        assert summary.svg_paths
        for path in summary.svg_paths:
            text = open(path).read()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")

    def test_solve_instance_keeps_the_callers_gains(self, monkeypatch):
        config = small_config(ensemble_size=1, eps_grid=(0.0,),
                              delta_grid=(0.0,))
        gains = generate_channels(config, 0)

        def redraw(*args):
            raise AssertionError("solve_instance drew the gains again")

        monkeypatch.setattr(channels, "generate_channels", redraw)
        record = solve_instance(config, config.to_spec(gains), 0)
        assert np.array_equal(record.gains, gains)

    def test_solver_errors_excluded_other_errors_propagate(self, tmp_path,
                                                          monkeypatch):
        config = small_config(ensemble_size=20, eps_grid=(0.0,),
                              delta_grid=(0.0,), out_dir=str(tmp_path))
        solve_nse = rs.equilibria.solve_nse
        calls = []

        def first_fails(spec, **kwargs):
            calls.append(spec)
            if len(calls) == 1:
                raise IterationLimitError("planted")
            return solve_nse(spec, **kwargs)

        monkeypatch.setattr(rs.equilibria, "solve_nse", first_fails)
        summary = run_experiment(config)
        assert summary.excluded == 1 and len(summary.records) == 19

        def broken(spec, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr(rs.equilibria, "solve_nse", broken)
        with pytest.raises(TypeError, match="planted"):
            run_experiment(config)

    def test_orderings_graded_for_the_configured_leader(self, tmp_path):
        # the worked instance with the players' roles swapped: player 1 leads
        config = small_config(
            leaders=(1,), utility={"kind": "priced", "price": [0.5, 0.8]},
            fixed_gains=[[[1.0], [0.5]], [[0.5], [1.0]]], ensemble_size=1,
            action_max=[[2.0], [1.0]], eps_grid=(0.0, 0.05, 0.1),
            delta_grid=(0.0, 0.05, 0.1), out_dir=str(tmp_path))
        summary = run_experiment(config)
        want = {name: [0, 0] for name in summary.orderings}
        for rec in summary.records:
            base = rec.results[("NSE", 0.0)].utilities
            for (kind, _), res in rec.results.items():
                up_l = res.utilities[1] >= base[1] - 1e-9  # player 1 leads
                down_l = res.utilities[1] <= base[1] + 1e-9
                up_f = res.utilities[0] >= base[0] - 1e-9
                down_f = res.utilities[0] <= base[0] + 1e-9
                if kind == "RSE1":
                    graded = {"case1_leader_up": up_l,
                              "case1_follower_down": down_f}
                elif kind == "RSE2":
                    graded = {"case2_leader_down": down_l,
                              "case2_follower_up": up_f}
                else:
                    continue
                for name, ok in graded.items():
                    want[name][0] += int(ok)
                    want[name][1] += 1
        assert summary.orderings == {k: tuple(v) for k, v in want.items()}

    def test_shut_off_follower_keeps_the_defined_d(self, tmp_path):
        # conftest.crushing_leader_spec as a sweep: the NSE follower sits on
        # its floor with utility 0, so only its d is blank
        config = small_config(
            utility={"kind": "priced",
                     "price": [1.1582898820818741, 1.0753219697830594]},
            noise=[[0.2372861429362748], [0.10526927519789873]],
            fixed_gains=[[[1.5011006808091636], [0.42908578190734237]],
                         [[0.3899625863678114], [0.8779172101190559]]],
            ensemble_size=1, eps_grid=(0.0, 0.02), delta_grid=(0.0, 0.02),
            out_dir=str(tmp_path))
        summary = run_experiment(config)
        rows = {r["kind"]: r for r in load_rows(summary.csv_path)}
        assert float(rows["NSE"]["w1"]) == 0.0
        assert rows["RSE1"]["d0"] != "" and rows["RSE1"]["d_social"] != ""
        assert rows["RSE1"]["d1"] == ""
        assert float(rows["RSE2"]["w1"]) == pytest.approx(0.1256, abs=1e-4)
        assert rows["RSE2"]["d1"] == ""
        assert summary.agreement["case1"] == (1, 1)

    def test_svgs_leave_undefined_d_out(self, tmp_path):
        # most of the default ensemble's instances shut a player off at the NSE
        config = ExperimentConfig(eps_grid=(0.0, 0.02, 0.05),
                                  delta_grid=(0.0, 0.02, 0.05), rng_seed=0,
                                  ensemble_size=10, format="csv+svg",
                                  out_dir=str(tmp_path))
        summary = run_experiment(config)
        names = [os.path.basename(p) for p in summary.svg_paths]
        assert "case1_d_vs_eps.svg" in names
        for path in summary.svg_paths:
            assert "nan" not in open(path).read().lower()

    def test_schema_version_checked(self, tmp_path):
        config = small_config(ensemble_size=1, out_dir=str(tmp_path))
        summary = run_experiment(config)
        lines = open(summary.csv_path).readlines()
        lines[1] = "# schema: rsgame-sweep v99\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        with pytest.raises(SchemaVersionError):
            load_rows(bad)

    def test_tampered_d_metric_detected(self, tmp_path):
        config = small_config(ensemble_size=1, out_dir=str(tmp_path))
        summary = run_experiment(config)
        lines = open(summary.csv_path).read().splitlines()
        header = lines[2].split(",")
        d0 = header.index("d0")
        for i in range(3, len(lines)):
            cells = lines[i].split(",")
            if cells[1] == "RSE1":
                cells[d0] = "0.5"
                lines[i] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_rows(bad)


def mc_config(scenario=None, **over):
    base = dict(
        n_players=2, n_dims=4, leaders=(0,),
        utility={"kind": "budgeted", "budget": [10.0, 10.0]},
        action_min=0.0, action_max=10.0, noise=0.01,
        channel_model="rayleigh", rng_seed=5, ensemble_size=24,
        eps_grid=(0.0, 0.5), delta_grid=(0.0,),
        scenario=ScenarioSpec(filter=scenario), restarts=2,
        out_dir="unused",
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestMonteCarlo:
    def test_zero_radius_is_a_point_mass(self):
        cdf = monte_carlo_cdf(mc_config(eps_grid=(0.0,)))
        assert cdf.positive_fraction == 0.0
        assert np.max(np.abs(cdf.values)) == 0.0
        assert cdf.fractions[-1] == 1.0

    def test_cdf_shape_invariants(self):
        cdf = monte_carlo_cdf(mc_config())
        assert np.all(np.diff(cdf.values) >= 0)
        assert np.all(np.diff(cdf.fractions) > 0)
        assert cdf.fractions[0] > 0
        assert cdf.fractions[-1] == pytest.approx(1.0)

    def test_chunk_size_does_not_change_the_cdf(self, monkeypatch):
        # with at most four restarts every start is deterministic, and the
        # engine works row by row: chunks of 5 give the one-call CDF
        whole = monte_carlo_cdf(mc_config())
        monkeypatch.setattr(montecarlo, "_CHUNK", 5)
        chunked = monte_carlo_cdf(mc_config())
        assert np.array_equal(chunked.values, whole.values)
        assert chunked.positive_fraction == whole.positive_fraction

    def test_one_instance_call_equals_its_row(self):
        # with the deterministic starts a row's ascent is its own: an
        # instance alone, through the engine or through `solve_nse`, gives
        # its row of the ensemble call bit for bit; follower floors and
        # ceilings put the follower's channels on the kernel's cubic pieces
        config = mc_config(ensemble_size=5)
        batch, gains = batch_from_config(config, 5)
        boxed = dataclasses.replace(
            batch.stacked, lo=np.array([np.zeros(4), np.full(4, 0.2)]),
            hi=np.array([np.full(4, 10.0), np.full(4, 4.0)]))
        for game in (batch.stacked, boxed):
            for eps in (0.0, 0.5):
                full = lockstep.leader_ascent(game, eps, restarts=4)
                for i in range(5):
                    one = lockstep.leader_ascent(game.select([i]), eps,
                                                 restarts=4)
                    for field in ("actions", "followers", "values",
                                  "start_values", "residuals"):
                        assert np.array_equal(getattr(one, field)[0],
                                              getattr(full, field)[i])
                    if game is boxed or eps > 0.0:
                        continue
                    nse = rs.solve_nse(config.to_spec(gains[i]), restarts=4)
                    assert np.array_equal(nse.profile.actions[0],
                                          full.actions[i])

    def test_channel_counts_grow_under_robustness_in_tendency(self):
        # the robust follower moves power from its best channels toward
        # weaker ones: at the best of 32 starts per instance it uses more
        # channels, and shares more with the leader, on more instances than
        # fewer (at 2 starts the ascent's local optima can tip either count)
        config = mc_config(ensemble_size=16, n_dims=6)
        batch, gains = batch_from_config(config, 16)
        eps = 1.0
        a0_n = leader_ascent_batch(batch, 0.0, seed=1, restarts=32)
        a1_n = follower_response_batch(batch, a0_n, 0.0)
        a0_r = leader_ascent_batch(batch, eps, seed=1, restarts=32)
        a1_r = follower_response_batch(batch, a0_r, eps)
        thr = rs.activity_threshold(10.0, 6)
        moves = {"follower": [], "common": []}
        for i in range(16):
            before = rs.overlap_stats(np.vstack([a0_n[i], a1_n[i]]), thr)
            after = rs.overlap_stats(np.vstack([a0_r[i], a1_r[i]]), thr)
            moves["follower"].append(after.sizes[1] - before.sizes[1])
            moves["common"].append(after.common_sizes[(0, 1)]
                                   - before.common_sizes[(0, 1)])
        for key, change in moves.items():
            change = np.array(change)
            assert (change > 0).sum() > (change < 0).sum(), key


class TestHeuristicProtocol:
    def test_strong_interferer_selected(self):
        spec = heuristic_protocol_spec(strong_leader=0, seed=3)
        selection = heuristic_leader_selection(spec, 0.05)
        assert not selection.no_eligible_leader
        assert selection.selected == 0

    def test_second_candidate_reachable(self):
        spec = heuristic_protocol_spec(strong_leader=1, seed=3)
        selection = heuristic_leader_selection(spec, 0.05)
        assert not selection.no_eligible_leader
        assert selection.selected == 1
        assert selection.reports[0].candidate == 0
        assert not selection.reports[0].eligible

    def test_no_eligible_leader_outcome(self):
        rng = np.random.default_rng(9)
        cross = rng.uniform(0.005, 0.02, size=(3, 3, 2))
        spec = rs.make_spec(direct=rng.uniform(0.8, 1.6, size=(3, 2)),
                            cross=cross, noise=0.5, leaders=(0, 1),
                            action_min=0.0, action_max=4.0,
                            budget=[4.0, 4.0, 4.0])
        selection = heuristic_leader_selection(spec, 0.05)
        assert selection.no_eligible_leader
        assert len(selection.reports) == 2

    def test_run_plan_direction(self):
        spec = heuristic_protocol_spec(strong_leader=0, seed=7)
        selection = heuristic_leader_selection(spec, 0.3)
        assert not selection.no_eligible_leader
        demoted, nse, rse2 = selection.run_plan(spec)
        cert = rs.uniqueness_certificate(demoted)
        assert cert.is_p_matrix
        others = [n for n in range(3) if n != selection.selected]
        before = sum(nse.utilities[n] for n in others)
        after = sum(rse2.utilities[n] for n in others)
        assert after > before


def two_leaders_one_follower_spec():
    """Two priced leaders and one follower, K = 1, moderate coupling."""
    rng = np.random.default_rng(15)
    cross = rng.uniform(0.05, 0.3, size=(3, 3, 1))
    return rs.make_spec(direct=rng.uniform(0.8, 1.5, size=(3, 1)),
                        cross=cross, noise=0.2, leaders=(0, 1),
                        action_max=6.0, price=[0.6, 0.7, 0.5])


KINK = dict(direct=[[0.8], [0.99], [1.8]],
            cross=[[[0.0], [0.97], [1.46]], [[1.39], [0.0], [1.06]],
                   [[0.29], [0.94], [0.0]]],
            noise=0.11, price=[0.43, 0.57, 0.36])


def kink_spec():
    """Two leaders, one follower, K = 1: the leaders gain most by crushing
    the follower, across a kink of its reaction."""
    return rs.make_spec(**KINK, leaders=(0, 1), action_max=6.0)


class TestCooperativeLeaders:
    def test_single_leader_degenerates_to_nse(self, e1_spec):
        res = cooperative_leaders_nse(e1_spec, restarts=1)
        nse = rs.solve_nse(e1_spec)
        assert np.array_equal(res.profile.actions, nse.profile.actions)

    def test_crushing_the_follower_beats_the_grid(self):
        res = cooperative_leaders_nse(kink_spec(), restarts=1)
        _, _, grid = two_leaders_grid_max(**KINK, a_max=6.0, n_points=1201)
        assert grid > 0.9
        social = res.utilities[:2].sum()
        assert social >= grid - 1e-9
        assert res.diagnostics.notes["leaders_social"] == pytest.approx(
            social, abs=1e-12)
        assert res.profile.actions[2, 0] == 0.0  # on its floor

    def test_budgeted_leaders_are_rejected(self):
        spec = rs.make_spec(direct=np.ones((3, 1)), cross=np.zeros((3, 3, 1)),
                            noise=0.1, leaders=(0, 1), action_max=5.0,
                            budget=[5.0, 5.0, 5.0])
        with pytest.raises(InvalidSpecError):
            cooperative_leaders_nse(spec, restarts=1)

    def test_decoupled_leaders_get_their_own_optima(self):
        cross = np.zeros((3, 3, 1))
        spec = rs.make_spec(direct=np.ones((3, 1)), cross=cross, noise=0.1,
                            leaders=(0, 1), action_max=5.0,
                            price=[0.8, 0.5, 0.5])
        res = cooperative_leaders_nse(spec, restarts=1)
        assert res.profile.actions[0, 0] == pytest.approx(1.25 - 0.1, abs=1e-6)
        assert res.profile.actions[1, 0] == pytest.approx(2.0 - 0.1, abs=1e-6)

    def test_follower_uncertainty_raises_leaders_social(self):
        spec = two_leaders_one_follower_spec()
        base = cooperative_leaders_nse(spec, eps=0.0, restarts=2)
        robust = cooperative_leaders_nse(spec, eps=0.08, restarts=2)
        social = lambda res: sum(res.utilities[n] for n in (0, 1))
        assert social(robust) >= social(base) - 1e-9

    def test_diagnostics_report_the_followers_residual_and_the_sweeps(self):
        two = random_priced_multi_follower(np.random.default_rng(3))
        for spec, eps in ((two_leaders_one_follower_spec(), 0.08), (two, 0.0)):
            res = cooperative_leaders_nse(spec, eps=eps, restarts=2)
            diag = res.diagnostics
            assert np.isfinite(diag.residual) and diag.residual < 1e-10
            assert diag.notes["certified_ascent"]
            assert 1 <= diag.iterations < equilibria._LEADER_SWEEPS
            actions = res.profile.actions
            for n in spec.followers:
                br = rs.follower_best_response(spec, n, actions, eps)
                assert np.max(np.abs(br - actions[n])) < 1e-10
