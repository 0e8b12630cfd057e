"""Channel generation, config parsing, experiment pipeline, protocols."""

import dataclasses
import json
import os

import numpy as np
import pytest

import rsgame as rs
from rsgame.errors import ConfigError, IterationLimitError, SchemaVersionError
from rsgame.harness import (ExperimentConfig, ScenarioSpec, batch_from_config,
                            channels, cooperative_leaders_nse,
                            demote_to_single_leader, generate_channels,
                            heuristic_leader_selection, load_rows,
                            monte_carlo_cdf, run_experiment, solve_instance)
from rsgame.harness.montecarlo import leader_ascent_batch, follower_response_batch

from ensembles import heuristic_protocol_spec


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

    def test_threshold_range_enforced(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(filter="s1", high=1.5)


class TestRunExperiment:
    def test_minimal_run_contains_only_nse(self, tmp_path):
        config = small_config(ensemble_size=1, eps_grid=(0.0,),
                              delta_grid=(0.0,), out_dir=str(tmp_path))
        summary = run_experiment(config, quiet=True)
        rows = load_rows(summary.csv_path)
        assert [r["kind"] for r in rows] == ["NSE"]

    def test_one_player_sweep_completes(self, tmp_path):
        config = small_config(n_players=1, utility={"kind": "priced",
                                                    "price": [0.8]},
                              out_dir=str(tmp_path), format="csv+svg")
        summary = run_experiment(config, quiet=True)
        assert summary.excluded == 0 and len(summary.records) == 2
        rows = load_rows(summary.csv_path)
        assert sorted({r["kind"] for r in rows}) == ["NSE", "RSE1", "RSE2"]

    def test_rerun_identical_apart_from_timestamp(self, tmp_path):
        config = small_config(out_dir=str(tmp_path / "a"))
        s1 = run_experiment(config, quiet=True)
        config2 = dataclasses.replace(config, out_dir=str(tmp_path / "b"))
        s2 = run_experiment(config2, quiet=True)
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
        summary = run_experiment(config, quiet=True)
        rows = {r["kind"]: r for r in load_rows(summary.csv_path)}
        assert float(rows["NSE"]["a0_0"]) == pytest.approx(0.4835, abs=1e-3)
        assert float(rows["NSE"]["w0"]) == pytest.approx(0.0322, abs=1e-3)
        assert float(rows["RSE1"]["w1"]) == pytest.approx(0.7448, abs=1e-3)
        assert float(rows["RSE2"]["w1"]) == pytest.approx(1.0944, abs=1e-3)

    def test_svg_outputs(self, tmp_path):
        gains = [[[1.0], [0.5]], [[0.5], [1.0]]]
        config = small_config(format="csv+svg", out_dir=str(tmp_path),
                              fixed_gains=gains, ensemble_size=1,
                              action_max=[[1.0], [2.0]])
        summary = run_experiment(config, quiet=True)
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
        summary = run_experiment(config, quiet=True)
        assert summary.excluded == 1 and len(summary.records) == 19

        def broken(spec, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr(rs.equilibria, "solve_nse", broken)
        with pytest.raises(TypeError, match="planted"):
            run_experiment(config, quiet=True)

    def test_orderings_graded_for_the_configured_leader(self, tmp_path):
        # the worked instance with the players' roles swapped: player 1 leads
        config = small_config(
            leaders=(1,), utility={"kind": "priced", "price": [0.5, 0.8]},
            fixed_gains=[[[1.0], [0.5]], [[0.5], [1.0]]], ensemble_size=1,
            action_max=[[2.0], [1.0]], eps_grid=(0.0, 0.05, 0.1),
            delta_grid=(0.0, 0.05, 0.1), out_dir=str(tmp_path))
        summary = run_experiment(config, quiet=True)
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

    def test_schema_version_checked(self, tmp_path):
        config = small_config(ensemble_size=1, out_dir=str(tmp_path))
        summary = run_experiment(config, quiet=True)
        lines = open(summary.csv_path).readlines()
        lines[1] = "# schema: rsgame-sweep v99\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        with pytest.raises(SchemaVersionError):
            load_rows(bad)

    def test_tampered_d_metric_detected(self, tmp_path):
        config = small_config(ensemble_size=1, out_dir=str(tmp_path))
        summary = run_experiment(config, quiet=True)
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
        cdf = monte_carlo_cdf(mc_config(), eps=0.0)
        assert cdf.positive_fraction == 0.0
        assert np.max(np.abs(cdf.values)) == 0.0
        assert cdf.fractions[-1] == 1.0

    def test_cdf_shape_invariants(self):
        cdf = monte_carlo_cdf(mc_config())
        assert np.all(np.diff(cdf.values) >= 0)
        assert np.all(np.diff(cdf.fractions) > 0)
        assert cdf.fractions[0] > 0
        assert cdf.fractions[-1] == pytest.approx(1.0)

    def test_batched_leader_matches_generic_solver(self):
        config = mc_config(ensemble_size=3)
        batch, gains = batch_from_config(config, 3)
        a0 = leader_ascent_batch(batch, 0.0, seed=config.rng_seed, restarts=2)
        for i in range(3):
            spec = config.to_spec(gains[i])
            nse = rs.solve_nse(spec, restarts=2)
            mine = float(np.log1p(
                batch.h00[i] * a0[i]
                / (batch.sigma0[i] + batch.h01[i]
                   * follower_response_batch(batch, a0, 0.0)[i])).sum())
            assert mine == pytest.approx(nse.utilities[0], rel=1e-6)

    def test_overlap_shrinks_under_robustness_in_tendency(self):
        config = mc_config(ensemble_size=16, n_dims=6)
        batch, gains = batch_from_config(config, 16)
        eps = 1.0
        a0_n = leader_ascent_batch(batch, 0.0, seed=1, restarts=2)
        a1_n = follower_response_batch(batch, a0_n, 0.0)
        a0_r = leader_ascent_batch(batch, eps, seed=1, restarts=2)
        a1_r = follower_response_batch(batch, a0_r, eps)
        thr = rs.activity_threshold(10.0, 6)
        shrank = grew = 0
        for i in range(16):
            before = rs.overlap_stats(np.vstack([a0_n[i], a1_n[i]]), thr)
            after = rs.overlap_stats(np.vstack([a0_r[i], a1_r[i]]), thr)
            if after.common_sizes[(0, 1)] < before.common_sizes[(0, 1)]:
                shrank += 1
            elif after.common_sizes[(0, 1)] > before.common_sizes[(0, 1)]:
                grew += 1
        assert shrank >= grew  # statistical tendency, not per instance





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
        cert = rs.uniqueness_certificate(demoted, samples=96, rng_seed=7)
        assert cert.is_p_matrix
        others = [n for n in range(3) if n != selection.selected]
        before = sum(nse.utilities[n] for n in others)
        after = sum(rse2.utilities[n] for n in others)
        assert after > before


class TestCooperativeLeaders:
    def test_single_leader_degenerates_to_nse(self, e1_spec):
        res = cooperative_leaders_nse(e1_spec, restarts=1)
        nse = rs.solve_nse(e1_spec)
        assert res.profile.actions == pytest.approx(nse.profile.actions,
                                                    abs=1e-6)

    def test_decoupled_leaders_get_their_own_optima(self):
        cross = np.zeros((3, 3, 1))
        spec = rs.make_spec(direct=np.ones((3, 1)), cross=cross, noise=0.1,
                            leaders=(0, 1), action_max=5.0,
                            price=[0.8, 0.5, 0.5])
        res = cooperative_leaders_nse(spec, restarts=1)
        assert res.profile.actions[0, 0] == pytest.approx(1.25 - 0.1, abs=1e-6)
        assert res.profile.actions[1, 0] == pytest.approx(2.0 - 0.1, abs=1e-6)

    def test_follower_uncertainty_raises_leaders_social(self):
        rng = np.random.default_rng(15)
        cross = rng.uniform(0.05, 0.3, size=(3, 3, 1))
        spec = rs.make_spec(direct=rng.uniform(0.8, 1.5, size=(3, 1)),
                            cross=cross, noise=0.2, leaders=(0, 1),
                            action_max=6.0, price=[0.6, 0.7, 0.5])
        base = cooperative_leaders_nse(spec, eps=0.0, restarts=2)
        robust = cooperative_leaders_nse(spec, eps=0.08, restarts=2)
        social = lambda res: sum(res.utilities[n] for n in (0, 1))
        assert social(robust) >= social(base) - 1e-9
