"""Condition checks, regime labels, d-metrics, and the ordering report."""

import numpy as np
import pytest

import rsgame as rs
from rsgame import analysis
from rsgame.errors import InvalidSpecError, IterationLimitError

from conftest import (build_e1_spec, crushing_leader_spec,
                      random_priced_two_player)
from oracles import central_diff


class TestCheckConditions:
    def test_worked_negative_impact_enters_c1(self, e1_spec):
        profile = np.array([[1.0], [1.0]])
        res = rs.followers_nash(e1_spec, profile)  # any state works; use raw
        report = analysis.check_conditions(e1_spec, profile)
        c10 = rs.negative_impact(e1_spec, profile, on=1, by=0)
        b0 = rs.derivatives(e1_spec, 0, profile[0],
                            rs.aggregate_impact(e1_spec, profile, 0))
        assert abs(c10[0]) == pytest.approx(0.5 / 0.96, abs=1e-9)
        assert report.c1[0] == (abs(c10[0]) < abs(b0.grad_a[0]))

    def test_c1_c3_complementary(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            spec = random_priced_two_player(rng)
            profile = rng.uniform(0.05, 2.0, size=(2, 1))
            report = analysis.check_conditions(spec, profile)
            assert np.all(report.c1 ^ report.c3)
            assert np.all(report.c2 ^ report.c4)

    def test_decoupled_game(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                            noise=0.1, leaders=(0,), action_max=5.0,
                            price=[0.8, 0.5])
        profile = np.array([[1.0], [1.0]])
        report = analysis.check_conditions(spec, profile)
        # zero negative impacts: C1 holds trivially, C2 cannot
        assert report.all_k["c1"]
        assert not report.all_k["c2"]

    def test_single_follower_sums_reduce_to_pairwise(self, e1_spec):
        profile = np.array([[0.7], [1.2]])
        report = analysis.check_conditions(e1_spec, profile)
        assert report.all_k["c5"] == (not report.all_k["c7"])
        assert np.array_equal(report.c5, ~report.c7)
        assert np.array_equal(report.c6[0], report.c2)
        assert np.array_equal(report.c8[0], report.c4)

    def test_multi_follower_sums_against_direct_evaluation(self):
        rng = np.random.default_rng(52)
        cross = rng.uniform(0.05, 0.4, size=(3, 3, 2))
        spec = rs.make_spec(direct=rng.uniform(0.5, 2.0, size=(3, 2)),
                            cross=cross, noise=0.2, leaders=(0,),
                            action_max=5.0, price=[0.5, 0.6, 0.7])
        profile = rng.uniform(0.1, 2.0, size=(3, 2))
        report = analysis.check_conditions(spec, profile)
        impacts = rs.all_impacts(spec, profile)
        b0 = rs.derivatives(spec, 0, profile[0], impacts[0])
        lhs = np.abs(b0.grad_a)
        rhs = sum(np.abs(rs.negative_impact(spec, profile, on=n, by=0))
                  for n in (1, 2))
        assert np.array_equal(report.c5, lhs > rhs)
        b1 = rs.derivatives(spec, 1, profile[1], impacts[1])
        out1 = (np.abs(rs.negative_impact(spec, profile, on=0, by=1))
                + np.abs(rs.negative_impact(spec, profile, on=2, by=1)))
        assert np.array_equal(report.c6[0], np.abs(b1.grad_a) < out1)


class TestClassifyRegime:
    def test_high_sinr_labels_r1(self):
        spec = rs.make_spec(direct=[[50.0], [40.0]],
                            cross=[[0.0, 0.2], [0.3, 0.0]], noise=0.1,
                            leaders=(0,), action_max=10.0, price=[0.5, 0.5])
        profile = np.array([[1.0], [1.0]])
        report = analysis.classify_regime(spec, profile)
        assert report.labels == ("R1",)
        assert report.case1_test[0] == (0.3 < 0.2)
        assert report.case2_test[0] == (0.3 > 0.2)

    def test_low_sinr_labels_r2(self):
        spec = rs.make_spec(direct=[[0.01], [0.01]],
                            cross=[[0.0, 0.4], [0.3, 0.0]], noise=1.0,
                            leaders=(0,), action_max=10.0, price=[0.5, 0.5])
        profile = np.array([[1.0], [1.0]])
        report = analysis.classify_regime(spec, profile)
        assert report.labels == ("R2",)
        assert report.case1_test[0] == (0.01 > 0.4 and 0.01 < 0.3)
        assert report.case2_test[0] == (0.01 < 0.4 and 0.01 > 0.3)

    def test_equal_impacts_label_r3(self):
        spec = rs.make_spec(direct=[[2.0], [1.5]],
                            cross=[[0.0, 0.5], [0.5, 0.0]], noise=0.1,
                            leaders=(0,), action_max=10.0, price=[0.5, 0.5])
        profile = np.array([[1.0], [1.0]])  # symmetric cross: f0 == f1
        report = analysis.classify_regime(spec, profile)
        assert report.labels == ("R3",)
        assert report.case1_test[0] == (2.0 * 0.5 > 1.5 * 0.5)

    def test_mixed_when_nothing_applies(self):
        spec = rs.make_spec(direct=[[30.0], [0.05]],
                            cross=[[0.0, 0.1], [4.0, 0.0]], noise=0.1,
                            leaders=(0,), action_max=10.0, price=[0.5, 0.5])
        profile = np.array([[1.0], [1.0]])
        report = analysis.classify_regime(spec, profile)
        assert report.labels == ("Mixed",)
        assert report.case1_test[0] is None


class TestDeltaMetrics:
    def test_worked_instance_values(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        rse1 = rs.solve_rse1(e1_spec, 0.1)
        rse2 = rs.solve_rse2(e1_spec, 0.0, 0.1)
        d1 = analysis.delta_metrics(nse, rse1)
        d2 = analysis.delta_metrics(nse, rse2)
        assert d1.per_player[0] == pytest.approx(0.71, abs=0.05)
        assert d1.per_player[1] == pytest.approx(-0.205, abs=0.01)
        assert d2.per_player[1] == pytest.approx(0.17, abs=0.01)

    def test_identical_inputs_give_zero(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        d = analysis.delta_metrics(nse, nse)
        assert d.per_player == pytest.approx([0.0, 0.0], abs=0.0)
        assert d.social == 0.0

    def test_recomputation_is_exact(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        rse1 = rs.solve_rse1(e1_spec, 0.05)
        d = analysis.delta_metrics(nse, rse1)
        manual = (rse1.utilities - nse.utilities) / nse.utilities
        assert np.max(np.abs(d.per_player - manual)) <= 1e-12

    def test_zero_baseline_blanks_only_its_own_d(self, e1_spec):
        nse = rs.solve_nse(e1_spec)

        def result(kind, utilities):
            return rs.equilibria.EquilibriumResult(
                kind=kind, profile=nse.profile, utilities=np.array(utilities),
                social=float(sum(utilities)), diagnostics=nse.diagnostics)

        d = analysis.delta_metrics(result("NSE", [0.0, 2.0]),
                                   result("RSE1", [0.5, 1.0]))
        assert np.isnan(d.per_player[0])
        assert d.per_player[1] == (1.0 - 2.0) / 2.0
        assert d.social == (1.5 - 2.0) / 2.0
        # only a zero social baseline blanks the social d
        d = analysis.delta_metrics(result("NSE", [0.0, 0.0]),
                                   result("RSE1", [0.5, 1.0]))
        assert np.isnan(d.per_player).all() and np.isnan(d.social)


def low_sinr_c1_violating_spec():
    """Leader pinned at its cap, strong leader-on-follower gain, heavy noise.

    At this state the low-SINR label holds, the simplified gain test and C1
    both fail, and robustness lowers the social utility.
    """
    h11 = 0.7
    f1_at_cap = 10.0 + 2.5 * 1.0
    c1 = h11 / (f1_at_cap + h11 * 1.0)
    return rs.make_spec(direct=[[0.02], [h11]],
                        cross=[[0.0, 0.05], [2.5, 0.0]], noise=10.0,
                        leaders=(0,), action_max=[[1.0], [30.0]],
                        price=[0.0005, c1])


class TestOrderingReport:
    def test_worked_instance_all_orderings_pass(self, e1_spec):
        report = analysis.ordering_report(e1_spec, [0.0, 0.05, 0.1],
                                          [0.0, 0.05, 0.1])
        assert report.all_orderings_hold
        assert report.prop3_ok
        assert report.case1_matched and report.case2_matched

    def test_decoupled_game_holds_with_equality(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                            noise=0.1, leaders=(0,), action_max=5.0,
                            price=[0.8, 0.5])
        report = analysis.ordering_report(spec, [0.0, 0.1], [0.0, 0.1])
        assert report.all_orderings_hold
        row = report.case1[0]
        assert row.result.utilities[0] == pytest.approx(
            report.nse.utilities[0], abs=1e-9)

    def test_constructed_violation_is_predicted_and_observed(self):
        spec = low_sinr_c1_violating_spec()
        nse = rs.solve_nse(spec)
        regime = analysis.classify_regime(spec, nse.profile)
        conds = analysis.check_conditions(spec, nse)
        assert regime.labels == ("R2",)
        assert regime.case1_test[0] is False    # simplified gain test fails
        assert not conds.all_k["c1"]            # full condition fails too
        rse1 = rs.solve_rse1(spec, 0.05)
        d = analysis.delta_metrics(nse, rse1)
        assert d.social <= 0.0

    def test_programming_error_propagates(self, e1_spec, monkeypatch):
        def broken(spec, eps, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr(rs.equilibria, "solve_rse1", broken)
        with pytest.raises(TypeError, match="planted"):
            analysis.ordering_report(e1_spec, [0.0, 0.05], [0.0])

    def test_grids_must_start_at_zero(self, e1_spec):
        for eps_grid, delta_grid in (([0.05], [0.0]),
                                     ([0.0, 0.1, 0.05], [0.0]),
                                     ([0.0], [0.0, 0.1, 0.05])):
            with pytest.raises(InvalidSpecError, match="ascending"):
                analysis.ordering_report(e1_spec, eps_grid, delta_grid)

    def test_shut_off_follower_keeps_its_rows(self):
        # the NSE follower sits on its floor with utility 0: the rows keep
        # their results and verdicts, and only the follower's d is undefined
        report = analysis.ordering_report(crushing_leader_spec(), [0.0, 0.02],
                                          [0.0, 0.02])
        assert report.nse.utilities[1] == 0.0
        for row in report.case1 + report.case2:
            assert row.error is None and row.result is not None
            assert np.isnan(row.d.per_player[1])
            assert np.isfinite(row.d.per_player[0]) and np.isfinite(row.d.social)
            assert row.leader_ok and row.follower_ok
        # the leader gains 0.44953 against 0.41634; the follower stays off, so
        # the social d is the leader's
        d = report.case1[0].d
        assert d.per_player[0] == pytest.approx(0.0797, abs=1e-4)
        assert d.social == pytest.approx(d.per_player[0], rel=1e-12)
        # C1 and C2 hold, and the case-1 prediction is graded on d_social;
        # C3 and C4 do not, so case 2 makes no claim
        assert report.case1_predicted and report.case1[0].matched is True
        assert not report.case2_predicted and report.case2[0].matched is None
        assert report.case1_matched and report.case2_matched
        assert report.all_orderings_hold

    def test_one_rse1_solve_per_radius(self, e1_spec, monkeypatch):
        radii = []
        solve = rs.equilibria.solve_rse1

        def counted(spec, eps, **kwargs):
            radii.append(eps)
            return solve(spec, eps, **kwargs)

        monkeypatch.setattr(rs.equilibria, "solve_rse1", counted)
        report = analysis.ordering_report(e1_spec, [0.0, 0.05, 0.1],
                                          [0.0, 0.05, 0.1])
        assert radii == [0.05, 0.1]
        assert report.prop3_ok

    def test_inconclusive_first_row_makes_no_prop3_claim(self, e1_spec,
                                                          monkeypatch):
        def failing(spec, eps, **kwargs):
            raise IterationLimitError("planted")

        monkeypatch.setattr(rs.equilibria, "solve_rse1", failing)
        report = analysis.ordering_report(e1_spec, [0.0, 0.05], [0.0, 0.05])
        assert report.case1[0].error.startswith("IterationLimitError")
        assert report.prop3_ok
        assert report.case1_matched
