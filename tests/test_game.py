"""Core domain machinery: impacts, utilities, derivative bundles."""

import numpy as np
import pytest

import rsgame as rs
from rsgame.errors import InvalidSpecError, SingularImpactError

from conftest import build_e1_spec, random_state
from oracles import central_diff, log_utility_scalar, summation_impact


def two_player_spec(x10=0.5, sigma=0.1):
    return rs.make_spec(direct=[[1.0], [1.0]],
                        cross=[[0.0, 0.5], [x10, 0.0]],
                        noise=sigma, leaders=(0,), action_min=0.0,
                        action_max=5.0, price=[0.8, 0.5])


class TestAggregateImpact:
    def test_two_player_direct_evaluation(self):
        spec = two_player_spec()
        profile = np.array([[1.0], [0.3]])
        f1 = rs.aggregate_impact(spec, profile, 1)
        oracle = summation_impact(profile, spec.cross_gain[1], spec.noise[1], 1)
        assert f1 == pytest.approx([0.6])
        assert f1 == pytest.approx(oracle)

    def test_silent_others_leave_noise_floor(self):
        spec = two_player_spec()
        f1 = rs.aggregate_impact(spec, np.zeros((2, 1)), 1)
        assert f1 == pytest.approx(spec.noise[1])

    def test_three_player_two_dims(self):
        cross = np.zeros((3, 3, 2))
        cross[0, 1] = cross[0, 2] = 1.0
        spec = rs.make_spec(direct=np.ones((3, 2)), cross=cross, noise=0.1,
                            leaders=(0,), action_max=5.0, price=[0.5] * 3)
        profile = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        f0 = rs.aggregate_impact(spec, profile, 0)
        oracle = summation_impact(profile, spec.cross_gain[0], spec.noise[0], 0)
        assert f0 == pytest.approx([1.1, 2.1])
        assert f0 == pytest.approx(oracle)

    def test_index_out_of_range(self):
        spec = two_player_spec()
        with pytest.raises(IndexError):
            rs.aggregate_impact(spec, np.zeros((2, 1)), 7)


class TestUtility:
    def test_log_throughput_scalar(self):
        spec = two_player_spec()
        v = rs.utility(spec, 1, np.array([1.0]), np.array([0.6]))
        oracle = log_utility_scalar(1.0, 1.0, 0.6, 0.5)
        assert v == pytest.approx(oracle, abs=1e-12)
        # with the price stripped, the classic log(1 + 1/0.6)
        assert v + 0.5 == pytest.approx(0.980829, abs=1e-6)

    def test_zero_action_zero_utility(self):
        spec = two_player_spec()
        assert rs.utility(spec, 1, np.array([0.0]), np.array([0.6])) == 0.0

    def test_priced_term_subtracts(self):
        spec = two_player_spec()
        v = rs.utility(spec, 1, np.array([1.0]), np.array([0.6]))
        assert v == pytest.approx(0.980829 - 0.5, abs=1e-6)

    def test_singular_impact_rejected(self):
        spec = two_player_spec()
        for bad in (0.0, -0.5, 1e-13):
            with pytest.raises(SingularImpactError):
                rs.utility(spec, 1, np.array([1.0]), np.array([bad]))

    def test_separability_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec, a, f = random_state(rng, k=4)
            total = rs.utility(spec, 0, a, f)
            # evaluate every dimension in its own one-dimension game
            parts = []
            for k in range(4):
                sub = rs.make_spec(direct=[[spec.direct_gain(0)[k]]],
                                   cross=np.zeros((1, 1, 1)), noise=0.05,
                                   leaders=(), action_min=0.0, action_max=10.0,
                                   price=[spec.price(0)])
                parts.append(rs.utility(sub, 0, a[k:k + 1], f[k:k + 1]))
            assert total == sum(parts)

    def test_monotone_decreasing_in_each_impact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            spec, a, f = random_state(rng, k=3)
            a = np.maximum(a, 0.1)  # strict monotonicity needs a > 0
            k = rng.integers(3)
            bumped = f.copy()
            bumped[k] += rng.uniform(0.01, 1.0)
            assert rs.utility(spec, 0, a, bumped) < rs.utility(spec, 0, a, f)


class TestDerivatives:
    def test_grad_a_worked_value(self):
        spec = two_player_spec()
        b = rs.derivatives(spec, 1, np.array([1.0]), np.array([0.6]))
        assert b.grad_a == pytest.approx([1.0 / 1.6 - 0.5])
        fd = central_diff(
            lambda a: rs.utility(spec, 1, np.array([a]), np.array([0.6])), 1.0)
        assert b.grad_a[0] == pytest.approx(fd, abs=1e-8)
        assert b.grad_a[0] + 0.5 == pytest.approx(0.625)

    def test_grad_f_vanishes_at_zero_action(self):
        spec = two_player_spec()
        b = rs.derivatives(spec, 1, np.array([0.0]), np.array([0.6]))
        assert b.grad_f == pytest.approx([0.0])

    def test_hess_aa_worked_value(self):
        spec = two_player_spec()
        b = rs.derivatives(spec, 1, np.array([1.0]), np.array([0.6]))
        assert b.hess_aa[0] == pytest.approx(-1.0 / 2.56)
        fd = central_diff(
            lambda a: rs.derivatives(spec, 1, np.array([a]),
                                     np.array([0.6])).grad_a[0], 1.0)
        assert b.hess_aa[0] == pytest.approx(fd, abs=1e-8)

    def test_finite_difference_agreement_on_random_states(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            spec, a, f = random_state(rng, k)
            a = np.maximum(a, 1e-3)
            b = rs.derivatives(spec, 0, a, f)
            dim = int(rng.integers(k))

            def u_of_a(t):
                at = a.copy(); at[dim] = t
                return rs.utility(spec, 0, at, f)

            def u_of_f(t):
                ft = f.copy(); ft[dim] = t
                return rs.utility(spec, 0, a, ft)

            def ga_of_f(t):
                ft = f.copy(); ft[dim] = t
                return rs.derivatives(spec, 0, a, ft).grad_a[dim]

            def gf_of_f(t):
                ft = f.copy(); ft[dim] = t
                return rs.derivatives(spec, 0, a, ft).grad_f[dim]

            pairs = [
                (b.grad_a[dim], central_diff(u_of_a, a[dim])),
                (b.grad_f[dim], central_diff(u_of_f, f[dim])),
                (b.hess_aa[dim], central_diff(
                    lambda t: rs.derivatives(
                        spec, 0, np.where(np.arange(k) == dim, t, a), f
                    ).grad_a[dim], a[dim])),
                (b.hess_af[dim], central_diff(ga_of_f, f[dim])),
                (b.hess_ff[dim], central_diff(gf_of_f, f[dim])),
            ]
            for analytic, fd in pairs:
                rel = abs(analytic - fd) / max(abs(analytic), 1e-3)
                worst = max(worst, rel)
        assert worst < 1e-6

    def test_sign_structure_on_random_states(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            spec, a, f = random_state(rng, k)
            b = rs.derivatives(spec, 0, a, f)
            c = spec.price(0)
            assert np.all(b.grad_f <= 0)
            assert np.all(b.grad_a + c >= -1e-15)
            assert np.all(b.hess_aa < 0)   # all direct gains positive here
            assert np.all(b.hess_ff >= 0)


class TestNegativeImpact:
    def test_worked_value_and_finite_difference(self):
        spec = two_player_spec()
        profile = np.array([[1.0], [1.0]])
        c10 = rs.negative_impact(spec, profile, on=1, by=0)
        assert c10[0] == pytest.approx(-0.5 / 0.96, abs=1e-12)

        def v1_of_a0(t):
            prof = profile.copy(); prof[0, 0] = t
            f1 = rs.aggregate_impact(spec, prof, 1)
            return rs.utility(spec, 1, prof[1], f1)

        assert c10[0] == pytest.approx(central_diff(v1_of_a0, 1.0), abs=1e-8)

    def test_zero_action_zero_impact(self):
        spec = two_player_spec()
        profile = np.array([[1.0], [0.0]])
        assert rs.negative_impact(spec, profile, on=1, by=0) == pytest.approx([0.0])

    def test_decoupled_players(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]],
                            cross=np.zeros((2, 2, 1)), noise=0.1,
                            leaders=(0,), action_max=5.0, price=[0.8, 0.5])
        profile = np.array([[1.0], [1.0]])
        assert rs.negative_impact(spec, profile, on=1, by=0) == pytest.approx([0.0])

    def test_self_pair_rejected(self):
        spec = two_player_spec()
        with pytest.raises(ValueError):
            rs.negative_impact(spec, np.ones((2, 1)), on=1, by=1)


class TestSpecValidation:
    def test_partition_must_cover_players(self):
        with pytest.raises(InvalidSpecError):
            rs.GameSpec(n_players=2, n_dims=1, leaders=(0,), followers=(),
                        action_min=np.zeros((2, 1)), action_max=np.ones((2, 1)),
                        cross_gain=np.ones((2, 2, 1)), noise=np.ones((2, 1)),
                        utility_model=rs.PricedThroughput(price=np.zeros(2)))

    def test_requires_positive_noise(self):
        with pytest.raises(InvalidSpecError):
            rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                         noise=0.0, leaders=(0,), price=[0.5, 0.5],
                         action_max=1.0)

    def test_rejects_negative_gains(self):
        cross = np.zeros((2, 2, 1)); cross[0, 1] = -0.1
        with pytest.raises(InvalidSpecError):
            rs.make_spec(direct=[[1.0], [1.0]], cross=cross, noise=0.1,
                         leaders=(0,), price=[0.5, 0.5], action_max=1.0)

    def test_rejects_crossed_bounds(self):
        with pytest.raises(InvalidSpecError):
            rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                         noise=0.1, leaders=(0,), price=[0.5, 0.5],
                         action_min=2.0, action_max=1.0)

    def test_profile_validation(self):
        spec = build_e1_spec()
        rs.ActionProfile(np.array([[0.5], [1.0]])).validate(spec)
        with pytest.raises(InvalidSpecError):
            rs.ActionProfile(np.array([[2.0], [1.0]])).validate(spec)
