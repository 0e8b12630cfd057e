"""Worst-case observations (exact KKT point vs oracles) and cross-gain shrink."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsgame as rs
from rsgame import robust
from rsgame.errors import InvalidSpecError, IterationLimitError

from conftest import random_state
from oracles import (brute_force_worst_observation,
                     worst_case_observation_oracle)


class TestDirectionVector:
    def test_normalizes_gradient(self):
        theta = rs.direction_vector(np.array([-0.4, -0.3]))
        assert theta == pytest.approx([-0.8, -0.6])
        assert np.linalg.norm(theta) == pytest.approx(1.0)

    def test_degenerate_gradient_gives_zero(self):
        assert rs.direction_vector(np.zeros(3)) == pytest.approx([0.0] * 3)

    def test_single_dimension(self):
        assert rs.direction_vector(np.array([-0.7])) == pytest.approx([-1.0])

    def test_accepts_bundles(self, e1_spec):
        b = rs.derivatives(e1_spec, 1, np.array([1.0]), np.array([0.6]))
        theta = rs.direction_vector(b)
        assert theta == pytest.approx([-1.0])


class TestWorstCaseObservation:
    def test_zero_radius_returns_nominal(self, e1_spec):
        wco = rs.worst_case_observation(e1_spec, 1, np.array([1.0]),
                                        np.array([0.6]), 0.0)
        assert wco.values == pytest.approx([0.6], abs=0.0)

    def test_single_dimension_adds_radius(self, e1_spec):
        wco = rs.worst_case_observation(e1_spec, 1, np.array([1.0]),
                                        np.array([0.6]), 0.1)
        assert wco.values == pytest.approx([0.7], abs=1e-10)
        # grid oracle over [f - eps, f + eps]
        grid = np.linspace(0.5, 0.7, 10_001)
        vals = np.log1p(1.0 * 1.0 / grid) - 0.5
        assert grid[int(np.argmin(vals))] == pytest.approx(0.7, abs=1e-4)

    def test_two_dimensions_against_ball_surface(self):
        spec = rs.make_spec(direct=[[1.0, 1.2]], cross=np.zeros((1, 1, 2)),
                            noise=0.05, leaders=(), action_max=10.0,
                            price=[0.5])
        a = np.array([1.0, 0.7])
        f = np.array([0.6, 0.5])
        eps = 0.1
        wco = rs.worst_case_observation(spec, 0, a, f, eps)
        rng = np.random.default_rng(11)
        pt, val = brute_force_worst_observation(
            lambda p: rs.utility(spec, 0, a, p), f, eps, 10_000, rng)
        assert rs.utility(spec, 0, a, wco.values) <= val + 1e-9
        assert wco.values == pytest.approx(pt, abs=1e-2)
        assert rs.utility(spec, 0, a, wco.values) == pytest.approx(val, abs=1e-4)

    def test_lemma_optimality_on_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(120):
            k = int(rng.integers(1, 4))
            spec, a, f = random_state(rng, k)
            a = np.maximum(a, 0.05)
            eps = float(rng.uniform(0.01, 0.2)) * float(np.min(f))
            wco = rs.worst_case_observation(spec, 0, a, f, eps)
            u_star = rs.utility(spec, 0, a, wco.values)
            samples = f[None, :] + eps * _ball(rng, 200, k)
            samples = np.maximum(samples, 1e-9)
            for s in samples:
                assert u_star <= rs.utility(spec, 0, a, s) + 1e-8

    def test_radius_constraint_active(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            spec, a, f = random_state(rng, k)
            a = np.maximum(a, 0.05)
            eps = 0.05
            wco = rs.worst_case_observation(spec, 0, a, f, eps)
            assert np.linalg.norm(wco.values - f) == pytest.approx(eps, abs=1e-8)
            assert np.all(wco.values >= f - 1e-12)
            res = rs.complementary_slackness_residual(spec, 0, a, f, eps, wco)
            assert res <= 1e-8

    def test_zero_action_degenerates(self, e1_spec):
        wco = rs.worst_case_observation(e1_spec, 1, np.array([0.0]),
                                        np.array([0.6]), 0.1)
        assert wco.values == pytest.approx([0.6])
        assert wco.direction == pytest.approx([0.0])

    def test_first_order_point_differs_at_second_order(self):
        spec = rs.make_spec(direct=[[1.0, 1.5]], cross=np.zeros((1, 1, 2)),
                            noise=0.05, leaders=(), action_max=10.0,
                            price=[0.5])
        a = np.array([1.0, 0.4])
        f = np.array([0.6, 0.9])
        # the direction taken at the nominal point
        theta = rs.direction_vector(rs.derivatives(spec, 0, a, f))
        gaps = []
        for eps in (0.2, 0.1):
            fixed = rs.worst_case_observation(spec, 0, a, f, eps)
            gaps.append(np.max(np.abs(fixed.values - (f - eps * theta))))
        assert gaps[0] > 0
        assert gaps[0] / gaps[1] > 3.0  # halving eps divides the gap by ~4

    def test_negative_radius_rejected(self, e1_spec):
        with pytest.raises(InvalidSpecError):
            rs.worst_case_observation(e1_spec, 1, np.array([1.0]),
                                      np.array([0.6]), -0.1)


class TestWorstCaseExactness:
    """The KKT point on states from K = 1 to 8, radii up to 1e4 times f."""

    def test_single_dimension_is_nominal_plus_radius(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            h, a = rng.uniform(0.2, 3.0), rng.uniform(1e-3, 3.0)
            f = rng.uniform(0.01, 3.0)
            eps = float(f * 10.0 ** rng.uniform(-2.0, 4.0))
            spec = _single_player_spec(np.array([h]))
            wco = rs.worst_case_observation(spec, 0, np.array([a]),
                                            np.array([f]), eps)
            assert wco.values[0] == f + eps
            assert wco.iterations == 1

    @given(st.data())
    def test_properties(self, data):
        k = data.draw(st.integers(1, 8))

        def column(elements):
            return np.array(data.draw(st.lists(elements, min_size=k,
                                               max_size=k)))

        h = column(st.one_of(st.just(0.0), _floats(0.2, 3.0)))
        a = column(st.one_of(st.just(0.0), _floats(0.0, 3.0)))
        f = column(_floats(0.01, 3.0))
        eps = float(f.min() * 10.0 ** data.draw(_floats(-2.0, 4.0)))
        # the oracle's bracket on mu overflows for a subnormal H*a, where
        # the gradient is degenerate and its values are not compared
        with np.errstate(over="ignore", invalid="ignore"):
            want = worst_case_observation_oracle(h, a, f, eps)
        _check_worst_case(h, a, f, eps, want)

    def test_seeded_stress(self):
        rng = np.random.default_rng(15)
        n, k_max = 2000, 8
        ks = rng.integers(1, k_max + 1, size=n)
        h = rng.uniform(0.2, 3.0, size=(n, k_max))
        h[rng.uniform(size=(n, k_max)) < 0.1] = 0.0
        a = rng.uniform(0.0, 3.0, size=(n, k_max))
        a[rng.uniform(size=(n, k_max)) < 0.15] = 0.0
        a[rng.uniform(size=n) < 0.02] = 0.0  # nothing at stake at all
        f = 10.0 ** rng.uniform(-2.0, 0.5, size=(n, k_max))
        # pad past each state's K with idle dimensions (h = 0, f = 1): they
        # carry no gradient, so the oracle's batch ignores them
        idle = np.arange(k_max)[None, :] >= ks[:, None]
        h[idle], f[idle] = 0.0, 1.0
        eps = np.array([f[i, :ks[i]].min() for i in range(n)]) \
            * 10.0 ** rng.uniform(-2.0, 4.0, size=n)
        want = worst_case_observation_oracle(h, a, f, eps)
        for i in range(n):
            k = ks[i]
            _check_worst_case(h[i, :k], a[i, :k], f[i, :k], float(eps[i]),
                              want[i, :k])

    def test_iteration_limit(self, monkeypatch):
        spec = _single_player_spec(np.array([1.0, 1.5]))
        a, f = np.array([1.0, 0.4]), np.array([0.6, 0.9])
        assert rs.worst_case_observation(spec, 0, a, f, 0.2).iterations > 1
        monkeypatch.setattr(robust, "_MAX_ITER", 1)
        with pytest.raises(IterationLimitError) as info:
            rs.worst_case_observation(spec, 0, a, f, 0.2)
        assert info.value.last_iterate.shape == (2,)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _single_player_spec(h):
    k = h.size
    return rs.make_spec(direct=h[None, :], cross=np.zeros((1, 1, k)),
                        noise=0.05, leaders=(), action_max=10.0, price=[0.5])


def _check_worst_case(h, a, f, eps, want):
    """The four checks of one state against the oracle's values `want`."""
    spec = _single_player_spec(h)
    wco = rs.worst_case_observation(spec, 0, a, f, eps)
    assert np.all(wco.values >= f)
    res = rs.complementary_slackness_residual(spec, 0, a, f, eps, wco)
    assert res <= 1e-8 * max(1.0, eps)
    if np.linalg.norm(rs.derivatives(spec, 0, a, f).grad_f) < 1e-14:
        # nothing at stake (documented threshold): no worst case
        assert np.array_equal(wco.values, f)
        assert not np.any(wco.direction)
        return
    assert np.linalg.norm(wco.values - f) == pytest.approx(eps, rel=1e-9)
    assert np.max(np.abs(wco.values - want)) <= 1e-9


def _ball(rng, n, k):
    """Uniform directions scaled by uniform radius (covers the interior too)."""
    d = rng.standard_normal((n, k))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / k)
    return d * r


class TestWorstCaseCrossGain:
    def test_zero_radius_identity(self, e1_spec):
        x = rs.worst_case_cross_gain(e1_spec, 1, 0, 0.0)
        assert x == pytest.approx([0.5])

    def test_uniform_shrink(self, e1_spec):
        assert rs.worst_case_cross_gain(e1_spec, 1, 0, 0.1) == pytest.approx([0.4])

    def test_clamped_at_zero(self, e1_spec):
        assert rs.worst_case_cross_gain(e1_spec, 1, 0, 0.8) == pytest.approx([0.0])

    def test_monotone_in_radius(self, e1_spec):
        prev = rs.worst_case_cross_gain(e1_spec, 1, 0, 0.0)
        for delta in (0.05, 0.1, 0.3, 0.6, 1.0):
            cur = rs.worst_case_cross_gain(e1_spec, 1, 0, delta)
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_k_scaling(self):
        spec = rs.make_spec(direct=np.ones((2, 4)),
                            cross=np.full((2, 2, 4), 0.5), noise=0.1,
                            leaders=(0,), action_max=5.0, price=[0.8, 0.5])
        x = rs.worst_case_cross_gain(spec, 1, 0, 0.1)
        assert x == pytest.approx([0.5 - 0.05] * 4)


class TestUncertaintySpec:
    def test_scalar_coercion(self, e1_spec):
        unc = rs.robust.coerce_uncertainty(e1_spec, eps=0.1, delta=0.2)
        assert unc.obs_radius == pytest.approx([0.0, 0.1])
        assert unc.info_radius[1, 0] == pytest.approx(0.2)
        assert unc.info_radius[0, 1] == 0.0

    def test_negative_radius_rejected(self, e1_spec):
        with pytest.raises(InvalidSpecError):
            rs.robust.coerce_uncertainty(e1_spec, eps=-0.1)

    def test_oversized_radius_flagged_not_rejected(self, e1_spec):
        unc = rs.robust.coerce_uncertainty(e1_spec, delta=0.8)
        flagged = rs.robust.oversized_info_radius(e1_spec, unc)
        assert flagged == [(1, 0)]
