"""Best responses, Nash iteration, bi-level solvers, closed form, certificate."""

import numpy as np
import pytest

import rsgame as rs
from rsgame.errors import (DegenerateModelError, InapplicableFormulaError,
                           InvalidSpecError, IterationLimitError)
from rsgame.equilibria import _BOUNDARY_EPS

from conftest import build_e1_spec, interior_instance, random_priced_two_player
from oracles import PricedTwoPlayer1D, e1_oracle, grid_argmax_vec


class TestFollowerBestResponse:
    def test_worked_instance_nominal(self, e1_spec):
        others = np.array([[1.0], [0.0]])
        a1 = rs.follower_best_response(e1_spec, 1, others, 0.0)
        assert a1 == pytest.approx([1.4], abs=1e-12)
        # scalar grid oracle over the box
        best, _ = grid_argmax_vec(
            lambda a: np.log1p(a / 0.6) - 0.5 * a, 0.0, 2.0, 100_001)
        assert a1[0] == pytest.approx(best, abs=1e-4)

    def test_worked_instance_robust(self, e1_spec):
        others = np.array([[1.0], [0.0]])
        a1 = rs.follower_best_response(e1_spec, 1, others, 0.1)
        assert a1 == pytest.approx([1.3], abs=1e-10)
        # grid oracle on the worst-case utility: inner min over the radius
        f_hat = np.linspace(0.5, 0.7, 401)

        def worst(a):
            return np.min(np.log1p(a / f_hat) - 0.5 * a)

        best, _ = grid_argmax_vec(np.vectorize(worst), 0.0, 2.0, 100_001)
        assert a1[0] == pytest.approx(best, abs=1e-4)

    def test_silent_others(self, e1_spec):
        a1 = rs.follower_best_response(e1_spec, 1, np.zeros((2, 1)), 0.0)
        assert a1 == pytest.approx([1.9], abs=1e-12)

    def test_leader_is_not_a_follower(self, e1_spec):
        with pytest.raises(InvalidSpecError):
            rs.follower_best_response(e1_spec, 0, np.zeros((2, 1)), 0.0)

    def test_zero_price_unbounded_box_degenerate(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                            noise=0.1, leaders=(0,), action_max=np.inf,
                            price=[0.0, 0.0])
        with pytest.raises(DegenerateModelError):
            rs.follower_best_response(spec, 1, np.zeros((2, 1)), 0.0)

    def test_zero_price_bounded_box_hits_ceiling(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                            noise=0.1, leaders=(0,), action_max=2.0,
                            price=[0.0, 0.0])
        a1 = rs.follower_best_response(spec, 1, np.zeros((2, 1)), 0.0)
        assert a1 == pytest.approx([2.0])

    @pytest.mark.xfail(raises=IterationLimitError, strict=True,
                       reason="the robust best-response loop cycles at the "
                              "knife edge where a K = 2 response shuts off")
    def test_radius_beyond_the_nominal_response_gives_the_floor(self):
        h = np.array([1.160565732073676, 1.9318857405361058])
        f = np.array([1.1282651255768243, 1.84781160212541])
        c, eps = 1.028628560571046, 0.04
        spec = rs.make_spec(direct=h[None, :], cross=np.zeros((1, 1, 2)),
                            noise=f, leaders=(), action_min=0.0,
                            action_max=8.0, price=[c])
        # the worst case inflates the impact by eps in norm, so once eps
        # covers the nominal response's reach |(h/c - f)+| = 0.0303 the
        # robust response is the floor
        assert eps >= np.linalg.norm(np.maximum(h / c - f, 0.0))
        a = rs.follower_best_response(spec, 0, np.zeros((1, 2)), eps)
        assert np.array_equal(a, np.zeros(2))


def symmetric_followers_spec(x=0.2, box=8.0, noise=0.1):
    """Two followers, no leader: a = 1.9 - x*a fixed point by hand algebra."""
    cross = np.array([[[0.0], [x]], [[x], [0.0]]])
    return rs.make_spec(direct=[[1.0], [1.0]], cross=cross, noise=noise,
                        leaders=(), action_min=0.0, action_max=box,
                        price=[0.5, 0.5])


class TestFollowersNash:
    def test_single_follower_verifies_in_one_pass(self, e1_spec):
        start = np.array([[1.0], [0.0]])
        res = rs.followers_nash(e1_spec, start)
        assert res.kind == "NE"
        assert res.profile.actions[1] == pytest.approx([1.4], abs=1e-10)
        assert res.diagnostics.iterations <= 3
        assert res.diagnostics.residual < 1e-10

    def test_symmetric_pair_hand_fixed_point(self):
        spec = symmetric_followers_spec(0.2)
        res = rs.followers_nash(spec, np.zeros((2, 1)))
        expected = 1.9 / 1.2  # a = 1.9 - 0.2 a
        assert res.profile.actions == pytest.approx(
            np.full((2, 1), expected), abs=1e-8)
        assert res.kind == "NE"

    def test_robust_radii_shrink_both_actions(self):
        spec = symmetric_followers_spec(0.2)
        nominal = rs.followers_nash(spec, np.zeros((2, 1)))
        robust = rs.followers_nash(spec, np.zeros((2, 1)), eps=0.1)
        assert robust.kind == "RNE"
        assert np.all(robust.profile.actions < nominal.profile.actions)
        # hand fixed point with inflated impact: a = 1.9 + eps... per dim
        expected = (1.9 - 0.1) / 1.2
        assert robust.profile.actions == pytest.approx(
            np.full((2, 1), expected), abs=1e-8)

    def test_fixed_point_residual_contract(self):
        spec = symmetric_followers_spec(0.35)
        res = rs.followers_nash(spec, np.zeros((2, 1)), tol=1e-11)
        for n in spec.followers:
            br = rs.follower_best_response(spec, n, res.profile.actions, 0.0)
            assert np.max(np.abs(br - res.profile.actions[n])) < 1e-10

    def test_no_followers_returns_at_once(self):
        spec = rs.make_spec(direct=[[1.0]], cross=np.zeros((1, 1, 1)),
                            noise=0.1, leaders=(0,), action_max=5.0,
                            price=[0.8])
        res = rs.followers_nash(spec, np.array([[0.7]]), eps=0.1)
        assert np.array_equal(res.profile.actions, [[0.7]])
        assert res.diagnostics.iterations == 0
        assert res.diagnostics.residual == 0.0

    def test_iteration_limit_error_carries_iterate(self):
        spec = symmetric_followers_spec(0.2)
        with pytest.raises(IterationLimitError) as exc_info:
            rs.followers_nash(spec, np.zeros((2, 1)), max_iter=1)
        assert exc_info.value.last_iterate is not None
        assert exc_info.value.residual > 0


class TestSolveNse:
    def test_worked_instance_against_grid_oracle(self, e1_spec):
        oracle = e1_oracle().grid_nse()
        res = rs.solve_nse(e1_spec)
        a = res.profile.actions
        assert a[0, 0] == pytest.approx(oracle["a0"], abs=1e-4)
        assert a[1, 0] == pytest.approx(oracle["a1"], abs=1e-4)
        assert res.utilities[0] == pytest.approx(oracle["w0"], abs=1e-6)
        assert res.utilities[1] == pytest.approx(oracle["w1"], abs=1e-6)
        # frozen three-digit values from the worked example
        assert a[0, 0] == pytest.approx(0.483, abs=1e-3)
        assert res.utilities[0] == pytest.approx(0.032, abs=1e-3)
        assert res.utilities[1] == pytest.approx(0.938, abs=1e-3)

    def test_decoupled_game_gives_single_user_optima(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=np.zeros((2, 2, 1)),
                            noise=0.1, leaders=(0,), action_max=5.0,
                            price=[0.8, 0.5])
        res = rs.solve_nse(spec)
        # each player solves log(1 + a/sigma) - c a alone: a = 1/c - sigma
        assert res.profile.actions[0, 0] == pytest.approx(1.25 - 0.1, abs=1e-7)
        assert res.profile.actions[1, 0] == pytest.approx(2.0 - 0.1, abs=1e-7)

    def test_one_player_gets_its_own_optimum(self):
        # a leader alone solves log(1 + h a / sigma) - c a per dimension:
        # a = clip(1/c - sigma/h, box); the second dimension clamps at 0
        h, sigma, c = np.array([1.3, 0.4]), np.array([0.2, 0.9]), 0.7
        spec = rs.make_spec(direct=h[None, :], cross=np.zeros((1, 1, 2)),
                            noise=sigma, leaders=(0,), action_max=8.0,
                            price=[c])
        res = rs.solve_nse(spec)
        want = np.clip(1.0 / c - sigma / h, 0.0, 8.0)
        assert res.profile.actions[0] == pytest.approx(want, abs=1e-8)
        assert res.utilities[0] == pytest.approx(
            float(np.sum(np.log1p(h * want / sigma) - c * want)), abs=1e-12)

    def test_degenerate_leader_box(self):
        spec = rs.make_spec(direct=[[1.0], [1.0]],
                            cross=[[0.0, 0.5], [0.5, 0.0]], noise=0.1,
                            leaders=(0,), action_min=[[0.7], [0.0]],
                            action_max=[[0.7], [2.0]], price=[0.8, 0.5])
        res = rs.solve_nse(spec)
        assert res.profile.actions[0, 0] == pytest.approx(0.7)
        assert res.profile.actions[1, 0] == pytest.approx(1.9 - 0.35, abs=1e-9)

    def test_multi_leader_rejected(self):
        spec = rs.make_spec(direct=np.ones((3, 1)), cross=np.zeros((3, 3, 1)),
                            noise=0.1, leaders=(0, 1), action_max=5.0,
                            price=[0.5] * 3)
        with pytest.raises(InvalidSpecError):
            rs.solve_nse(spec)

    def test_social_equals_sum(self, e1_spec):
        res = rs.solve_nse(e1_spec)
        assert res.social == pytest.approx(float(res.utilities.sum()), abs=1e-12)


class TestLeaderCrushesFollower:
    """K=1 game whose leader optimum is the kink where the follower shuts off.

    Coexisting with the follower gives a local maximum near a0 = 1.08; the
    global one is the kink a0 = 1.8236, where the follower's reaction
    reaches zero.
    """

    H = (1.5011006808091636, 0.8779172101190559)
    X01, X10 = 0.42908578190734237, 0.3899625863678114
    SIGMA = (0.2372861429362748, 0.10526927519789873)
    PRICE = (1.1582898820818741, 1.0753219697830594)

    def spec(self):
        cross = np.zeros((2, 2, 1))
        cross[0, 1] = self.X01
        cross[1, 0] = self.X10
        return rs.make_spec(direct=[[self.H[0]], [self.H[1]]], cross=cross,
                            noise=[[self.SIGMA[0]], [self.SIGMA[1]]],
                            leaders=(0,), action_min=0.0, action_max=8.0,
                            price=list(self.PRICE))

    def oracle(self):
        return PricedTwoPlayer1D(h00=self.H[0], h11=self.H[1], h01=self.X01,
                                 h10=self.X10, sigma0=self.SIGMA[0],
                                 sigma1=self.SIGMA[1], c0=self.PRICE[0],
                                 c1=self.PRICE[1], a0_max=8.0, a1_max=8.0)

    def test_nse_is_the_global_optimum_on_the_boundary(self):
        grid = self.oracle().grid_nse()
        nse = rs.solve_nse(self.spec())
        assert nse.utilities[0] >= grid["w0"] - 1e-9
        assert nse.profile.actions[0, 0] == pytest.approx(grid["a0"], abs=1e-3)
        assert nse.profile.actions[1, 0] < _BOUNDARY_EPS
        assert not nse.interior

    def test_rse1_follower_returned_on_its_floor(self):
        rse1 = rs.solve_rse1(self.spec(), 0.04)
        assert rse1.profile.actions[1, 0] < _BOUNDARY_EPS
        assert rse1.diagnostics.boundary[1, 0]
        assert not rse1.interior


class TestSolveRse1:
    def test_worked_instance_against_grid_oracle(self, e1_spec):
        oracle = e1_oracle().grid_nse(eps=0.1)
        res = rs.solve_rse1(e1_spec, 0.1)
        a = res.profile.actions
        assert a[0, 0] == pytest.approx(oracle["a0"], abs=1e-4)
        assert a[1, 0] == pytest.approx(oracle["a1"], abs=1e-4)
        assert res.utilities[0] == pytest.approx(oracle["w0"], abs=1e-6)
        assert res.utilities[1] == pytest.approx(oracle["w1"], abs=1e-6)
        # robustness helps the leader, hurts the follower
        nse = rs.solve_nse(e1_spec)
        assert res.utilities[0] > nse.utilities[0]
        assert res.utilities[1] < nse.utilities[1]

    def test_zero_radius_matches_nse(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        rse = rs.solve_rse1(e1_spec, 0.0)
        assert rse.profile.actions == pytest.approx(nse.profile.actions,
                                                    abs=1e-8)

    def test_decoupled_leader_unaffected_follower_drops(self):
        cross = np.zeros((2, 2, 1))
        cross[1, 0] = 0.5  # leader still hurts the follower
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=cross, noise=0.1,
                            leaders=(0,), action_max=5.0, price=[0.8, 0.5])
        nse = rs.solve_nse(spec)
        rse = rs.solve_rse1(spec, 0.1)
        assert rse.utilities[0] == pytest.approx(nse.utilities[0], abs=1e-9)
        assert rse.utilities[1] < nse.utilities[1]


class TestRse1ClosedForm:
    def test_literal_mode_reproduces_hand_algebra(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        prof = rs.rse1_closed_form(e1_spec, nse, 0.1, literal=True)
        # reaction shift is exactly -eps/H11 for the affine priced reaction
        assert prof.actions[1, 0] - nse.profile.actions[1, 0] == pytest.approx(
            -0.1, abs=1e-9)
        assert prof.actions[0, 0] > nse.profile.actions[0, 0]

    def test_zero_radius_returns_nominal(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        prof = rs.rse1_closed_form(e1_spec, nse, 0.0)
        assert prof.actions == pytest.approx(nse.profile.actions, abs=0)

    def test_gap_to_numeric_is_second_order(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        gaps = []
        for eps in (0.04, 0.02):
            numeric = rs.solve_rse1(e1_spec, eps)
            closed = rs.rse1_closed_form(e1_spec, nse, eps)
            gaps.append(np.abs(closed.actions - numeric.profile.actions))
        ratio = gaps[0] / np.maximum(gaps[1], 1e-15)
        assert np.all(ratio > 3.5)

    def test_boundary_equilibrium_rejected(self):
        # tiny leader box forces the nominal solution onto the boundary
        spec = rs.make_spec(direct=[[1.0], [1.0]],
                            cross=[[0.0, 0.5], [0.5, 0.0]], noise=0.1,
                            leaders=(0,), action_max=[[0.05], [2.0]],
                            price=[0.8, 0.5])
        nse = rs.solve_nse(spec)
        assert not nse.interior
        with pytest.raises(InapplicableFormulaError):
            rs.rse1_closed_form(spec, nse, 0.05)


class TestSolveRse2:
    def test_worked_instance_against_grid_oracle(self, e1_spec):
        oracle = e1_oracle().grid_nse(believed_gain=0.4,
                                      realize_with_true_gain=True)
        res = rs.solve_rse2(e1_spec, 0.0, 0.1)
        a = res.profile.actions
        assert a[0, 0] == pytest.approx(oracle["a0"], abs=1e-4)
        assert a[1, 0] == pytest.approx(oracle["a1"], abs=1e-4)
        assert res.utilities[0] == pytest.approx(oracle["w0"], abs=1e-6)
        assert res.utilities[1] == pytest.approx(oracle["w1"], abs=1e-6)
        nse = rs.solve_nse(e1_spec)
        assert res.utilities[0] < nse.utilities[0]
        assert res.utilities[1] > nse.utilities[1]

    def test_empty_radii_match_nse(self, e1_spec):
        nse = rs.solve_nse(e1_spec)
        res = rs.solve_rse2(e1_spec, 0.0, 0.0)
        assert res.profile.actions == pytest.approx(nse.profile.actions,
                                                    abs=1e-8)

    def test_leader_worse_than_case1_at_matched_eps(self, e1_spec):
        rse1 = rs.solve_rse1(e1_spec, 0.1)
        rse2 = rs.solve_rse2(e1_spec, 0.1, 0.1)
        assert rse2.utilities[0] <= rse1.utilities[0] + 1e-9


class TestUniquenessCertificate:
    def test_p_matrix_textbook_cases(self):
        assert rs.is_p_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert not rs.is_p_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))

    def test_single_follower_scalar_case(self, e1_spec):
        cert = rs.uniqueness_certificate(e1_spec, samples=64, rng_seed=5)
        assert cert.upsilon.shape == (1, 1)
        assert cert.is_p_matrix == (cert.alpha_min[0] > 0)
        assert cert.is_p_matrix

    def test_weak_coupling_certifies_strong_does_not(self):
        # the box-wide inf/sup bounds are conservative: certification needs a
        # healthy noise floor (caps the cross curvature) and a modest box
        weak = symmetric_followers_spec(0.02, box=2.0, noise=1.0)
        strong = symmetric_followers_spec(3.5, box=2.0, noise=1.0)
        cert_w = rs.uniqueness_certificate(weak, samples=128, rng_seed=6)
        cert_s = rs.uniqueness_certificate(strong, samples=128, rng_seed=6)
        assert cert_w.is_p_matrix
        assert not cert_s.is_p_matrix
        assert np.all(np.diag(cert_w.upsilon) == cert_w.alpha_min)
        off = cert_w.upsilon[0, 1]
        assert off == pytest.approx(-cert_w.beta_max[0, 1])

    def test_alpha_bounds_random_profiles(self):
        spec = symmetric_followers_spec(0.2, box=4.0)
        cert = rs.uniqueness_certificate(spec, samples=256, rng_seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            actions = rng.uniform(0.0, 4.0, size=(2, 1))
            impacts = rs.all_impacts(spec, actions)
            for i, n in enumerate(spec.followers):
                b = rs.derivatives(spec, n, actions[n], impacts[n])
                assert cert.alpha_min[i] <= -b.hess_aa.min() + 1e-12


class TestPropositionDirections:
    def test_case1_monotone_in_radius(self):
        rng = np.random.default_rng(31)
        spec, _ = interior_instance(rng, 0.1, kind="rse1")
        prev_a0, prev_a1 = None, None
        for eps in (0.0, 0.02, 0.04, 0.06, 0.08, 0.1):
            res = rs.solve_rse1(spec, eps)
            a0 = res.profile.actions[0, 0]
            a1 = res.profile.actions[1, 0]
            if prev_a0 is not None:
                assert a0 >= prev_a0 - 1e-8
                assert a1 <= prev_a1 + 1e-8
            prev_a0, prev_a1 = a0, a1

    def test_case2_monotone_in_radius(self):
        rng = np.random.default_rng(32)
        spec, _ = interior_instance(rng, 0.1, kind="rse2")
        prev_a0, prev_a1 = None, None
        for delta in (0.0, 0.02, 0.04, 0.06, 0.08, 0.1):
            res = rs.solve_rse2(spec, 0.0, delta)
            a0 = res.profile.actions[0, 0]
            a1 = res.profile.actions[1, 0]
            if prev_a0 is not None:
                assert a0 <= prev_a0 + 1e-8
                assert a1 >= prev_a1 - 1e-8
            prev_a0, prev_a1 = a0, a1
