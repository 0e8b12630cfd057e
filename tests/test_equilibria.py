"""Best responses, Nash iteration, bi-level solvers, closed form, certificate."""

import numpy as np
import pytest

import rsgame as rs
from rsgame import equilibria, lockstep, robust
from rsgame.errors import (DegenerateModelError, InapplicableFormulaError,
                           InvalidSpecError, IterationLimitError)
from rsgame.equilibria import _BOUNDARY_EPS
from rsgame.harness import ExperimentConfig, ScenarioSpec, channels

from conftest import (build_e1_spec, crushing_leader_spec, interior_instance,
                      random_priced_multi_follower, random_priced_two_player)
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
        assert res.diagnostics.iterations == 1
        assert res.diagnostics.residual < 1e-10

    def test_lone_follower_responds_once(self, e1_spec, monkeypatch):
        # its impact does not move with its own action, so a second sweep
        # would only repeat the first response
        calls = []
        respond = equilibria._response

        def counted(*args):
            calls.append(args)
            return respond(*args)

        monkeypatch.setattr(equilibria, "_response", counted)
        for eps in (0.0, 0.1):
            calls.clear()
            res = rs.followers_nash(e1_spec, np.array([[1.0], [0.0]]), eps=eps)
            assert len(calls) == 1
            assert res.diagnostics.iterations == 1
            assert res.diagnostics.residual == 0.0

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
        res = rs.followers_nash(spec, np.zeros((2, 1)))
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

    def test_iteration_limit_error_carries_iterate(self, monkeypatch):
        monkeypatch.setattr(lockstep, "NASH_SWEEPS", 1)
        led = random_priced_multi_follower(np.random.default_rng(5))
        for spec in (symmetric_followers_spec(0.2), led):
            start = np.zeros((spec.n_players, 1))
            start[list(spec.leaders)] = 0.7
            with pytest.raises(IterationLimitError) as exc_info:
                rs.followers_nash(spec, start)
            # the whole (N, K) profile, the leaders' rows as they were given
            last = exc_info.value.last_iterate
            assert last.shape == (spec.n_players, 1)
            assert np.array_equal(last[list(spec.leaders)],
                                  start[list(spec.leaders)])
            assert exc_info.value.residual > 0

    def test_a_response_error_passes_as_it_is(self, monkeypatch):
        def fail(spec, player, f_nom, eps):
            raise IterationLimitError("response", last_iterate=np.ones(1),
                                      residual=1.0)

        monkeypatch.setattr(equilibria, "_response", fail)
        for spec in (build_e1_spec(), symmetric_followers_spec(0.2)):
            with pytest.raises(IterationLimitError, match="response") as exc:
                rs.followers_nash(spec, np.zeros((2, 1)))
            assert np.array_equal(exc.value.last_iterate, np.ones(1))

    def test_fixed_point_helper_equals_the_result(self):
        # the leader searches call the iteration without building a result
        rng = np.random.default_rng(41)
        for i in range(24):
            k = 2 if i % 3 == 0 else 1
            spec = (random_priced_multi_follower(rng, k=k) if i % 2
                    else random_priced_two_player(rng, k=k))
            profile = np.zeros((spec.n_players, k))
            profile[0] = rng.uniform(0.0, 4.0, size=k)
            for eps in ((0.0,) if k > 1 else (0.0, 0.03)):
                unc = robust.coerce_uncertainty(spec, eps=eps)
                actions, sweeps, residual = equilibria._followers_fixed_point(
                    spec, profile, unc)
                full = rs.followers_nash(spec, profile, eps=eps)
                assert np.array_equal(actions, full.profile.actions)
                assert sweeps == full.diagnostics.iterations
                assert residual == full.diagnostics.residual


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


def demo05_spec(instance):
    """Instance `instance` of demo_05's s2 ensemble (budgeted, K = 4)."""
    config = ExperimentConfig(
        n_players=2, n_dims=4, leaders=(0,),
        utility={"kind": "budgeted", "budget": [10.0, 10.0]},
        action_max=10.0, noise=0.01, channel_model="four_ray", rng_seed=1,
        ensemble_size=instance + 1, eps_grid=(0.0, 0.05),
        scenario=ScenarioSpec(filter="s2"), restarts=3)
    return config.to_spec(channels.generate_channels(config, instance))


def three_player_budgeted_spec():
    """One budgeted leader heard clearly by two coupled followers, K = 3."""
    rng = np.random.default_rng(43)
    k = 3
    cross = rng.uniform(0.02, 0.1, size=(3, 3, k))
    cross[1:, 0] = rng.uniform(0.2, 0.6, size=(2, k))
    return rs.make_spec(direct=rng.uniform(0.8, 1.6, size=(3, k)),
                        cross=cross, noise=0.1, leaders=(0,), action_max=4.0,
                        budget=[3.0, 2.0, 2.5])


class TestBudgetedLeader:
    def test_ceiling_start_reaches_the_optimum(self):
        # the leader's optimum of this instance lies in the basin of the
        # start against the follower at its ceilings; from the other starts
        # the ascent stops at 10.7176
        res = rs.solve_nse(demo05_spec(1), restarts=3, seed=1)
        assert res.utilities[0] >= 11.0617390 - 1e-9
        notes = res.diagnostics.notes
        # one kernel call for the starts, then one ladder call per step
        assert notes["engine_calls"] == notes["ascent_steps"] + 1 > 1
        assert notes["start_gap"] >= 0.0

    def test_leader_residual_vanishes_where_the_ascent_converged(self):
        spec = demo05_spec(1)
        budget = spec.utility_model.budget[0]
        for res in (rs.solve_nse(spec, restarts=3, seed=1),
                    rs.solve_rse1(spec, 0.05, restarts=3, seed=1)):
            notes = res.diagnostics.notes
            assert notes["ascent_steps"] < 60  # stopped before the cap
            assert 0.0 <= notes["leader_residual"] <= 1e-6 * budget
        # one step from the starts is far from stationary, and says so
        cut = lockstep.leader_ascent(lockstep.StackedGame.from_spec(spec, 0),
                                     0.05, restarts=3, seed=1, n_steps=1)
        assert cut.residuals[0] > 1e-3 * budget

    def test_engine_gradient_matches_differences(self):
        # the exact leader gradient against central differences of the
        # engine's own leader utility, for one follower (demo_05's instance)
        # and two coupled followers, nominal and robust
        for spec, a0 in ((demo05_spec(1), np.array([4.0, 3.0, 2.0, 1.0])),
                         (three_player_budgeted_spec(),
                          np.array([1.0, 0.7, 0.9]))):
            game = lockstep.StackedGame.from_spec(spec, 0)
            n = a0.size
            step = 1e-6 * np.eye(n)
            rows = np.vstack([a0, a0 + step, a0 - step])
            inst = np.zeros(len(rows), dtype=int)
            for eps in (0.0, 0.05):
                resp = lockstep._Response(game, eps)
                seed = np.broadcast_to(resp.lo, (len(rows),) + resp.lo.shape)
                val, eq = resp.evaluate(inst, rows, seed)
                diff = (val[1:n + 1] - val[n + 1:]) / 2e-6
                grad = resp.gradient(inst[:1], a0[None], eq[:1])[0]
                assert np.max(np.abs(grad - diff)) <= 1e-6 * np.max(np.abs(diff))

    def test_three_player_followers_best_respond(self):
        spec = three_player_budgeted_spec()
        stacked = lockstep.StackedGame.from_spec(spec, 0)
        for eps, res in ((0.0, rs.solve_nse(spec, restarts=4)),
                         (0.05, rs.solve_rse1(spec, 0.05, restarts=4))):
            a = res.profile.actions
            for n in spec.followers:
                br = rs.follower_best_response(spec, n, a, eps)
                assert np.max(np.abs(br - a[n])) <= 1e-9
            # the engine's Jacobi sweep reaches the same equilibrium
            engine = lockstep.respond(stacked, a[None, 0], eps)[0]
            assert np.array_equal(engine, a[1:])


class TestLeaderCrushesFollower:
    """K=1 game whose leader optimum is the kink where the follower shuts off.

    Coexisting with the follower gives a local maximum near a0 = 1.08; the
    global one is the kink a0 = 1.8236, where the follower's reaction
    reaches zero.
    """

    def spec(self):
        return crushing_leader_spec()

    def oracle(self):
        spec = self.spec()
        g, sigma = spec.cross_gain[:, :, 0], spec.noise[:, 0]
        c = spec.utility_model.price
        return PricedTwoPlayer1D(h00=g[0, 0], h11=g[1, 1], h01=g[0, 1],
                                 h10=g[1, 0], sigma0=sigma[0], sigma1=sigma[1],
                                 c0=c[0], c1=c[1], a0_max=8.0, a1_max=8.0)

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

    def test_oversized_radius_flagged_in_notes(self, e1_spec):
        # delta / sqrt(K) = 0.8 exceeds the follower's cross gain 0.5: the
        # believed gain clamps at zero, and the solve says so
        res = rs.solve_rse2(e1_spec, 0.0, 0.8)
        assert res.diagnostics.notes["oversized_info_radius"] == [(1, 0)]
        assert rs.solve_rse2(e1_spec, 0.0, 0.1).diagnostics.notes[
            "oversized_info_radius"] == []

    def test_leader_worse_than_case1_at_matched_eps(self, e1_spec):
        rse1 = rs.solve_rse1(e1_spec, 0.1)
        rse2 = rs.solve_rse2(e1_spec, 0.1, 0.1)
        assert rse2.utilities[0] <= rse1.utilities[0] + 1e-9


class TestUniquenessCertificate:
    def test_p_matrix_textbook_cases(self):
        assert rs.is_p_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert not rs.is_p_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))

    def test_single_follower_scalar_case(self, e1_spec):
        cert = rs.uniqueness_certificate(e1_spec)
        assert cert.upsilon.shape == (1, 1)
        assert cert.is_p_matrix == (cert.alpha_min[0] > 0)
        assert cert.is_p_matrix

    def test_weak_coupling_certifies_strong_does_not(self):
        # the box-wide inf/sup bounds are conservative: certification needs a
        # healthy noise floor (caps the cross curvature) and a modest box
        weak = symmetric_followers_spec(0.02, box=2.0, noise=1.0)
        strong = symmetric_followers_spec(3.5, box=2.0, noise=1.0)
        cert_w = rs.uniqueness_certificate(weak)
        cert_s = rs.uniqueness_certificate(strong)
        assert cert_w.is_p_matrix
        assert not cert_s.is_p_matrix
        assert np.all(np.diag(cert_w.upsilon) == cert_w.alpha_min)
        off = cert_w.upsilon[0, 1]
        assert off == pytest.approx(-cert_w.beta_max[0, 1])

    def test_alpha_bounds_random_profiles(self):
        spec = symmetric_followers_spec(0.2, box=4.0)
        cert = rs.uniqueness_certificate(spec)
        rng = np.random.default_rng(8)
        for _ in range(200):
            actions = rng.uniform(0.0, 4.0, size=(2, 1))
            impacts = rs.all_impacts(spec, actions)
            for i, n in enumerate(spec.followers):
                b = rs.derivatives(spec, n, actions[n], impacts[n])
                assert cert.alpha_min[i] <= -b.hess_aa.min() + 1e-12

    def test_k4_game_the_box_does_not_certify(self):
        # bounds sampled inside the box miss its extremes here and certify
        # the game; the exact 2 x 2 minor is -3.4e-3
        direct = [[1.08, 0.56, 1.65, 0.85], [1.34, 0.62, 0.87, 1.18],
                  [1.17, 0.97, 1.22, 1.41]]
        cross = [[[0, 0.05, 0.02, 0.04], [0, 0.05, 0.09, 0.01],
                  [0.05, 0.02, 0.09, 0.04]],
                 [[0.05, 0.09, 0.07, 0.06], [0.04, 0.06, 0.07, 0.02],
                  [0.04, 0.08, 0.06, 0.06]],
                 [[0.04, 0.06, 0.06, 0.07], [0.03, 0.03, 0.04, 0.09],
                  [0.06, 0.03, 0.04, 0.06]]]
        spec = rs.make_spec(direct=direct, cross=cross, noise=1.0,
                            leaders=(0,), action_min=0.0, action_max=2.0,
                            price=[0.5, 0.5, 0.5])
        cert = rs.uniqueness_certificate(spec)
        assert not cert.is_p_matrix
        assert cert.alpha_min == pytest.approx([0.0577489, 0.0966572],
                                               abs=5e-8)
        assert cert.beta_max[0, 1] == pytest.approx(0.0708, abs=1e-15)
        assert cert.beta_max[1, 0] == pytest.approx(0.1269, abs=1e-15)

    @staticmethod
    def _curvatures(direct, cross, noise, actions):
        """(H/(f + H a))^2 as (..., N, K) and x_nm H/(f + H a)^2 as
        (..., N, N, K) at a stack of (..., N, K) profiles."""
        off = cross * (1.0 - np.eye(len(direct)))[:, :, None]
        f = noise + np.einsum("...mk,nmk->...nk", actions, off)
        denom = f + direct * actions
        return (direct / denom) ** 2, off * (direct / denom**2)[..., None, :]

    def test_bounds_are_the_box_extremes(self):
        # alpha bounds the own curvature from below everywhere and meets it
        # with every player at its ceiling; beta bounds the cross curvature
        # from above and meets it with every player at its floor
        rng = np.random.default_rng(15)
        for n in range(2, 5):
            for k in range(1, 7):
                for priced in (True, False):
                    direct = rng.uniform(0.5, 2.0, size=(n, k))
                    cross = rng.uniform(0.0, rng.uniform(0.05, 1.5),
                                        size=(n, n, k))
                    noise = rng.uniform(0.05, 2.0, size=(n, k))
                    lo = rng.uniform(0.0, 0.3, size=(n, k))
                    hi = rng.uniform(1.0, 5.0, size=(n, k))
                    model = ({"price": rng.uniform(0.2, 1.0, n)} if priced
                             else {"budget": hi.sum(axis=1)})
                    spec = rs.make_spec(direct=direct, cross=cross,
                                        noise=noise, leaders=(0,),
                                        action_min=lo, action_max=hi, **model)
                    cert = rs.uniqueness_certificate(spec)
                    profiles = np.concatenate([
                        lo + rng.uniform(size=(200, n, k)) * (hi - lo),
                        [hi, lo]])
                    own, cross_curv = self._curvatures(direct, cross, noise,
                                                       profiles)
                    for i, p in enumerate(spec.followers):
                        own_min = own[:, p].min(axis=-1)
                        assert np.all(cert.alpha_min[i]
                                      <= own_min * (1 + 1e-12))
                        assert cert.alpha_min[i] == pytest.approx(
                            own_min[-2], rel=1e-12)
                        for j, m in enumerate(spec.followers):
                            if m == p:
                                continue
                            cross_max = cross_curv[:, p, m].max(axis=-1)
                            assert np.all(cert.beta_max[i, j]
                                          >= cross_max * (1 - 1e-12))
                            assert cert.beta_max[i, j] == pytest.approx(
                                cross_max[-1], rel=1e-12)


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
