"""Best responses, Nash iteration, bi-level solvers, closed form, certificate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsgame as rs
from rsgame import equilibria, lockstep, robust
from rsgame.errors import (DegenerateModelError, InapplicableFormulaError,
                           InvalidSpecError, IterationLimitError)
from rsgame.equilibria import _BOUNDARY_EPS
from rsgame.harness import ExperimentConfig, ScenarioSpec, channels

from conftest import (build_e1_spec, crushing_leader_spec, interior_instance,
                      random_priced_multi_follower, random_priced_two_player)
from oracles import (PricedTwoPlayer1D, affine_nash_oracle, e1_oracle,
                     grid_argmax_vec, robust_waterfill_oracle,
                     separable_leader_grid_max, summation_impact)


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

    @pytest.mark.parametrize("eps", [0.02, 0.1])
    @pytest.mark.parametrize("draw", [None, 0, 1])
    def test_one_subchannel_reacts_to_f_plus_eps(self, eps, draw,
                                                 monkeypatch):
        # at K = 1 the worst observation is f + eps, so the response is the
        # closed-form reaction to it, with no worst-case solve
        if draw is None:
            spec, a0 = build_e1_spec(), 1.0
        else:
            rng = np.random.default_rng(draw)
            spec = random_priced_two_player(rng)
            a0 = rng.uniform(0.0, 1.0)  # the follower stays inside its box
        calls = []
        solve = robust.worst_case_observation

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(robust, "worst_case_observation", counted)
        others = np.array([[a0], [0.0]])
        a1 = rs.follower_best_response(spec, 1, others, eps)
        f = summation_impact(others, spec.cross_gain[1], spec.noise[1], 1)
        h, c = spec.cross_gain[1, 1], spec.utility_model.price[1]
        want = np.clip(1.0 / c - (f + eps) / h, spec.action_min[1],
                       spec.action_max[1])
        assert np.array_equal(a1, want)
        assert calls == []

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

    @given(st.data())
    def test_reaction_falls_as_the_impact_rises(self, data):
        # a leader's action raises the follower's impact in every dimension
        k = data.draw(st.integers(1, 3))

        def vector(low, high):
            return np.array(data.draw(st.lists(st.floats(low, high),
                                               min_size=k, max_size=k)))

        h, x, noise = vector(0.1, 3.0), vector(0.0, 2.0), vector(0.01, 1.0)
        cross = np.zeros((2, 2, k))
        cross[1, 0] = x
        spec = rs.make_spec(
            direct=np.stack([np.ones(k), h]), cross=cross,
            noise=np.stack([np.ones(k), noise]), leaders=(0,),
            action_min=data.draw(st.sampled_from([0.0, 0.1])),
            action_max=data.draw(st.sampled_from([1.0, 8.0])),
            price=[1.0, data.draw(st.floats(0.05, 2.0))])
        eps = data.draw(st.sampled_from([0.0, 0.04])) if k == 1 else 0.0
        quiet, loud = sorted(data.draw(st.floats(0.0, 5.0)) for _ in range(2))
        low = rs.follower_best_response(spec, 1, [[quiet] * k, [0.0] * k], eps)
        high = rs.follower_best_response(spec, 1, [[loud] * k, [0.0] * k], eps)
        assert np.all(high <= low + 1e-12)

    def test_reaction_conventions(self):
        # per row: h = 0 gives the floor and a zero price the ceiling
        spec = rs.make_spec(direct=[[1.0, 0.0], [2.0, 1.0]],
                            cross=np.zeros((2, 2, 2)), noise=0.1, leaders=(),
                            action_min=0.1, action_max=[[3.0], [5.0]],
                            price=[0.5, 0.0])
        a = equilibria._priced_reaction(spec, [0, 1])(np.full((2, 2), 0.4))
        assert np.array_equal(a, [[1.6, 0.1], [5.0, 5.0]])
        a = equilibria._priced_reaction(spec, [1, 0])(np.full((2, 2), 9.0))
        assert np.array_equal(a, [[5.0, 5.0], [0.1, 0.1]])


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
        monkeypatch.setattr(lockstep, "NASH_STEPS", 1)
        # affine reactions whose Newton solve shuts a follower off in its
        # second step, and K = 2 robust reactions, which take three steps
        affine = random_priced_multi_follower(np.random.default_rng(10),
                                              n_followers=3)
        robust_k2 = random_priced_multi_follower(np.random.default_rng(5), k=2)
        for spec, eps in ((affine, 0.0), (robust_k2, 0.04)):
            start = np.zeros((spec.n_players, spec.n_dims))
            start[list(spec.leaders)] = 0.7
            with pytest.raises(IterationLimitError) as exc_info:
                rs.followers_nash(spec, start, eps=eps)
            # the whole (N, K) profile, the leaders' rows as they were given
            last = exc_info.value.last_iterate
            assert last.shape == start.shape
            assert np.array_equal(last[list(spec.leaders)],
                                  start[list(spec.leaders)])
            assert exc_info.value.residual > 0

    def test_a_response_error_passes_as_it_is(self, monkeypatch):
        def fail(spec, player, f_nom, eps):
            raise IterationLimitError("response", last_iterate=np.ones(1),
                                      residual=1.0)

        monkeypatch.setattr(equilibria, "_response", fail)
        # a lone follower's one response and a budgeted pair's sweeps
        for spec in (build_e1_spec(), three_player_budgeted_spec()):
            with pytest.raises(IterationLimitError, match="response") as exc:
                rs.followers_nash(spec, np.zeros((spec.n_players,
                                                  spec.n_dims)))
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


def draw_affine_followers(rng):
    """Priced followers with affine reactions, behind one leader at a fixed
    action: 2-4 followers, K 1-3, couplings up to 0.9 sqrt(h_i h_j), floors
    0 or 0.1, ceilings 1 or 8; eps 0 at K > 1 and 0, 0.04 or 0.5 at K = 1."""
    nf, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    n = nf + 1
    h = rng.uniform(0.5, 2.0, size=(n, k))
    cross = (rng.uniform(0.0, 0.9, size=(n, n, k))
             * np.sqrt(h[:, None] * h[None, :]) * (1.0 - np.eye(n))[..., None])
    lo = rng.choice([0.0, 0.1], size=(n, k))
    spec = rs.make_spec(direct=h, cross=cross,
                        noise=rng.uniform(0.05, 0.3, size=(n, k)),
                        leaders=(0,), action_min=lo,
                        action_max=rng.choice([1.0, 8.0], size=(n, k)),
                        price=rng.uniform(0.4, 1.2, size=n))
    profile = lo.copy()
    profile[0] = rng.uniform(lo[0], spec.action_max[0])
    eps = 0.0 if k > 1 else float(rng.choice([0.0, 0.04, 0.5]))
    return spec, profile, eps


def oracle_followers_nash(spec, profile, eps):
    """`affine_nash_oracle` on the followers of `spec` against the leaders
    in `profile`, observing their impacts eps too high (K = 1 or eps = 0)."""
    fol, lead = list(spec.followers), list(spec.leaders)
    g = np.asarray(spec.cross_gain)
    fixed = (spec.noise[fol] + eps
             + np.einsum("nlk,lk->nk", g[np.ix_(fol, lead)], profile[lead]))
    return affine_nash_oracle(
        g[fol, fol], spec.utility_model.price[fol], fixed,
        g[np.ix_(fol, fol)] * (1.0 - np.eye(len(fol)))[..., None],
        spec.action_min[fol], spec.action_max[fol])


class TestAffineNash:
    """The exact followers' Nash of priced reactions at eps = 0 or K = 1."""

    def test_agrees_with_the_enumeration_oracle(self):
        rng = np.random.default_rng(16)
        unique = 0
        for _ in range(1000):
            spec, profile, eps = draw_affine_followers(rng)
            found = oracle_followers_nash(spec, profile, eps)
            if any(len(per_dim) != 1 for per_dim in found):
                continue
            unique += 1
            nash = np.stack([per_dim[0] for per_dim in found], axis=1)
            res = rs.followers_nash(spec, profile, eps=eps)
            got = res.profile.actions[list(spec.followers)]
            assert np.max(np.abs(got - nash)) <= 1e-12
            assert res.diagnostics.residual < lockstep.NASH_TOL
        assert unique >= 900

    def test_strong_coupling_game_the_sweeps_could_not_solve(self):
        # three followers, K = 1, eps = 0.04: I + diag(1/h) X is a P-matrix
        # (least principal minor 0.84), yet 500 damped Jacobi sweeps did
        # not converge on it
        gains = np.array([[1.487, 0.668, 0.35, 0.375],
                          [0.377, 1.85, 0.26, 1.167],
                          [0.845, 1.309, 1.18, 0.072],
                          [1.152, 0.259, 0.945, 1.158]])
        spec = rs.make_spec(direct=np.diag(gains)[:, None],
                            cross=(gains * (1.0 - np.eye(4)))[..., None],
                            noise=[[0.152], [0.209], [0.075], [0.243]],
                            leaders=(0,),
                            action_min=[[0.0], [0.0], [0.0], [0.1]],
                            action_max=[[1.0], [8.0], [8.0], [8.0]],
                            price=[1.113, 0.488, 0.426, 0.827])
        coupling = np.eye(3) + gains[1:, 1:] * (1.0 - np.eye(3)) / np.diag(
            gains)[1:, None]
        assert rs.is_p_matrix(coupling)
        profile = np.array([[0.258], [0.0], [0.0], [0.1]])
        (nash,), = oracle_followers_nash(spec, profile, 0.04)
        res = rs.followers_nash(spec, profile, eps=0.04)
        assert np.max(np.abs(res.profile.actions[1:, 0] - nash)) <= 1e-12

    def test_singular_clamp_state_takes_a_jacobi_step(self):
        # x = h: with both followers free I + diag(1/h) X is singular, and
        # every a1 + a2 = 1.9 is an equilibrium; the damped Jacobi step from
        # zero lands on the symmetric one
        res = rs.followers_nash(symmetric_followers_spec(1.0),
                                np.zeros((2, 1)))
        assert res.profile.actions == pytest.approx(np.full((2, 1), 0.95),
                                                    abs=1e-15)
        assert res.diagnostics.iterations == 1

    def test_zero_price_follower_sits_on_its_ceiling(self):
        # a constant reaction: the other follower answers its ceiling
        cross = np.zeros((2, 2, 1))
        cross[0, 1] = cross[1, 0] = 0.4
        spec = rs.make_spec(direct=[[1.0], [1.0]], cross=cross, noise=0.1,
                            leaders=(), action_max=[[2.0], [8.0]],
                            price=[0.0, 0.5])
        res = rs.followers_nash(spec, np.zeros((2, 1)))
        assert res.profile.actions[:, 0] == pytest.approx(
            [2.0, 2.0 - 0.1 - 0.4 * 2.0], abs=1e-15)
        unbounded = rs.make_spec(direct=[[1.0], [1.0]], cross=cross,
                                 noise=0.1, leaders=(), action_max=np.inf,
                                 price=[0.0, 0.5])
        with pytest.raises(DegenerateModelError):
            rs.followers_nash(unbounded, np.zeros((2, 1)))


def draw_budgeted_followers(rng, n_followers, k):
    """Budgeted followers behind one leader at a fixed allocation: couplings
    0.3-0.9 sqrt(h_i h_j), ceilings 8, budgets 1-6; the followers start at
    zero."""
    n = n_followers + 1
    h = rng.uniform(0.5, 2.0, size=(n, k))
    cross = (rng.uniform(0.3, 0.9, size=(n, n, k))
             * np.sqrt(h[:, None] * h[None, :]) * (1.0 - np.eye(n))[..., None])
    spec = rs.make_spec(direct=h, cross=cross,
                        noise=rng.uniform(0.05, 0.3, size=(n, k)),
                        leaders=(0,), action_max=8.0,
                        budget=rng.uniform(1.0, 6.0, size=n))
    profile = np.zeros((n, k))
    profile[0] = rng.dirichlet(np.ones(k)) * spec.utility_model.budget[0]
    return spec, profile


def strong_budgeted_followers_spec():
    """Three budgeted followers, K = 4, couplings up to 0.9 sqrt(h_i h_j):
    at eps = 0.05, against the leader's allocation `STRONG_LEADER`, 500
    damped Jacobi sweeps did not converge."""
    gains = np.array([  # (K, N, N)
        [[0.654, 0.523, 0.18, 0.645], [0.66, 1.255, 0.287, 0.895],
         [0.185, 0.241, 0.509, 0.415], [0.724, 0.533, 0.292, 1.019]],
        [[1.929, 0.609, 1.329, 1.013], [0.732, 1.686, 0.71, 0.895],
         [1.055, 0.569, 1.374, 0.894], [1.07, 0.855, 1.098, 1.658]],
        [[1.82, 0.601, 0.382, 0.572], [0.826, 0.53, 0.419, 0.326],
         [0.801, 0.393, 0.868, 0.713], [1.181, 0.473, 0.939, 1.481]],
        [[1.834, 0.813, 0.589, 0.799], [0.525, 0.671, 0.365, 0.507],
         [1.147, 0.341, 1.423, 0.795], [0.562, 0.56, 0.572, 1.369]]])
    gains = gains.transpose(1, 2, 0)
    return rs.make_spec(
        direct=np.stack([gains[n, n] for n in range(4)]),
        cross=gains * (1.0 - np.eye(4))[..., None],
        noise=[[0.159, 0.094, 0.195, 0.191], [0.13, 0.087, 0.209, 0.088],
               [0.108, 0.145, 0.101, 0.136], [0.084, 0.266, 0.249, 0.068]],
        leaders=(0,), action_max=8.0, budget=[3.33, 2.08, 3.57, 5.67])


STRONG_LEADER = np.array([0.738, 1.007, 0.851, 0.733])


def assert_robust_waterfills(spec, actions, eps):
    """Every follower of `actions` (N, K) plays the oracle's robust
    waterfill against its own impact, within 1e-10."""
    fol = list(spec.followers)
    f = np.stack([rs.aggregate_impact(spec, actions, n) for n in fol])
    want, _ = robust_waterfill_oracle(
        f, spec.cross_gain[fol, fol], spec.action_min[fol],
        spec.action_max[fol], spec.utility_model.budget[fol], eps)
    assert np.max(np.abs(actions[fol] - want)) <= 1e-10


def damped_sweeps(spec, profile, eps):
    """The followers' equilibrium by damped Jacobi sweeps: every follower
    best responds to the others' last actions, and a sweep whose residual
    grew halves the damping, down to 1/4."""
    a, fol = profile.copy(), list(spec.followers)
    damping, prev = 1.0, np.inf
    for _ in range(500):
        resp = np.stack([rs.follower_best_response(spec, n, a, eps)
                         for n in fol])
        res = np.max(np.abs(resp - a[fol]))
        if res < lockstep.NASH_TOL:
            a[fol] = resp
            return a
        if res > prev:
            damping = max(0.25, 0.5 * damping)
        prev = res
        a[fol] = (1.0 - damping) * a[fol] + damping * resp
    raise AssertionError("the damped sweeps did not converge")


class TestNashSolve:
    """The Newton solve of the followers' Nash on non-affine reactions."""

    def test_budgeted_followers_play_their_robust_waterfills(self):
        rng = np.random.default_rng(29)
        steps = []
        for i in range(24):
            nf, k, eps = 2 + i % 2, 2 + i % 3, (0.0, 0.05)[(i // 2) % 2]
            spec, profile = draw_budgeted_followers(rng, nf, k)
            res = rs.followers_nash(spec, profile, eps=eps)
            assert res.diagnostics.residual < lockstep.NASH_TOL
            assert_robust_waterfills(spec, res.profile.actions, eps)
            steps.append(res.diagnostics.iterations)
            # the engine's solve reaches the same equilibrium
            engine = lockstep.respond(lockstep.StackedGame.from_spec(spec, 0),
                                      profile[None, 0], eps)[0]
            assert np.max(np.abs(engine - res.profile.actions[1:])) <= 1e-10
        assert np.median(steps) <= 8

    def test_strong_coupling_draw_the_sweeps_could_not_solve(self):
        spec = strong_budgeted_followers_spec()
        profile = np.zeros((4, 4))
        profile[0] = STRONG_LEADER
        res = rs.followers_nash(spec, profile, eps=0.05)
        assert_robust_waterfills(spec, res.profile.actions, 0.05)
        assert res.diagnostics.iterations <= 8

    def test_priced_robust_followers_match_the_damped_sweeps(self):
        rng = np.random.default_rng(23)
        steps = []
        for i in range(16):
            nf, k, eps = 2 + i % 2, 2 + (i // 2) % 2, (0.02, 0.04)[i // 8]
            spec = random_priced_multi_follower(rng, n_followers=nf, k=k)
            profile = np.zeros((nf + 1, k))
            profile[0] = rng.uniform(0.0, 4.0, size=k)
            res = rs.followers_nash(spec, profile, eps=eps)
            want = damped_sweeps(spec, profile, eps)
            assert np.max(np.abs(res.profile.actions - want)) <= 1e-10
            steps.append(res.diagnostics.iterations)
        assert np.median(steps) <= 5


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

    def test_separable_game_is_exact_in_one_sweep(self):
        # without uncertainty the priced game separates by subchannel, so
        # one sweep of the leader's coordinate search is already exact; on
        # subchannel 0 this leader shuts the follower off, on 1 it does not
        spec = random_priced_two_player(np.random.default_rng(5), k=2)
        res = rs.solve_nse(spec)
        assert res.diagnostics.iterations == 1
        a = res.profile.actions
        assert a[1, 0] == 0.0 < a[1, 1]
        best = separable_leader_grid_max(
            spec.cross_gain, spec.noise, spec.utility_model.price, 8.0,
            100_001)
        assert res.utilities[0] >= best - 1e-9

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
            # the engine's Newton solve reaches the same equilibrium
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

    def test_rse1_does_no_worse_than_the_nse_action(self):
        # case 1 only shrinks a priced follower's reaction, so the NSE leader
        # action against the robust followers bounds the RSE1 leader below
        rng = np.random.default_rng(62)
        for n_followers in (1, 2, 3):
            for _ in range(5):
                spec = (random_priced_two_player(rng) if n_followers == 1
                        else random_priced_multi_follower(
                            rng, n_followers=n_followers))
                committed = spec.action_min.copy()
                committed[0] = rs.solve_nse(spec).profile.actions[0]
                for eps in (0.02, 0.04):
                    held = rs.followers_nash(spec, committed, eps=eps)
                    rse1 = rs.solve_rse1(spec, eps)
                    assert rse1.utilities[0] >= held.utilities[0] - 1e-9

    def test_priced_results_count_their_nash_solves(self, monkeypatch):
        # every followers' Nash solve of the leader search, one more for
        # the realization and, in case 2, one for the response the leader
        # planned on (`notes["believed_leader_utility"]`)
        calls = []
        solve = equilibria._followers_fixed_point

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(equilibria, "_followers_fixed_point", counted)
        spec = random_priced_multi_follower(np.random.default_rng(3))
        for run, outside in ((lambda: rs.solve_nse(spec), 1),
                             (lambda: rs.solve_rse1(spec, 0.04), 1),
                             (lambda: rs.solve_rse2(spec, 0.04, 0.04), 2)):
            calls.clear()
            notes = run().diagnostics.notes
            assert notes["nash_solves"] == len(calls) - outside > 0


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

    def test_believed_utility_is_the_planned_one(self, e1_spec):
        # the leader plans on the follower's reaction to the believed gain
        # 0.5 - 0.1; the realized reaction, to the true gain 0.5, differs
        planned = e1_oracle().grid_nse(believed_gain=0.4)
        res = rs.solve_rse2(e1_spec, 0.0, 0.1)
        believed = res.diagnostics.notes["believed_leader_utility"]
        assert believed == pytest.approx(planned["w0"], abs=1e-6)
        assert believed < res.utilities[0] - 1e-3

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
