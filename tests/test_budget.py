"""Waterfilling (nominal and robust) against grid oracles, overlap stats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rsgame as rs
from rsgame import budget as budget_mod
from rsgame import equilibria
from rsgame.budget import (project_box_budget_batch, robust_waterfill_batch,
                           robust_waterfill_jacobian, waterfill_batch)
from rsgame.errors import InvalidSpecError, IterationLimitError
from rsgame.harness.montecarlo import TwoPlayerBatch, follower_response_batch

from oracles import (robust_waterfill_oracle, waterfill_grid_oracle,
                     waterfill_level_oracle)


def budgeted_spec(k, budgets=(5.0, 5.0), a_max=50.0, noise=0.1):
    return rs.make_spec(direct=np.ones((2, k)), cross=np.zeros((2, 2, k)),
                        noise=noise, leaders=(0,), action_min=0.0,
                        action_max=a_max, budget=list(budgets))


class TestWaterfill:
    def test_two_channel_hand_value(self):
        spec = budgeted_spec(2, budgets=(1.0, 1.0))
        a = rs.waterfill(spec, 1, np.array([0.5, 1.0]), 1.0)
        assert a == pytest.approx([0.75, 0.25], abs=1e-9)

    def test_single_channel_takes_everything(self):
        spec = budgeted_spec(1, budgets=(2.0, 2.0), a_max=3.0)
        a = rs.waterfill(spec, 1, np.array([0.5]), 2.0)
        assert a == pytest.approx([2.0], abs=1e-12)
        spec_small_box = budgeted_spec(1, budgets=(2.0, 2.0), a_max=1.5)
        a = rs.waterfill(spec_small_box, 1, np.array([0.5]), 2.0)
        assert a == pytest.approx([1.5], abs=1e-12)

    def test_small_budget_single_active_channel(self):
        spec = budgeted_spec(2, budgets=(0.3, 0.3))
        a = rs.waterfill(spec, 1, np.array([0.2, 5.0]), 0.3)
        assert a == pytest.approx([0.3, 0.0], abs=1e-9)

    def test_budget_feasibility_and_kkt(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            spec = budgeted_spec(k, budgets=(4.0, 4.0), a_max=10.0)
            f = rng.uniform(0.1, 3.0, size=k)
            a = rs.waterfill(spec, 1, f, 4.0)
            assert a.sum() <= 4.0 + 1e-9
            assert np.all(a >= -1e-12)
            # KKT: active channels share a water level, inactive sit above it
            q = f / 1.0
            active = a > 1e-9
            if active.any():
                levels = a[active] + q[active]
                at_cap = a >= 10.0 - 1e-9
                w = levels[~at_cap[active]] if (~at_cap[active]).any() else levels
                if w.size:
                    assert np.max(np.abs(w - w.mean())) < 1e-9
                    assert np.all(q[~active] >= w.mean() - 1e-9)

    def test_grid_oracle_never_beats_waterfill(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            budget = float(rng.uniform(0.5, 4.0))
            spec = budgeted_spec(k, budgets=(budget, budget), a_max=100.0)
            h = np.ones(k)
            f = rng.uniform(0.1, 2.0, size=k)
            a = rs.waterfill(spec, 1, f, budget)
            _, best = waterfill_grid_oracle(h, f, budget, step=1e-3 * budget)
            mine = float(np.log1p(a / f).sum())
            assert best <= mine + 1e-6

    def test_invalid_budget(self):
        spec = budgeted_spec(2)
        with pytest.raises(InvalidSpecError):
            rs.waterfill(spec, 1, np.array([0.5, 1.0]), 0.0)

    def test_matches_level_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            q, lo, hi, budget = random_box(rng, k)
            h = rng.uniform(0.2, 3.0, size=k)
            spec = rs.make_spec(direct=np.vstack([np.ones(k), h]),
                                cross=np.zeros((2, 2, k)), noise=0.1,
                                leaders=(0,),
                                action_min=np.vstack([np.zeros(k), lo]),
                                action_max=np.vstack([np.ones(k), hi]),
                                budget=[1.0, budget])
            a = rs.waterfill(spec, 1, q * h, budget)
            want = waterfill_level_oracle(q, lo, hi, budget)
            assert a == pytest.approx(want, abs=1e-9)

    def test_batch_matches_level_oracle(self):
        rng = np.random.default_rng(24)
        k = 5
        rows = [random_box(rng, k) for _ in range(64)]
        q, lo, hi, budgets = (np.array(col) for col in zip(*rows))
        batch = waterfill_batch(q, lo, hi, budgets)
        for i in range(64):
            want = waterfill_level_oracle(q[i], lo[i], hi[i], budgets[i])
            assert batch[i] == pytest.approx(want, abs=1e-9)

    def test_tied_breakpoints(self):
        # integer-valued rows tie many breakpoints, floors with ceilings
        # among them; the sort need not order a tie stably, so the rows
        # must come out the same with their channels in any order
        rng = np.random.default_rng(25)
        n, k = 400, 5
        q = rng.integers(0, 4, size=(n, k)).astype(float)
        q[rng.uniform(size=(n, k)) < 0.1] = np.inf
        lo = np.where(rng.uniform(size=(n, k)) < 0.4,
                      rng.integers(0, 3, size=(n, k)), 0).astype(float)
        hi = lo + rng.integers(0, 4, size=(n, k))
        hi[rng.uniform(size=(n, k)) < 0.2] = np.inf
        budget = rng.integers(1, 16, size=n).astype(float)
        batch = waterfill_batch(q, lo, hi, budget)
        perm = rng.permutation(k)
        assert np.array_equal(
            waterfill_batch(q[:, perm], lo[:, perm], hi[:, perm], budget),
            batch[:, perm])
        for i in range(n):
            alone = waterfill_batch(q[i:i + 1], lo[i], hi[i], budget[i])[0]
            assert np.array_equal(alone, batch[i])
            # a channel with infinite q keeps its floor; the others share
            # what is left
            live = np.isfinite(q[i])
            want = lo[i].copy()
            if live.any():
                want[live] = waterfill_level_oracle(
                    q[i, live], lo[i, live], hi[i, live],
                    budget[i] - lo[i, ~live].sum())
            assert np.max(np.abs(batch[i] - want)) <= 1e-12

    def test_shared_box_rows_alone(self):
        # a box shared by every row is summed once, so a row's allocation
        # does not depend on the rows beside it, at any K
        rng = np.random.default_rng(26)
        n, k = 10, 9
        for _ in range(30):
            q = rng.uniform(0.05, 3.0, size=(n, k))
            lo = rng.uniform(0.0, 0.5, size=k)
            hi = lo + rng.uniform(0.1, 3.0, size=k)
            budget = rng.uniform(0.5, 1.5, size=n) * hi.sum()
            batch = waterfill_batch(q, lo, hi, budget)
            for i in range(n):
                assert np.array_equal(
                    waterfill_batch(q[i:i + 1], lo, hi, budget[i])[0],
                    batch[i])


def random_box(rng, k):
    """Inverse qualities, a box with some positive floors and infinite
    ceilings, and a budget that may sit below the floors or above the box."""
    q = rng.uniform(0.05, 3.0, size=k)
    lo = np.where(rng.uniform(size=k) < 0.3, rng.uniform(0.0, 1.0, size=k), 0.0)
    hi = np.where(rng.uniform(size=k) < 0.2, np.inf,
                  lo + rng.uniform(0.1, 3.0, size=k))
    if rng.uniform() < 0.2:  # around the floors, often below them
        budget = rng.uniform(0.3, 1.2) * max(lo.sum(), 0.1)
    else:
        budget = rng.uniform(0.3, 8.0)
    return q, lo, hi, float(budget)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, infeasible_budgets=True):
    """(q, lo, hi, budget): positive floors and infinite ceilings included."""
    k = draw(st.integers(1, 6))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=k, max_size=k)))

    q = column(_floats(0.01, 5.0))
    lo = column(st.one_of(st.just(0.0), _floats(0.0, 1.0)))
    hi = lo + column(st.one_of(st.just(np.inf), _floats(0.01, 3.0)))
    floor = 0.0 if infeasible_budgets else float(lo.sum())
    budget = floor + draw(_floats(0.01, 10.0))
    return q, lo, hi, budget


class TestWaterfillProperties:
    @given(boxes(), st.lists(st.booleans(), min_size=6, max_size=6))
    def test_kkt_spend_and_box(self, box, dead):
        q, lo, hi, budget = box
        k = q.size
        # a channel with zero direct gain (infinite q) is never worth power
        usable = ~np.array(dead[:k])
        spec = rs.make_spec(direct=np.vstack([np.ones(k), usable * 1.0]),
                            cross=np.zeros((2, 2, k)),
                            noise=0.1, leaders=(0,),
                            action_min=np.vstack([np.zeros(k), lo]),
                            action_max=np.vstack([np.ones(k), hi]),
                            budget=[1.0, budget])
        a = rs.waterfill(spec, 1, q, budget)
        assert np.all(a >= lo) and np.all(a <= hi)
        assert np.all(a[~usable] == lo[~usable])
        reach = hi[usable].sum() + lo[~usable].sum()
        spend = max(lo.sum(), min(budget, reach))
        assert a.sum() == pytest.approx(spend, abs=1e-9)
        if lo.sum() >= budget:
            return
        # active unsaturated channels share one level w = a + q; a channel
        # at its floor sits at or above w, one at its ceiling at or below
        level = a + q
        above_floor, below_ceiling = usable & (a > lo), usable & (a < hi)
        if above_floor.any() and below_ceiling.any():
            assert level[above_floor].max() <= level[below_ceiling].min() + 1e-9


class TestProjectionProperties:
    @given(boxes(infeasible_budgets=False),
           st.lists(_floats(-5.0, 5.0), min_size=6, max_size=6),
           st.lists(_floats(0.0, 1.0), min_size=6, max_size=6))
    def test_feasible_idempotent_and_variational(self, box, z, t):
        _, lo, hi, budget = box
        k = lo.size
        z, t = np.array(z[:k]), np.array(t[:k])
        p = project_box_budget_batch(z[None], lo, hi, budget)[0]
        assert np.all(p >= lo) and np.all(p <= hi)
        assert p.sum() <= budget + 1e-9
        assert (project_box_budget_batch(p[None], lo, hi, budget)[0]
                == pytest.approx(p, abs=1e-12))
        # a feasible y: a point of the box (infinite ceilings cut at lo + 5),
        # pulled toward the floor until it meets the budget
        y = lo + t * (np.minimum(hi, lo + 5.0) - lo)
        if y.sum() > budget:
            y = lo + (y - lo) * (budget - lo.sum()) / (y.sum() - lo.sum())
        assert float(np.dot(z - p, y - p)) <= 1e-9


class TestRobustWaterfill:
    def test_zero_radius_collapses(self):
        spec = budgeted_spec(2, budgets=(1.0, 1.0))
        f = np.array([0.5, 1.0])
        assert np.array_equal(rs.robust_waterfill(spec, 1, f, 0.0, 1.0),
                              rs.waterfill(spec, 1, f, 1.0))
        # the budgeted best response is the robust waterfill at every eps,
        # the nominal waterfill at eps = 0
        coupled = rs.make_spec(direct=[[1.0, 0.8, 1.2], [0.9, 1.1, 0.0]],
                               cross=[[0.0, 0.4], [0.3, 0.0]],
                               noise=[[0.1], [0.2]], leaders=(0,),
                               action_max=2.0, budget=[1.5, 1.5])
        others = np.array([[0.7, 0.5, 0.3], [0.0, 0.0, 0.0]])
        f1 = rs.aggregate_impact(coupled, others, 1)
        assert np.array_equal(rs.follower_best_response(coupled, 1, others, 0.0),
                              rs.waterfill(coupled, 1, f1, 1.5))

    def test_single_dimension_inflates_impact(self):
        spec = budgeted_spec(1, budgets=(2.0, 2.0), a_max=3.0)
        f = np.array([0.5])
        robust = rs.robust_waterfill(spec, 1, f, 0.1, 2.0)
        inflated = rs.waterfill(spec, 1, f + 0.1, 2.0)
        assert robust == pytest.approx(inflated, abs=1e-9)

    def test_two_channel_max_min_oracle(self):
        # worked two-channel instance, radius 0.1: compare with a brute-force
        # max-min over a 400x400 action grid and 1000 ball-surface samples
        spec = budgeted_spec(2, budgets=(1.0, 1.0))
        f = np.array([0.5, 1.0])
        eps = 0.1
        a_star = rs.robust_waterfill(spec, 1, f, eps, 1.0)

        rng = np.random.default_rng(25)
        dirs = rng.standard_normal((1000, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        samples = np.maximum(f[None, :] + eps * dirs, 1e-9)  # (S, 2)

        g1 = np.linspace(0.0, 1.0, 400)
        aa, bb = np.meshgrid(g1, g1, indexing="ij")
        mask = aa + bb <= 1.0 + 1e-12
        acts = np.column_stack([aa[mask], bb[mask]])  # (A, 2)
        vals = np.log1p(acts[:, None, :] / samples[None, :, :]).sum(axis=2)
        worst = vals.min(axis=1)
        best_idx = int(np.argmax(worst))

        def sampled_worst(a):
            return float(np.log1p(a[None, :] / samples).sum(axis=1).min())

        assert sampled_worst(a_star) >= worst[best_idx] - 1e-3
        assert a_star == pytest.approx(acts[best_idx], abs=4e-3)

    def test_negative_radius_rejected(self):
        spec = budgeted_spec(2)
        with pytest.raises(InvalidSpecError):
            rs.robust_waterfill(spec, 1, np.array([0.5, 1.0]), -0.1, 1.0)


@st.composite
def saddle_rows(draw):
    """(f, h, lo, hi, budget, eps) of one follower: zero gains, positive
    floors, infinite ceilings, budgets below the floors, and radii from
    1e-2 to 1e3 times the smallest impact."""
    k = draw(st.integers(1, 8))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=k, max_size=k)))

    f = column(_floats(0.01, 3.0))
    h = column(st.one_of(st.just(0.0), _floats(0.05, 3.0)))
    lo = column(st.one_of(st.just(0.0), _floats(0.0, 0.5)))
    hi = lo + column(st.one_of(st.just(np.inf), _floats(0.2, 4.0)))
    budget = draw(_floats(0.3, 1.2)) * max(lo.sum(), 0.1) \
        if draw(st.booleans()) else draw(_floats(0.5, 10.0))
    eps = float(f.min() * 10.0 ** draw(_floats(-2.0, 3.0)))
    return f, h, lo, hi, budget, eps


class TestRobustWaterfillSaddle:
    """The exact saddle point against a nested-bisection oracle, on boxes
    with positive floors, infinite ceilings, budgets below the floors, zero
    gains and radii up to 1e3 times the smallest impact."""

    # one follower, box [0, 10], budget 10, eps 1: the former alternation
    # hit its iteration limit here, and the former Monte Carlo schedule
    # returned a 2-cycle iterate with a[0] = 0.01749 (defect 0.0175)
    F = np.array([0.06724647897922985, 0.240690099323485, 1.1913513029667469,
                  3.7783794145348852, 1.6396259283378412, 5.264555094173182])
    H = np.array([0.01485463622808941, 0.04499991245847172, 0.4745643782500151,
                  0.45052790551467914, 2.1448791600267816, 0.10696268066335522])

    def test_two_cycle_regression(self):
        want, _ = robust_waterfill_oracle(self.F[None], self.H[None], 0.0, 10.0,
                                          10.0, 1.0)
        spec = _follower_spec(self.H, np.zeros(6), np.full(6, 10.0), 10.0)
        a = rs.robust_waterfill(spec, 0, self.F, 1.0, 10.0)
        assert np.max(np.abs(a - want[0])) <= 1e-10
        zero, one = np.zeros((1, 6)), np.ones((1, 6))
        batch = TwoPlayerBatch(h00=one, h01=zero, h10=zero, h11=self.H[None],
                               sigma0=one, sigma1=self.F[None], lo0=0.0,
                               hi0=10.0, lo1=0.0, hi1=10.0, p0=10.0, p1=10.0)
        a1 = follower_response_batch(batch, zero, 1.0)
        assert np.max(np.abs(a1[0] - want[0])) <= 1e-10

    @settings(max_examples=25)
    @given(saddle_rows())
    # eps of 100 and 562 times min f, water levels 170 and 1125: the spend
    # is off by 1.1e-12 in the first row and the fixed-point defect is
    # 2.6e-10 in the second, both within the rounding of the level
    @example((np.array([0.75, 1.0, 1.0, 1.25]),
              np.array([0.28125, 0.0, 0.25, 0.25]), np.zeros(4),
              np.full(4, np.inf), 0.5, 75.0))
    @example((np.array([0.75, 1.0, 1.0, 1.25]),
              np.array([0.28125, 0.0, 0.0, 0.25]), np.zeros(4),
              np.full(4, np.inf), 0.5, 0.75 * 10.0 ** 2.75))
    def test_properties(self, row):
        f, h, lo, hi, budget, eps = row
        a, t = robust_waterfill_batch(f[None], h[None], lo, hi, budget, eps)
        want = robust_waterfill_oracle(f[None], h[None], lo, hi, budget, eps)
        _check_saddle(f, h, lo, hi, budget, eps, a[0], t[0],
                      want[0][0], want[1][0])
        spec = _follower_spec(h, lo, hi, budget)
        assert np.array_equal(rs.robust_waterfill(spec, 0, f, eps, budget), a[0])

    def test_seeded_stress(self):
        ks, rows = stress_rows()
        a, t = robust_waterfill_batch(*rows)
        _check_stress_rows(ks, rows, a, t)

    def test_kink_does_not_cycle(self, monkeypatch):
        # one follower, box [0, 10], budget 10, eps 0.05, at a kink of sum(a)
        # in the level: each Newton step in w jumped across it while the ball
        # was already met, and stepping mu again reset the level's bracket, so
        # the row took 15 iterations where 10 do
        f = np.array([0.01, 20.401231784068884, 12.268411270052155,
                      3.5722282946882267])
        h = np.array([0.20261726301789562, 1.9814475979595572,
                      0.8795888843095632, 0.16301363606353594])
        monkeypatch.setattr(budget_mod, "_SADDLE_ITERS", 10)
        a, _ = robust_waterfill_batch(f[None], h[None], 0.0, 10.0, 10.0, 0.05)
        want, _ = robust_waterfill_oracle(f[None], h[None], 0.0, 10.0, 10.0,
                                          0.05)
        assert np.max(np.abs(a - want)) <= 1e-10

    def test_iteration_limit(self, monkeypatch):
        f, h = self.F[None], self.H[None]
        monkeypatch.setattr(budget_mod, "_SADDLE_ITERS", 1)
        with pytest.raises(IterationLimitError) as info:
            robust_waterfill_batch(f, h, 0.0, 10.0, 10.0, 1.0)
        assert info.value.last_iterate.shape == (1, 6)


def stress_rows():
    """Row lengths and kernel inputs (f, h, lo, hi, budget, eps) of 2000
    seeded follower rows up to K = 8, padded with idle channels: zero gains,
    positive floors, infinite ceilings, budgets below the floors, and radii
    from 1e-2 to 1e3 times the smallest impact."""
    rng = np.random.default_rng(26)
    n, k_max = 2000, 8
    ks = rng.integers(1, k_max + 1, size=n)
    f = 10.0 ** rng.uniform(-2.0, 0.5, size=(n, k_max))
    h = rng.uniform(0.05, 3.0, size=(n, k_max))
    h[rng.uniform(size=(n, k_max)) < 0.1] = 0.0
    lo = np.where(rng.uniform(size=(n, k_max)) < 0.4,
                  rng.uniform(0.0, 0.5, size=(n, k_max)), 0.0)
    hi = np.where(rng.uniform(size=(n, k_max)) < 0.3, np.inf,
                  lo + rng.uniform(0.2, 4.0, size=(n, k_max)))
    # pad past each row's K with idle channels (h = 0, floor 0)
    idle = np.arange(k_max)[None, :] >= ks[:, None]
    f[idle], h[idle], lo[idle], hi[idle] = 1.0, 0.0, 0.0, np.inf
    floors = lo.sum(axis=1)
    budget = np.where((floors > 0) & (rng.uniform(size=n) < 0.3),
                      floors * rng.uniform(0.3, 0.95, size=n),
                      rng.uniform(0.5, 10.0, size=n))
    eps = np.array([f[i, :ks[i]].min() for i in range(n)]) \
        * 10.0 ** rng.uniform(-2.0, 3.0, size=n)
    return ks, (f, h, lo, hi, budget, eps)


def _check_stress_rows(ks, rows, a, t):
    """`_check_saddle` on every row of `stress_rows`, against the oracle."""
    f, h, lo, hi, budget, eps = rows
    want_a, want_t = robust_waterfill_oracle(*rows)
    for i, k in enumerate(ks):
        _check_saddle(f[i, :k], h[i, :k], lo[i, :k], hi[i, :k],
                      float(budget[i]), float(eps[i]), a[i, :k], t[i, :k],
                      want_a[i, :k], want_t[i, :k])


class TestRobustWaterfillWarmStart:
    """The kernel started at (w, log mu) read off nearby saddle points."""

    # demo_05's follower state (K = 4, box [0, 10], budget 10), its impacts
    # scaled by fixed factors in [0.5, 2]
    H = np.array([0.54, 0.226, 0.279, 0.222])
    F = np.array([0.01, 0.01, 0.65, 1.92]) \
        * np.random.default_rng(3).uniform(0.5, 2.0, size=(64, 1))

    @pytest.mark.parametrize("eps", [0.05, 0.5])
    def test_own_saddle_converges_at_once(self, monkeypatch, eps):
        a, t = robust_waterfill_batch(self.F, self.H, 0.0, 10.0, 10.0, eps)
        start = budget_mod.saddle_start(self.F, self.H, 0.0, 10.0, a, t)
        assert np.all(np.isfinite(start))
        monkeypatch.setattr(budget_mod, "_SADDLE_ITERS", 1)
        a1, t1 = robust_waterfill_batch(self.F, self.H, 0.0, 10.0, 10.0, eps,
                                        start=start)
        assert np.max(np.abs(a1 - a)) <= 1e-12
        assert np.max(np.abs(t1 - t)) <= 1e-12

    def test_perturbed_starts_stress(self):
        # each row starts at the saddle point of its impacts moved by up to
        # 1%; rows whose saddle has no channel inside its box start cold
        ks, rows = stress_rows()
        f = rows[0]
        moved = f * np.random.default_rng(27).uniform(0.99, 1.01, f.shape)
        near = (moved,) + rows[1:]
        start = budget_mod.saddle_start(*near[:4], *robust_waterfill_batch(
            *near))
        assert np.isfinite(start[0]).sum() > 1000
        a, t = robust_waterfill_batch(*rows, start=start)
        _check_stress_rows(ks, rows, a, t)

    def test_nan_start_is_cold(self):
        ks, rows = stress_rows()
        cold = robust_waterfill_batch(*rows)
        nan = np.full(ks.size, np.nan)
        warm = robust_waterfill_batch(*rows, start=(nan, nan))
        assert all(np.array_equal(x, y) for x, y in zip(cold, warm))


# central-difference step of the Jacobian tests
FD_STEP = 1e-6


def _pieces(a, h, lo, hi):
    """0 on the floor (or a zero gain), 1 strictly inside the box, 2 on the
    ceiling."""
    return np.where((h > 0) & (a > lo), np.where(a < hi, 1, 2), 0)


def _jacobian_and_differences(f, h, lo, hi, budget, eps):
    """The kernel's Jacobian at rows f (R, K), its central differences in
    each f_j (both (R, K, K)), and per row whether every channel keeps its
    piece across the differences (the row is away from kinks)."""
    r, k = f.shape
    h, lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), (r, k))
                 for x in (h, lo, hi))
    budget, eps = (np.broadcast_to(np.asarray(x, dtype=float), (r,))
                   for x in (budget, eps))
    a, t = robust_waterfill_batch(f, h, lo, hi, budget, eps)
    jac = robust_waterfill_jacobian(f, h, lo, hi, a, t)
    step = FD_STEP * np.eye(k)
    moved = np.concatenate([f[:, None] + step, f[:, None] - step], axis=1)
    rows = [np.repeat(x, 2 * k, axis=0) for x in (h, lo, hi, budget, eps)]
    am, _ = robust_waterfill_batch(moved.reshape(-1, k), *rows)
    am = am.reshape(r, 2, k, k)  # row, sign, moved f_j, channel
    diff = ((am[:, 0] - am[:, 1]) / (2.0 * FD_STEP)).transpose(0, 2, 1)
    box = [x[:, None, None] for x in (h, lo, hi)]
    smooth = (_pieces(am, *box)
              == _pieces(a, h, lo, hi)[:, None, None]).all(axis=(1, 2, 3))
    return jac, diff, smooth


def _relative_error(jac, diff):
    """Per row, max |J - D| over the largest of max |J|, max |D| and 1 (an
    entry of order 1/h, for gains of order 1: a row whose channels cancel
    exactly has J of rounding size and D = 0)."""
    scale = np.maximum(np.maximum(np.abs(jac).max(axis=(1, 2)),
                                  np.abs(diff).max(axis=(1, 2))), 1.0)
    return np.abs(jac - diff).max(axis=(1, 2)) / scale


class TestRobustWaterfillJacobian:
    """da/df of the saddle point against central differences of the kernel,
    on rows away from kinks, and its one-sided value on a kink."""

    def test_seeded_rows(self):
        rng = np.random.default_rng(9)
        n, k_max = 400, 6
        ks = rng.integers(1, k_max + 1, size=n)
        f = rng.uniform(0.05, 2.0, size=(n, k_max))
        h = rng.uniform(0.2, 2.0, size=(n, k_max))
        h[rng.uniform(size=(n, k_max)) < 0.1] = 0.0
        lo = np.where(rng.uniform(size=(n, 1)) < 0.5, 0.2, 0.0) * np.ones(k_max)
        hi = np.where(rng.uniform(size=(n, 1)) < 0.5, 4.0, np.inf) * np.ones(k_max)
        # pad past each row's K with idle channels (h = 0, floor 0)
        idle = np.arange(k_max)[None, :] >= ks[:, None]
        f[idle], h[idle], lo[idle], hi[idle] = 1.0, 0.0, 0.0, np.inf
        budget = rng.uniform(0.5, 14.0, size=n)
        eps = np.where(rng.uniform(size=n) < 0.2, 0.0,
                       rng.uniform(0.0, 1.0, size=n))
        jac, diff, smooth = _jacobian_and_differences(f, h, lo, hi, budget, eps)
        assert smooth.sum() >= 0.9 * n
        assert np.max(_relative_error(jac, diff)[smooth]) <= 1e-6
        # every piece took part: eps = 0 rows, the cubic's floor and
        # ceiling channels with u > 0, zero gains and all-pinned rows
        a, _ = robust_waterfill_batch(f, h, lo, hi, budget, eps)
        piece = _pieces(a, h, lo, hi)
        cubic = (piece != 1) & (h * a > 0)
        assert smooth[eps == 0.0].sum() > 20
        assert (cubic & (piece == 0))[smooth & (eps > 0)].sum() > 20
        assert (cubic & (piece == 2))[smooth & (eps > 0)].sum() > 20
        assert ((h == 0) & ~idle)[smooth].sum() > 20
        assert (smooth & (piece != 1).all(axis=1)).sum() > 0
        # a channel with zero gain neither moves nor moves the others
        zero = h == 0
        assert np.all(jac.transpose(0, 2, 1)[zero] == 0.0)
        assert np.all(jac[zero] == 0.0)

    @settings(max_examples=40)
    @given(saddle_rows())
    def test_properties(self, row):
        f, h, lo, hi, budget, eps = row
        jac, diff, smooth = _jacobian_and_differences(f[None], h[None], lo[None],
                                                      hi[None], budget, eps)
        if smooth[0]:
            assert _relative_error(jac, diff)[0] <= 1e-6

    def test_all_pinned_rows_do_not_move(self):
        # budgets below the floors, and at or above the sum of the ceilings
        f = np.array([[0.3, 0.8, 1.5]] * 4)
        h = np.array([1.0, 0.5, 2.0])
        lo, hi = np.full(3, 0.2), np.full(3, 4.0)
        budget = np.array([0.3, 0.3, 12.0, 20.0])
        eps = np.array([0.0, 0.5, 0.5, 0.5])
        a, t = robust_waterfill_batch(f, h, lo, hi, budget, eps)
        assert np.all((a == lo) | (a == hi))
        assert np.all(robust_waterfill_jacobian(f, h, lo, hi, a, t) == 0.0)

    def test_one_sided_on_a_kink(self):
        # eps = 0, levels q = f = (0.5, 1.5), budget 1: the level 1.5 puts
        # channel 1 exactly on its floor.  Raising f_1 keeps it there (no
        # channel moves); lowering it lets the channel in, a_1 = -df_1 / 2.
        f = np.array([[0.5, 1.5]])
        a, t = robust_waterfill_batch(f, 1.0, 0.0, np.inf, 1.0, 0.0)
        assert np.array_equal(a, [[1.0, 0.0]])
        jac = robust_waterfill_jacobian(f, 1.0, 0.0, np.inf, a, t)
        up, _ = robust_waterfill_batch(f + [[0.0, 1e-3]], 1.0, 0.0, np.inf,
                                       1.0, 0.0)
        down, _ = robust_waterfill_batch(f - [[0.0, 1e-3]], 1.0, 0.0, np.inf,
                                         1.0, 0.0)
        assert np.array_equal(jac[0, :, 1], (up - a)[0] / 1e-3)
        assert np.array_equal(jac[0], np.zeros((2, 2)))
        assert (a - down)[0] / 1e-3 == pytest.approx([0.5, -0.5])

    def test_zero_radius_is_the_waterfill_jacobian(self):
        # on the inner channels da/df = 1/n_inner / h_j - delta_kj / h_k
        # with h = 1, and zero on and from the pinned channel
        f = np.array([[0.2, 0.5, 0.9, 3.0]])
        a, t = robust_waterfill_batch(f, 1.0, 0.0, np.inf, 2.0, 0.0)
        inner = a[0] > 0
        assert inner.tolist() == [True, True, True, False]
        want = np.zeros((4, 4))
        want[:3, :3] = 1.0 / 3.0 - np.eye(3)
        jac = robust_waterfill_jacobian(f, 1.0, 0.0, np.inf, a, t)
        assert np.max(np.abs(jac[0] - want)) <= 1e-15

    def test_pinned_level_is_the_priced_robust_reaction(self):
        # the priced robust reaction a = clip(1/c - t/h, lo, hi) to its
        # worst observation t pins the level at 1/c and has no budget row:
        # its Jacobian against central differences of the damped loop, on
        # states away from kinks; floors of 0.1 put the channels on their
        # floor on the cubic's branch (u > 0)
        rng = np.random.default_rng(23)
        errors, cubic = [], 0
        for i in range(120):
            k, lo = int(rng.integers(2, 5)), (0.0, 0.1)[i % 2]
            h = rng.uniform(0.5, 2.0, size=k)
            spec = rs.make_spec(direct=h[None], cross=np.zeros((1, 1, k)),
                                noise=0.1, leaders=(), action_min=lo,
                                action_max=8.0,
                                price=[rng.uniform(0.4, 1.2)])
            f = rng.uniform(0.05, 1.5, size=k)
            eps = rng.uniform(0.02, 0.1)
            a, t = equilibria._response(spec, 0, f, eps)
            jac = robust_waterfill_jacobian(f[None], h, lo, 8.0, a[None],
                                            t[None], pinned=True)[0]
            moved = np.array([[equilibria._response(spec, 0, f + sign * e,
                                                    eps)[0]
                               for e in FD_STEP * np.eye(k)]
                              for sign in (1.0, -1.0)])
            if not np.all(_pieces(moved, h, lo, 8.0)
                          == _pieces(a, h, lo, 8.0)):
                continue  # a kink within the differences
            diff = ((moved[0] - moved[1]) / (2.0 * FD_STEP)).T
            errors.append(_relative_error(jac[None], diff[None])[0])
            cubic += int(np.any((_pieces(a, h, lo, 8.0) == 0) & (a > 0)))
        assert len(errors) >= 100 and cubic >= 20
        assert max(errors) <= 1e-7


def _follower_spec(h, lo, hi, budget):
    k = h.size
    return rs.make_spec(direct=h[None, :], cross=np.zeros((1, 1, k)),
                        noise=0.01, leaders=(), action_min=lo[None, :],
                        action_max=hi[None, :], budget=[budget])


# a few dozen roundings, as the kernel allows on its own budget residual
ROUNDING = 32 * np.finfo(float).eps


def _check_saddle(f, h, lo, hi, budget, eps, a, t, want_a, want_t):
    """The four checks of one row against the oracle's (want_a, want_t).

    The spend and fixed-point bounds are the larger of a constant and what
    double precision resolves at the row's water level w: a = w - t/h on a
    channel inside its box carries ROUNDING * w, so the spend does, and the
    worst case amplifies it by ds/du on every channel (u = h a).
    """
    spec = _follower_spec(h, lo, hi, budget)
    assert np.all(a >= lo) and np.all(a <= hi)
    inside = (h > 0) & (a > lo) & (a < hi)
    level = np.abs(a + t / np.where(inside, h, 1.0))[inside].max(initial=0.0)
    spend = max(lo.sum(), min(budget, np.where(h > 0, hi, lo).sum()))
    assert abs(a.sum() - spend) <= max(1e-12, 1e-12 * spend, ROUNDING * level)
    assert np.max(np.abs(a - want_a)) <= 1e-9
    u = h * a
    if np.linalg.norm(u / (f * (f + u))) < 1e-14:
        # nothing at stake (the documented gradient threshold): no worst
        # case, where the oracle still bisects for one
        assert np.array_equal(t, f)
        return
    assert np.linalg.norm(t - f) == pytest.approx(eps, rel=1e-9)
    assert np.max(np.abs(t - want_t)) <= 1e-9
    # a fixed point of the two maps: the waterfill against the exact worst
    # case of a is a again.  For a fixed multiplier the shift s = t - f solves
    # s t (t + u) = mu u, so ds/du = s t^2 / (u (t q + s (t + q))), q = t + u
    s, q, on = t - f, t + u, u > 0
    gain = (s * t * t / np.where(on, u * (t * q + s * (t + q)), 1.0))[on]
    wco = rs.worst_case_observation(spec, 0, a, f, eps)
    defect = np.max(np.abs(rs.waterfill(spec, 0, wco.values, budget) - a))
    assert defect <= max(1e-10, ROUNDING * level * gain.max(initial=0.0))


class TestOverlapStats:
    def test_disjoint_supports(self):
        stats = rs.overlap_stats(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.5)
        assert stats.common_sizes[(0, 1)] == 0

    def test_identical_supports(self):
        profile = np.ones((2, 13))
        stats = rs.overlap_stats(profile, 0.5)
        assert stats.common_sizes[(0, 1)] == 13
        assert stats.sizes[0] == stats.sizes[1] == 13

    def test_partial_overlap(self):
        profile = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        stats = rs.overlap_stats(profile, 0.5)
        assert stats.common[(0, 1)] == frozenset({1})
        assert stats.common_sizes[(0, 1)] == 1

    def test_symmetry_and_size_bound(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            profile = rng.uniform(0.0, 1.0, size=(3, 6))
            stats = rs.overlap_stats(profile, 0.4)
            for (i, j), common in stats.common.items():
                assert common == stats.used[i] & stats.used[j]
                assert len(common) <= min(stats.sizes[i], stats.sizes[j])

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidSpecError):
            rs.overlap_stats(np.ones((2, 2)), -1.0)
