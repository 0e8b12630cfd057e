"""L0 kernel timings, followers' Nash solves, one budgeted leader ascent and
the cooperative leaders' search (pytest-benchmark); deselected by default.

Run them with `python -m pytest -m bench`.  The kernel states come from the
budgeted regime (noise 0.01, budget 10 spread over K = 4 subchannels,
eps 0.05), cut to their first K dimensions for K = 1 and 2.
"""

import numpy as np
import pytest

import rsgame as rs
from rsgame import lockstep
from rsgame.budget import (robust_waterfill_batch, robust_waterfill_jacobian,
                          saddle_start, waterfill_batch)
from rsgame.harness import cooperative_leaders_nse

from conftest import random_priced_multi_follower, random_priced_two_player
from test_equilibria import (STRONG_LEADER, demo05_spec,
                             strong_budgeted_followers_spec,
                             three_player_budgeted_spec)
from test_harness import kink_spec, two_leaders_one_follower_spec

H = np.array([0.54, 0.226, 0.279, 0.222])
A = np.array([4.0, 3.0, 2.0, 1.0])
F = np.array([0.01, 0.01, 0.65, 1.92])
EPS = 0.05


@pytest.mark.bench
@pytest.mark.parametrize("k", [1, 2, 4])
def test_worst_case_observation(benchmark, k):
    spec = rs.make_spec(direct=H[None, :k], cross=np.zeros((1, 1, k)),
                        noise=0.01, leaders=(), action_max=10.0, budget=[10.0])
    wco = benchmark(rs.worst_case_observation, spec, 0, A[:k], F[:k], EPS)
    assert np.linalg.norm(wco.values - F[:k]) == pytest.approx(EPS, rel=1e-9)


@pytest.mark.bench
@pytest.mark.parametrize("rows", [1, 1920])
def test_waterfill_batch(benchmark, rows):
    # the K = 4 state above with the impacts scaled as below, in the box
    # [0, 10] every row shares; 1920 rows is one ladder call of the Monte
    # Carlo engine, 64 instances x 5 starts x 6 rungs
    scale = np.random.default_rng(3).uniform(0.5, 2.0, size=(rows, 1))
    q = F * scale / H
    a = benchmark(waterfill_batch, q, np.zeros(4), np.full(4, 10.0), 10.0)
    assert np.allclose(a.sum(axis=1), 10.0)


@pytest.mark.bench
@pytest.mark.parametrize("rows, start", [(1, "cold"), (512, "cold"),
                                         (512, "warm")])
def test_robust_waterfill_batch(benchmark, rows, start):
    # the K = 4 state above, rows of it with the impacts scaled by fixed
    # factors in [0.5, 2]; warm rows start at the saddle points of their
    # impacts moved by up to 1%, as a ladder call's rows start at their
    # parent row's
    scale = np.random.default_rng(3).uniform(0.5, 2.0, size=(rows, 1))
    f, h = F * scale, np.broadcast_to(H, (rows, 4))
    warm = None
    if start == "warm":
        near = f * np.random.default_rng(4).uniform(0.99, 1.01, f.shape)
        warm = saddle_start(near, h, 0.0, 10.0, *robust_waterfill_batch(
            near, h, 0.0, 10.0, 10.0, EPS))
    a, t = benchmark(robust_waterfill_batch, f, h, 0.0, 10.0, 10.0, EPS,
                     start=warm)
    assert np.allclose(a.sum(axis=1), 10.0)
    assert np.allclose(np.linalg.norm(t - f, axis=1), EPS, rtol=1e-9)


@pytest.mark.bench
@pytest.mark.parametrize("rows", [1, 512])
def test_robust_waterfill_jacobian(benchmark, rows):
    # the saddle points of the rows above
    scale = np.random.default_rng(3).uniform(0.5, 2.0, size=(rows, 1))
    f, h = F * scale, np.broadcast_to(H, (rows, 4))
    a, t = robust_waterfill_batch(f, h, 0.0, 10.0, 10.0, EPS)
    jac = benchmark(robust_waterfill_jacobian, f, h, 0.0, 10.0, a, t)
    assert np.allclose(jac.sum(axis=1), 0.0, atol=1e-9)  # the budget binds


@pytest.mark.bench
def test_leader_ascent_one_instance(benchmark):
    # the B = 1 call `solve_rse1` makes on demo_05's instance 1
    game = lockstep.StackedGame.from_spec(demo05_spec(1), 0)
    ascent = benchmark(lockstep.leader_ascent, game, EPS, restarts=3, seed=1)
    assert ascent.calls == ascent.steps + 1


def _led(spec, a0):
    """Leader 0 at a0, the followers at zero (the iteration's seed)."""
    profile = np.zeros((spec.n_players, spec.n_dims))
    profile[0] = a0
    return profile


def _nash_cases():
    """(spec, profile, eps, Newton steps) per followers' Nash timing."""
    one = random_priced_two_player(np.random.default_rng(0))
    two = random_priced_multi_follower(np.random.default_rng(1))
    two_k2 = random_priced_multi_follower(np.random.default_rng(1), k=2)
    three = three_player_budgeted_spec()
    strong = strong_budgeted_followers_spec()
    return {"priced-1f": (one, _led(one, 1.0), 0.0, 1),
            "priced-2f": (two, _led(two, 1.0), 0.0, 1),
            "priced-2f-robust": (two, _led(two, 1.0), 0.04, 1),
            "priced-2f-robust-k2": (two_k2, _led(two_k2, [1.0, 1.0]), 0.04,
                                    3),
            "budgeted-2f": (three, _led(three, [1.0, 0.7, 0.9]), 0.0, 1),
            "budgeted-3f-strong": (strong, _led(strong, STRONG_LEADER), 0.05,
                                   4)}


@pytest.mark.bench
@pytest.mark.parametrize("case", sorted(_nash_cases()))
def test_followers_nash(benchmark, case):
    # a lone priced follower (one response); two priced followers at K = 1,
    # nominal and robust (affine reactions), and robust at K = 2 (a robust
    # best-response loop per follower and step); the budgeted three-player
    # game of the equilibria tests, nominal (a piecewise affine reaction),
    # and three strongly coupled budgeted followers at K = 4, eps = 0.05
    spec, profile, eps, steps = _nash_cases()[case]
    res = benchmark(rs.followers_nash, spec, profile, eps)
    assert res.diagnostics.residual < 1e-12
    # from the followers' floors: one response, one Newton step where the
    # reactions are affine on their pieces, a few where they are not
    assert res.diagnostics.iterations == steps


@pytest.mark.bench
@pytest.mark.parametrize("case", ["two-leaders", "kink"])
def test_cooperative_leaders(benchmark, case):
    # priced, K = 1, two leaders and one follower: the cooperative tests'
    # spec, and the one whose optimum crushes the follower across a kink
    spec = {"two-leaders": two_leaders_one_follower_spec,
            "kink": kink_spec}[case]()
    res = benchmark(cooperative_leaders_nse, spec, restarts=2)
    assert res.diagnostics.notes["certified_ascent"]
