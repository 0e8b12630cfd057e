"""Shared fixtures: the worked two-player instance and random-game builders."""

import numpy as np
import pytest
from hypothesis import settings

import rsgame as rs

# errors the solvers raise on purpose for an instance they cannot handle:
# draw loops skip such an instance, while any other exception is a bug and
# fails the test instead of silently changing which instances are drawn
SOLVER_ERRORS = rs.errors.SOLVER_ERRORS

# property tests draw the same examples on every run, with no time limit
settings.register_profile("rsgame", derandomize=True, deadline=None)
settings.load_profile("rsgame")


def build_e1_spec():
    """K=1 priced game with known closed-chain algebra (used throughout)."""
    return rs.make_spec(
        direct=[[1.0], [1.0]],
        cross=[[0.0, 0.5], [0.5, 0.0]],
        noise=0.1,
        leaders=(0,),
        action_min=0.0,
        action_max=[[1.0], [2.0]],
        price=[0.8, 0.5],
    )


@pytest.fixture
def e1_spec():
    return build_e1_spec()


def crushing_leader_spec():
    """K=1 priced game whose leader optimum is the kink where the follower
    shuts off: the NSE follower sits on its floor with utility 0."""
    cross = np.zeros((2, 2, 1))
    cross[0, 1] = 0.42908578190734237
    cross[1, 0] = 0.3899625863678114
    return rs.make_spec(direct=[[1.5011006808091636], [0.8779172101190559]],
                        cross=cross,
                        noise=[[0.2372861429362748], [0.10526927519789873]],
                        leaders=(0,), action_min=0.0, action_max=8.0,
                        price=[1.1582898820818741, 1.0753219697830594])


def random_priced_two_player(rng, k=1, coupling=(0.1, 0.6), box=8.0,
                             coupling01=None, coupling10=None):
    """Random one-leader one-follower priced game with moderate coupling."""
    h = rng.uniform(0.5, 2.0, size=(2, k))
    x01 = rng.uniform(*(coupling01 or coupling), size=k) * np.sqrt(h[0] * h[1])
    x10 = rng.uniform(*(coupling10 or coupling), size=k) * np.sqrt(h[0] * h[1])
    cross = np.zeros((2, 2, k))
    cross[0, 1] = x01
    cross[1, 0] = x10
    sigma = rng.uniform(0.05, 0.3, size=(2, k))
    price = rng.uniform(0.4, 1.2, size=2)
    return rs.make_spec(direct=h, cross=cross, noise=sigma, leaders=(0,),
                        action_min=0.0, action_max=box, price=price)


def random_priced_multi_follower(rng, n_followers=2, k=1, leader_coupling=(0.1, 0.5),
                                 follower_coupling=(0.02, 0.2), box=8.0):
    """One leader, several followers, weak follower-follower coupling."""
    n = n_followers + 1
    h = rng.uniform(0.5, 2.0, size=(n, k))
    cross = np.zeros((n, n, k))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            band = leader_coupling if (i == 0 or j == 0) else follower_coupling
            cross[i, j] = rng.uniform(*band, size=k)
    sigma = rng.uniform(0.05, 0.3, size=(n, k))
    price = rng.uniform(0.4, 1.2, size=n)
    return rs.make_spec(direct=h, cross=cross, noise=sigma, leaders=(0,),
                        action_min=0.0, action_max=box, price=price)


def interior_instance(rng, max_radius, kind="rse1", k=1, tries=50):
    """Random instance whose nominal and robust equilibria stay interior."""
    for _ in range(tries):
        spec = random_priced_two_player(rng, k=k)
        try:
            nse = rs.solve_nse(spec)
            if not nse.interior:
                continue
            if kind in ("rse1", "both"):
                if not rs.solve_rse1(spec, max_radius).interior:
                    continue
            if kind in ("rse2", "both"):
                if not rs.solve_rse2(spec, 0.0, max_radius).interior:
                    continue
            if float(np.min(np.abs(nse.utilities))) < 5e-3:
                continue
        except SOLVER_ERRORS:
            continue
        return spec, nse
    raise RuntimeError("could not draw an interior instance")


def random_state(rng, k):
    """A single-player differential state: gains, price, action, impact."""
    h = rng.uniform(0.2, 3.0, size=k)
    c = rng.uniform(0.0, 1.0)
    a = rng.uniform(0.0, 3.0, size=k)
    f = rng.uniform(0.1, 3.0, size=k)
    spec = rs.make_spec(direct=h[None, :], cross=np.zeros((1, 1, k)),
                        noise=0.05, leaders=(), action_min=0.0,
                        action_max=10.0, price=[c])
    return spec, a, f
