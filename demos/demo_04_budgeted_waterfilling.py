"""Robust waterfilling under a total power budget, and overlap growth.

With a sum-power limit the best response fills power above per-channel
inverse qualities.  A robust follower's worst observation adds interference
where its power buys the most, so it moves power from its best channels
toward weaker ones and spreads over more of them.  Across a small ensemble
solved at the best of 32 leader starts, the follower uses more channels on
more instances than fewer, and so does the set of channels both players
share: a tendency, not a per-instance law.
"""

import numpy as np

import rsgame as rs
from rsgame.harness import ExperimentConfig, batch_from_config
from rsgame.harness.montecarlo import follower_response_batch, leader_ascent_batch

spec = rs.make_spec(direct=np.ones((2, 6)), cross=np.zeros((2, 2, 6)),
                    noise=0.1, leaders=(0,), action_max=10.0,
                    budget=[4.0, 4.0])
rng = np.random.default_rng(3)
impact = rng.uniform(0.2, 2.0, size=6)

nominal = rs.waterfill(spec, 1, impact, 4.0)
robust = rs.robust_waterfill(spec, 1, impact, 0.5, 4.0)
print("channel   impact   nominal   robust(eps=0.5)")
for k in range(6):
    print(f"{k:6d}   {impact[k]:6.3f}   {nominal[k]:7.4f}   {robust[k]:7.4f}")
print(f"totals            {nominal.sum():7.4f}   {robust.sum():7.4f}"
      "   (the budget always binds)")

# ensemble view: how do the follower's and the common channel counts move?
config = ExperimentConfig(
    n_players=2, n_dims=6, leaders=(0,),
    utility={"kind": "budgeted", "budget": [10.0, 10.0]},
    action_max=10.0, noise=0.01, channel_model="four_ray",
    rng_seed=11, ensemble_size=24, eps_grid=(0.0, 1.0), restarts=32,
)
batch, _ = batch_from_config(config, config.ensemble_size)
a0n = leader_ascent_batch(batch, 0.0, seed=1, restarts=config.restarts)
a1n = follower_response_batch(batch, a0n, 0.0)
a0r = leader_ascent_batch(batch, 1.0, seed=1, restarts=config.restarts,
                          extra_starts=(a0n,))
a1r = follower_response_batch(batch, a0r, 1.0)
thr = rs.activity_threshold(10.0, 6)
moves = {"follower": [0, 0, 0], "common": [0, 0, 0]}
for i in range(config.ensemble_size):
    before = rs.overlap_stats(np.vstack([a0n[i], a1n[i]]), thr)
    after = rs.overlap_stats(np.vstack([a0r[i], a1r[i]]), thr)
    for key, b, a in (("follower", before.sizes[1], after.sizes[1]),
                      ("common", before.common_sizes[(0, 1)],
                       after.common_sizes[(0, 1)])):
        moves[key][int(np.sign(a - b)) + 1] += 1
print(f"\nover {config.ensemble_size} drawn instances, nominal -> eps = 1.0:")
for key, (fell, same, rose) in moves.items():
    print(f"  {key:8s} channel count: fell {fell}, unchanged {same}, "
          f"rose {rose}")
print("(a statistical tendency, not a per-instance law)")
