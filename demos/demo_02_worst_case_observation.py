"""Geometry of the worst-case observation.

A player who distrusts its interference reading by an l2 radius plays
against the ball point minimizing its utility.  Because utility decreases in
the impact, the worst case inflates every dimension, lands exactly on the
ball surface, and aligns with the (normalized) utility gradient.  We check
the exact KKT point against brute-force sampling and show the one-step
evaluation (direction taken at the nominal point) differs at second order.
"""

import numpy as np

import rsgame as rs

spec = rs.make_spec(direct=[[1.0, 1.5, 0.8]], cross=np.zeros((1, 1, 3)),
                    noise=0.05, leaders=(), action_max=10.0, price=[0.5])
action = np.array([1.0, 0.4, 1.7])
nominal = np.array([0.6, 0.9, 0.4])
eps = 0.1

wco = rs.worst_case_observation(spec, 0, action, nominal, eps)
print("nominal impact   :", nominal)
print("worst observation:", np.round(wco.values, 6))
print("direction        :", np.round(wco.direction, 6))
print(f"ball constraint  : |f* - f| = {np.linalg.norm(wco.values - nominal):.6f}"
      f" (radius {eps})")
res = rs.complementary_slackness_residual(spec, 0, action, nominal, eps, wco)
print(f"optimality residual: {res:.2e}")

# brute force: sample many surface points, none should beat the KKT point
rng = np.random.default_rng(0)
dirs = rng.standard_normal((20000, 3))
dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
samples = nominal[None, :] + eps * dirs
u_star = rs.utility(spec, 0, action, wco.values)
u_samples = np.array([rs.utility(spec, 0, action, s) for s in samples])
print(f"\nexact KKT point utility: {u_star:.8f}")
print(f"best sampled utility  : {u_samples.min():.8f}  "
      f"(gap {u_samples.min() - u_star:.2e}, never negative)")

# the one-step point takes the direction at the nominal point; halving the
# radius shrinks its error by about four
theta = rs.direction_vector(rs.derivatives(spec, 0, action, nominal))
print("\none-step vs exact KKT point (second-order gap):")
for radius in (0.2, 0.1, 0.05):
    exact = rs.worst_case_observation(spec, 0, action, nominal, radius)
    one = nominal - radius * theta
    gap = np.max(np.abs(exact.values - one))
    print(f"  radius {radius:4}: gap {gap:.3e}")
