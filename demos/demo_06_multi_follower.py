"""Multi-follower games: uniqueness certification and monotone directions.

With several followers the simultaneous best-response iteration is only
guaranteed a unique fixed point when a curvature-bound matrix is a P-matrix.
We certify a weakly coupled instance, fail a strongly coupled one, and show
the certified game's monotone response to both uncertainty radii.
"""

import numpy as np

import rsgame as rs


def game(coupling):
    cross = np.full((3, 3, 1), coupling)
    cross[1, 0] = cross[2, 0] = 0.5   # the leader is felt clearly
    cross[0, 1] = cross[0, 2] = 0.15
    return rs.make_spec(direct=np.full((3, 1), 1.2), cross=cross, noise=1.2,
                        leaders=(0,), action_max=2.0,
                        price=[0.35, 0.45, 0.5])


weak = game(0.01)
strong = game(1.5)
for name, spec in (("weak", weak), ("strong", strong)):
    cert = rs.uniqueness_certificate(spec)
    print(f"{name} follower-follower coupling: curvature matrix")
    print(np.round(cert.upsilon, 4))
    print(f"  P-matrix (unique followers' equilibrium): {cert.is_p_matrix}\n")

print("certified game: responses over the radii")
nse = rs.solve_nse(weak)
print(f"  nominal: follower actions {nse.profile.actions[1:, 0].round(4)}, "
      f"leader utility {nse.utilities[0]:.4f}")
for eps in (0.05, 0.1):
    res = rs.solve_rse1(weak, eps)
    print(f"  eps  = {eps}: follower actions "
          f"{res.profile.actions[1:, 0].round(4)} (down), "
          f"leader utility {res.utilities[0]:.4f} (up)")
for delta in (0.1, 0.2):
    res = rs.solve_rse2(weak, 0.0, delta)
    print(f"  delta= {delta}: follower actions "
          f"{res.profile.actions[1:, 0].round(4)} (up), "
          f"leader utility {res.utilities[0]:.4f} (down)")
