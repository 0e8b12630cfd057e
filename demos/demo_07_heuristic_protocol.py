"""Multi-leader heuristic: pick the most damaging leader, play robustly.

With several leaders and uncertain information the cooperative bi-level
problem is intractable, so the protocol walks the leader candidates in
order, demotes everyone else to follower, and selects the first candidate
whose negative impact on the rest dominates its own marginal rate (C7) while
every follower's own rate dominates its outgoing impacts (C8), both checked
at the full-power status quo.  Playing the case-2 robust game with the
selected leader then raises the social utility of everyone else.
"""

import numpy as np

import rsgame as rs
from rsgame.harness import cooperative_leaders_nse, heuristic_leader_selection

# two leaders (0, 1) and one follower (2); leader 0 has brutal outgoing
# interference and weak incoming gains: the classic candidate.  Prices are
# calibrated so that every player has an interior optimum: each other
# player's at a target action against leader 0's target, and leader 0's from
# its bi-level first-order condition through the others' affine reactions.
rng = np.random.default_rng(7)
k, sigma = 2, 1.5
cross = rng.uniform(0.003, 0.012, size=(3, 3, k))
for p in (1, 2):
    cross[p, 0] = rng.uniform(1.5, 2.5, size=k)
    cross[0, p] = rng.uniform(0.02, 0.06, size=k)
direct = rng.uniform(1.0, 1.6, size=(3, k))
a0_t = float(rng.uniform(0.5, 0.8)) * 1.2  # leader 0's target, box [0, 1.2]
a_max = np.full((3, k), 1.2)
price = np.empty(3)
for p in (1, 2):
    a_t = float(rng.uniform(0.4, 0.7))
    f_t = sigma + cross[p, 0] * a0_t
    price[p] = float(np.mean(direct[p] / (f_t + direct[p] * a_t)))
    # headroom: the reaction stays unclamped even if leader 0 goes silent
    a_max[p] = a_t + float(np.max(cross[p, 0] * a0_t / direct[p])) + 0.4
f0, slope = sigma, 0.0
for p in (1, 2):
    a_p = np.mean(1.0 / price[p]
                  - (sigma + np.mean(cross[p, 0]) * a0_t) / direct[p])
    f0 += np.mean(cross[0, p]) * a_p
    slope -= np.mean(cross[0, p]) * np.mean(cross[p, 0]) / np.mean(direct[p])
h0 = float(np.mean(direct[0]))
price[0] = h0 / (f0 + h0 * a0_t) - slope * h0 * a0_t / (f0 * (f0 + h0 * a0_t))
spec = rs.make_spec(direct=direct, cross=cross, noise=sigma, leaders=(0, 1),
                    action_max=a_max, price=price)

selection = heuristic_leader_selection(spec, delta_per_leader=0.3)
for rep in selection.reports:
    print(f"candidate {rep.candidate}: C7 {rep.c7_all}  C8 {rep.c8_all}")
if selection.no_eligible_leader:
    print("no eligible leader: the protocol ends without a robust game")
    raise SystemExit(0)
print(f"selected leader: {selection.selected}\n")

demoted, nse, rse2 = selection.run_plan(spec)
cert = rs.uniqueness_certificate(demoted)
print(f"demoted game certified unique followers' equilibrium: {cert.is_p_matrix}")
others = [n for n in range(3) if n != selection.selected]
before = sum(nse.utilities[n] for n in others)
after = sum(rse2.utilities[n] for n in others)
print(f"social utility excluding the selected leader: "
      f"{before:.4f} -> {after:.4f} ({'up' if after > before else 'down'})")

# reference point: the cooperative multi-leader equilibrium
coop = cooperative_leaders_nse(spec, restarts=4)
print(f"\ncooperative leaders' joint equilibrium, per-player utilities: "
      f"{coop.utilities.round(4)}")
print("(the heuristic trades some leader utility for a guaranteed direction "
      "of everyone else's total)")
