"""Interference-scenario CDF study, desk scale.

For each interference scenario we draw a filtered channel ensemble, solve
the nominal and case-1 robust budgeted games, and plot the empirical CDF of
the follower's relative utility change.  When both players interfere
strongly with each other (s2) the follower essentially never gains from its
own conservatism; in the asymmetric scenarios (s1, s3) a noticeable fraction
of instances leaves the follower better off — the opportunistic side effect
of mutual retreat.  The full-size study, 2000 instances of the s2
ensemble, is acceptance criterion 9.
"""

import os

import numpy as np

from rsgame.harness import ExperimentConfig, ScenarioSpec, monte_carlo_cdf
from rsgame.harness.svgplot import cdf_plot, write_svg

os.makedirs("out", exist_ok=True)
for scenario in ("s1", "s2", "s3"):
    config = ExperimentConfig(
        n_players=2, n_dims=4, leaders=(0,),
        utility={"kind": "budgeted", "budget": [10.0, 10.0]},
        action_max=10.0, noise=0.01, channel_model="four_ray",
        rng_seed=1, ensemble_size=80, eps_grid=(0.0, 0.05),
        scenario=ScenarioSpec(filter=scenario), restarts=3,
    )
    cdf = monte_carlo_cdf(config)
    print(f"{scenario}: fraction with follower d > 0 = "
          f"{cdf.positive_fraction:.3f}   "
          f"median d = {np.median(cdf.values):+.5f}")
    path = f"out/cdf_{scenario}.svg"
    write_svg(path, cdf_plot(cdf.values, cdf.fractions,
                             title=f"cdf of follower d, scenario {scenario}",
                             xlabel="d1"))
    print(f"   wrote {path}")
