"""Channel-gain ensembles: Rayleigh and four-ray fading, scenario filters.

Draws are deterministic in (rng_seed, instance_index), so instances can be
generated in any order (or in parallel) with identical results.
"""

import numpy as np

from ..errors import ConfigError, InfeasibleScenarioError

_MAX_REJECTION_DRAWS = 10**6
_N_RAYS = 4
# interference-ratio thresholds of the scenario filters
_HIGH, _LOW, _S1_HIGH = 0.9, 0.1, 0.8


def _link_rng_draw_rayleigh(rng, k):
    """Frequency-flat-per-dimension gains: |CN(0, 1)|^2, unit mean."""
    z = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    return np.abs(z) ** 2


def _link_draw_four_ray(rng, k):
    """Four equal-power complex taps, delays uniform over one symbol.

    Per-dimension gain is the squared magnitude of the frequency response at
    the K uniform frequencies; unit total tap power keeps the per-dimension
    marginal |CN(0, 1)|^2.
    """
    taps = (rng.standard_normal(_N_RAYS) + 1j * rng.standard_normal(_N_RAYS)) \
        / np.sqrt(2.0 * _N_RAYS)
    delays = rng.uniform(0.0, 1.0, _N_RAYS)
    freqs = np.arange(k) / k
    response = np.exp(-2j * np.pi * np.outer(freqs, delays)) @ taps
    return np.abs(response) ** 2


def _scenario_accept(scenario, h00, h01, h10, h11):
    r_lf = h10 / h11  # leader-to-follower interference ratio
    r_fl = h01 / h00  # follower-to-leader interference ratio
    if scenario.filter == "s1":
        return r_lf > _S1_HIGH and r_fl < _LOW
    if scenario.filter == "s2":
        return r_lf > _HIGH and r_fl > _HIGH
    if scenario.filter == "s3":
        return r_lf < _LOW and r_fl > _HIGH
    return True


def instance_rng(rng_seed, instance_index):
    """Independent, order-insensitive stream for one ensemble instance."""
    return np.random.default_rng([int(rng_seed), int(instance_index)])


def generate_channels(config, instance_index):
    """Gain tensor (N, N, K) for one instance of the configured ensemble.

    Scenario filters (two-player only) are applied by per-dimension rejection
    on the interference-ratio tests.  Filtered draws use the per-dimension
    complex-Gaussian marginal, which for the four-ray model is exact per
    dimension but drops the across-dimension tap correlation (whole-tensor
    rejection would be infeasible at realistic K).
    """
    if config.fixed_gains is not None:
        return np.asarray(config.fixed_gains, dtype=float)
    rng = instance_rng(config.rng_seed, instance_index)
    n, k = config.n_players, config.n_dims
    scenario = config.scenario
    if scenario.filter is None:
        draw = (_link_rng_draw_rayleigh if config.channel_model == "rayleigh"
                else _link_draw_four_ray)
        gains = np.empty((n, n, k))
        for i in range(n):
            for j in range(n):
                gains[i, j, :] = draw(rng, k)
    else:
        if n != 2:
            raise ConfigError("scenario filters are defined for two players")
        leader = config.leaders[0]
        fol = 1 - leader
        gains = np.empty((n, n, k))
        draws = 0
        for dim in range(k):
            while True:
                draws += 1
                if draws > _MAX_REJECTION_DRAWS:
                    raise InfeasibleScenarioError(
                        f"scenario {scenario.filter} rejection exceeded "
                        f"{_MAX_REJECTION_DRAWS} draws")
                z = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) \
                    / np.sqrt(2.0)
                h00, h01, h10, h11 = np.abs(z) ** 2
                if _scenario_accept(scenario, h00, h01, h10, h11):
                    break
            gains[leader, leader, dim] = h00
            gains[leader, fol, dim] = h01
            gains[fol, leader, dim] = h10
            gains[fol, fol, dim] = h11
    return gains
