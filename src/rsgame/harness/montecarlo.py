"""Vectorized Monte Carlo pipeline for two-player budgeted ensembles.

The cumulative-distribution study needs thousands of budgeted bi-level
solves.  It runs them on the lockstep leader engine (`rsgame.lockstep`),
the same engine `solve_nse`/`solve_rse1`/`solve_rse2` call with one
instance: the whole ensemble, every start and every trial step move
through the follower's robust waterfill (`budget.robust_waterfill_batch`,
one exact saddle solve per row) and the leader's projected gradient ascent
as stacked arrays, one kernel call per ascent step; the leader's gradient
comes exactly from the follower's response Jacobian at the saddle points
that call returned.  `TwoPlayerBatch` is the two-player view of the stacked
game.
"""

from dataclasses import dataclass

import numpy as np

from .. import analysis, lockstep
from ..errors import ConfigError
from . import channels

_N_STEPS = 40  # ascent steps per start
_CHUNK = 200   # instances per engine call


@dataclass(frozen=True)
class TwoPlayerBatch:
    """Stacked gains and limits of a two-player budgeted ensemble."""

    h00: np.ndarray  # (B, K) leader direct
    h01: np.ndarray  # (B, K) follower-to-leader
    h10: np.ndarray  # (B, K) leader-to-follower
    h11: np.ndarray  # (B, K) follower direct
    sigma0: np.ndarray
    sigma1: np.ndarray
    lo0: np.ndarray
    hi0: np.ndarray
    lo1: np.ndarray
    hi1: np.ndarray
    p0: float
    p1: float

    @property
    def stacked(self):
        """The `lockstep.StackedGame` with player 0 leading, 1 following."""
        k = self.h00.shape[1]
        gains = np.stack([np.stack([self.h00, self.h01], axis=1),
                          np.stack([self.h10, self.h11], axis=1)], axis=1)
        lo, hi = (np.array([np.broadcast_to(x0, (k,)), np.broadcast_to(x1, (k,))],
                           dtype=float)
                  for x0, x1 in ((self.lo0, self.lo1), (self.hi0, self.hi1)))
        return lockstep.StackedGame(
            gains=gains, noise=np.stack([self.sigma0, self.sigma1], axis=1),
            lo=lo, hi=hi, budget=np.array([self.p0, self.p1], dtype=float),
            leader=0)


def batch_from_config(config, n_instances):
    """The first `n_instances` of the ensemble as a `TwoPlayerBatch`, and
    their (B, 2, 2, K) gains; noise, boxes and budgets are the game's
    (`config.to_spec`), which every instance shares."""
    if config.n_players != 2:
        raise ConfigError("the vectorized Monte Carlo path is two-player")
    if config.utility.get("kind") != "budgeted":
        raise ConfigError("the cdf study runs on the budgeted model")
    gains = np.stack([channels.generate_channels(config, i)
                      for i in range(n_instances)])
    spec = config.to_spec(gains[0])
    leader, fol = spec.leaders[0], spec.followers[0]
    shape = (n_instances, spec.n_dims)
    return TwoPlayerBatch(
        h00=gains[:, leader, leader, :], h01=gains[:, leader, fol, :],
        h10=gains[:, fol, leader, :], h11=gains[:, fol, fol, :],
        sigma0=np.broadcast_to(spec.noise[leader], shape).copy(),
        sigma1=np.broadcast_to(spec.noise[fol], shape).copy(),
        lo0=spec.action_min[leader].copy(), hi0=spec.action_max[leader].copy(),
        lo1=spec.action_min[fol].copy(), hi1=spec.action_max[fol].copy(),
        p0=spec.budget(leader), p1=spec.budget(fol),
    ), gains


def follower_response_batch(batch, a0, eps):
    """Robust waterfill of the follower against stacked leader actions.

    The follower sees the impact f = sigma1 + h10 * a0 and plays the
    saddle point of its max-min problem over the eps-ball of observations,
    one exact solve per row (`lockstep.respond`); eps = 0 is the nominal
    waterfill.
    """
    return lockstep.respond(batch.stacked, a0, eps)[:, 0]


def leader_ascent_batch(batch, eps, n_steps=_N_STEPS, seed=0, restarts=3,
                        extra_starts=()):
    """Lockstep projected gradient ascent of all leaders at once.

    Each start takes at most `n_steps` steps, by default the `_N_STEPS` of
    `monte_carlo_cdf`.  Starts are deterministic (`lockstep.leader_starts`:
    waterfills against a quiet follower, a busy one and one at its
    ceilings, a uniform spread, then Dirichlet draws from `seed` up to
    `restarts`; fewer than four restarts keep the four), so the nominal
    and robust solves explore paired basins and their local-maximum noise
    cancels in difference metrics.
    `extra_starts` prepends known-good points, e.g. the nominal solution as
    a continuation start for a small-radius robust solve.
    """
    return lockstep.leader_ascent(batch.stacked, eps, restarts=restarts,
                                  seed=seed, n_steps=n_steps,
                                  extra_starts=extra_starts).actions


@dataclass(frozen=True)
class CdfResult:
    """Empirical distribution of a per-instance metric."""

    values: np.ndarray      # sorted metric values
    fractions: np.ndarray   # cumulative fractions, ending at 1
    positive_fraction: float
    excluded: int
    total: int
    eps_used: float
    metric: str = "d1_rse1"


def empirical_cdf(values):
    v = np.sort(np.asarray(values, dtype=float))
    frac = np.arange(1, v.size + 1) / v.size
    return v, frac


def monte_carlo_cdf(config):
    """Empirical CDF of the follower's relative utility change under case 1.

    Solves the budgeted nominal and case-1 robust games, at the largest
    radius of `config.eps_grid`, for every ensemble instance in lockstep,
    forms d1 = (w1_rse1 - w1_nse) / w1_nse, and returns the sorted CDF plus
    the fraction of instances with d1 > 0.
    Instances whose nominal follower utility is numerically zero are
    excluded and counted; more than 5% exclusions fails the run.

    Each start of `config.restarts` takes at most `_N_STEPS` ascent steps.
    The instances go through the engine in equal chunks of at most
    `_CHUNK`.  A kernel call holds up to chunk x starts x `lockstep.LADDER`
    rows and the kernel keeps some three dozen arrays of that many rows
    alive, so the chunk bounds the working set: 200 instances with the
    robust solve's five starts make calls of up to 6000 rows.  The
    2000-instance study (acceptance criterion 9) takes about 4.8 s and
    peaks at 48 MB resident, 29 MB of it the interpreter and numpy (a
    2-CPU x86-64 Linux machine, one thread).
    With at most four restarts every start is deterministic and the engine
    works row by row, so the chunk size does not change the CDF.  With
    more, `lockstep.leader_starts` draws the Dirichlet starts per chunk
    call, so the results depend on the chunk size.
    """
    eps = max(config.eps_grid)
    batch, _ = batch_from_config(config, config.ensemble_size)
    game = batch.stacked
    d1_parts = []
    excluded = 0
    n_chunks = -(-config.ensemble_size // _CHUNK)
    ascent = {"n_steps": _N_STEPS, "seed": config.rng_seed,
              "restarts": config.restarts}
    for sel in np.array_split(np.arange(config.ensemble_size), n_chunks):
        part = game.select(sel)
        nse = lockstep.leader_ascent(part, 0.0, **ascent)
        # continuation: the nominal optimum seeds the robust ascent so basin
        # lottery between the paired solves cancels in the difference metric
        rob = lockstep.leader_ascent(part, eps, extra_starts=(nse.actions,),
                                     **ascent)
        h10, h11, sigma1 = batch.h10[sel], batch.h11[sel], batch.sigma1[sel]
        w1_nse, w1_r = (np.log1p(h11 * res.followers[:, 0]
                                 / (sigma1 + h10 * res.actions)).sum(axis=1)
                        for res in (nse, rob))
        ok = np.abs(w1_nse) > analysis.ZERO_BASELINE
        excluded += int((~ok).sum())
        d1_parts.append((w1_r[ok] - w1_nse[ok]) / w1_nse[ok])
    if excluded > 0.05 * config.ensemble_size:
        raise RuntimeError(f"{excluded} of {config.ensemble_size} instances "
                           "excluded (limit is 5%)")
    d1 = np.concatenate(d1_parts)
    values, fractions = empirical_cdf(d1)
    return CdfResult(values=values, fractions=fractions,
                     positive_fraction=float((d1 > 0).mean()),
                     excluded=excluded, total=config.ensemble_size,
                     eps_used=eps)
