"""Vectorized Monte Carlo pipeline for two-player budgeted ensembles.

The cumulative-distribution study needs thousands of budgeted bi-level solves,
so this module runs the whole ensemble in lockstep: all instances (and all
finite-difference candidates) move through the follower's robust waterfilling
and the leader's projected gradient ascent as stacked arrays.  The follower's
response is the exact saddle point of its max-min problem, one row per
instance, from the same kernel as the per-instance solvers
(`budget.robust_waterfill_batch`: closed-form channels for a fixed water
level and ball multiplier, bracketed Newton steps in both); it raises
`IterationLimitError` rather than return an unconverged row.  Results agree
with the per-instance solvers up to the shared ascent heuristic; a test
cross-checks the two paths.
"""

from dataclasses import dataclass

import numpy as np

from ..budget import (project_box_budget_batch, robust_waterfill_batch,
                      waterfill_batch)
from ..errors import ConfigError
from . import channels


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


def batch_from_config(config, n_instances):
    if config.n_players != 2:
        raise ConfigError("the vectorized Monte Carlo path is two-player")
    if config.utility.get("kind") != "budgeted":
        raise ConfigError("the cdf study runs on the budgeted model")
    leader = config.leaders[0]
    fol = 1 - leader
    gains = np.stack([channels.generate_channels(config, i)
                      for i in range(n_instances)])
    k = config.n_dims
    noise = np.broadcast_to(np.asarray(config.noise, dtype=float), (2, k))
    lo = np.broadcast_to(np.asarray(config.action_min, dtype=float), (2, k))
    hi = np.broadcast_to(np.asarray(config.action_max, dtype=float), (2, k))
    budget = np.broadcast_to(np.asarray(config.utility["budget"], dtype=float), (2,))
    return TwoPlayerBatch(
        h00=gains[:, leader, leader, :], h01=gains[:, leader, fol, :],
        h10=gains[:, fol, leader, :], h11=gains[:, fol, fol, :],
        sigma0=np.broadcast_to(noise[leader], (n_instances, k)).copy(),
        sigma1=np.broadcast_to(noise[fol], (n_instances, k)).copy(),
        lo0=lo[leader].copy(), hi0=hi[leader].copy(),
        lo1=lo[fol].copy(), hi1=hi[fol].copy(),
        p0=float(budget[leader]), p1=float(budget[fol]),
    ), gains


def follower_response_batch(batch, a0, eps):
    """Robust waterfill of the follower against stacked leader actions.

    The follower sees the impact f = sigma1 + h10 * a0 and plays the
    saddle point of its max-min problem over the eps-ball of observations,
    one exact solve per row (`budget.robust_waterfill_batch`); eps = 0 is
    the nominal waterfill.
    """
    f = batch.sigma1 + batch.h10 * a0
    return robust_waterfill_batch(f, batch.h11, batch.lo1, batch.hi1,
                                  batch.p1, eps)[0]


def _leader_value_batch(batch, h00, h01, sigma0, a0, a1):
    f0 = sigma0 + h01 * a1
    return np.log1p(h00 * a0 / f0).sum(axis=1)


def _value_of(batch, a0, eps):
    a1 = follower_response_batch(batch, a0, eps)
    return _leader_value_batch(batch, batch.h00, batch.h01, batch.sigma0,
                               a0, a1)


def leader_ascent_batch(batch, eps, n_steps=50, seed=0, restarts=3,
                        extra_starts=()):
    """Lockstep projected gradient ascent of all leaders at once.

    Starts are deterministic (waterfill against a quiet and a busy follower,
    a uniform spread, then fixed Dirichlet draws), so the nominal and robust
    solves explore paired basins and their local-maximum noise cancels in
    difference metrics.  `extra_starts` prepends known-good points, e.g. the
    nominal solution as a continuation start for a small-radius robust solve.
    """
    b, k = batch.h00.shape
    rng = np.random.default_rng(seed)
    starts = [np.array(s0, dtype=float) for s0 in extra_starts]
    f_quiet = batch.sigma0 / batch.h00
    starts.append(waterfill_batch(f_quiet, batch.lo0, batch.hi0,
                                  np.full(b, batch.p0)))
    a1_full = waterfill_batch(batch.sigma1 / batch.h11, batch.lo1, batch.hi1,
                              np.full(b, batch.p1))
    f_busy = (batch.sigma0 + batch.h01 * a1_full) / batch.h00
    starts.append(waterfill_batch(f_busy, batch.lo0, batch.hi0,
                                  np.full(b, batch.p0)))
    starts.append(project_box_budget_batch(
        np.full((b, k), batch.p0 / k), batch.lo0, batch.hi0, batch.p0))
    while len(starts) < restarts:
        w = rng.dirichlet(np.ones(k), size=b) * batch.p0
        starts.append(project_box_budget_batch(w, batch.lo0, batch.hi0,
                                               batch.p0))

    best_a0 = None
    best_val = np.full(b, -np.inf)
    h_fd = 1e-6 * max(1.0, batch.p0)
    for start in starts[:max(restarts, 1) + len(extra_starts)]:
        a0 = start.copy()
        val = _value_of(batch, a0, eps)
        step = np.full(b, 0.25 * batch.p0)
        for _ in range(n_steps):
            # batched central differences: 2K candidates per instance
            pert = np.repeat(a0[:, None, :], 2 * k, axis=1)
            cols = np.arange(k)
            pert[:, 2 * cols, cols] += h_fd
            pert[:, 2 * cols + 1, cols] -= h_fd
            pert = np.clip(pert, batch.lo0, batch.hi0)
            flat = pert.reshape(b * 2 * k, k)
            rep = TwoPlayerBatch(
                h00=np.repeat(batch.h00, 2 * k, axis=0),
                h01=np.repeat(batch.h01, 2 * k, axis=0),
                h10=np.repeat(batch.h10, 2 * k, axis=0),
                h11=np.repeat(batch.h11, 2 * k, axis=0),
                sigma0=np.repeat(batch.sigma0, 2 * k, axis=0),
                sigma1=np.repeat(batch.sigma1, 2 * k, axis=0),
                lo0=batch.lo0, hi0=batch.hi0, lo1=batch.lo1, hi1=batch.hi1,
                p0=batch.p0, p1=batch.p1)
            vals = _value_of(rep, flat, eps).reshape(b, 2 * k)
            grad = (vals[:, 2 * cols] - vals[:, 2 * cols + 1]) / (2 * h_fd)
            moved = np.zeros(b, dtype=bool)
            for _bt in range(10):
                cand = project_box_budget_batch(a0 + step[:, None] * grad,
                                                batch.lo0, batch.hi0, batch.p0)
                cv = _value_of(batch, cand, eps)
                improved = cv > val + 1e-14
                a0[improved] = cand[improved]
                val[improved] = cv[improved]
                moved |= improved
                step[improved] *= 1.4
                step[~improved & ~moved] *= 0.5
                if improved.all():
                    break
            if not moved.any() and float(step.max()) < 1e-10 * batch.p0:
                break
        better = val > best_val
        if best_a0 is None:
            best_a0, best_val = a0, val
        else:
            best_a0[better] = a0[better]
            best_val[better] = val[better]
    return best_a0


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


def _slice_batch(batch, sel):
    return TwoPlayerBatch(
        h00=batch.h00[sel], h01=batch.h01[sel], h10=batch.h10[sel],
        h11=batch.h11[sel], sigma0=batch.sigma0[sel], sigma1=batch.sigma1[sel],
        lo0=batch.lo0, hi0=batch.hi0, lo1=batch.lo1, hi1=batch.hi1,
        p0=batch.p0, p1=batch.p1)


def monte_carlo_cdf(config, eps=None, n_steps=40, restarts=None,
                    chunk_size=250):
    """Empirical CDF of the follower's relative utility change under case 1.

    Solves the budgeted nominal and case-1 robust games for every ensemble
    instance in lockstep (in chunks, to keep the stacked arrays a sensible
    size), forms d1 = (w1_rse1 - w1_nse) / w1_nse, and returns the sorted CDF
    plus the fraction of instances with d1 > 0.  Instances whose nominal
    follower utility is numerically zero are excluded and counted; more than
    5% exclusions fails the run.
    """
    eps = float(max(e for e in config.eps_grid) if eps is None else eps)
    restarts = config.restarts if restarts is None else restarts
    batch, _ = batch_from_config(config, config.ensemble_size)
    d1_parts = []
    excluded = 0
    for start in range(0, config.ensemble_size, chunk_size):
        sel = slice(start, min(start + chunk_size, config.ensemble_size))
        part = _slice_batch(batch, sel)
        a0_nse = leader_ascent_batch(part, 0.0, n_steps=n_steps,
                                     seed=config.rng_seed, restarts=restarts)
        a1_nse = follower_response_batch(part, a0_nse, 0.0)
        # continuation: the nominal optimum seeds the robust ascent so basin
        # lottery between the paired solves cancels in the difference metric
        a0_r = leader_ascent_batch(part, eps, n_steps=n_steps,
                                   seed=config.rng_seed, restarts=restarts,
                                   extra_starts=(a0_nse,))
        a1_r = follower_response_batch(part, a0_r, eps)
        w1_nse = np.log1p(part.h11 * a1_nse
                          / (part.sigma1 + part.h10 * a0_nse)).sum(axis=1)
        w1_r = np.log1p(part.h11 * a1_r
                        / (part.sigma1 + part.h10 * a0_r)).sum(axis=1)
        ok = np.abs(w1_nse) > 1e-12
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
