"""Multi-leader protocols: heuristic leader selection and cooperative leaders.

The heuristic walks the leader candidates in index order, demotes every other
player to follower, checks C7-C8 at the candidate-led nominal equilibrium,
and plays the case-2 robust game with the first candidate that qualifies.
A no-candidate outcome is a regular result, not an error.
"""

from dataclasses import dataclass, replace

import numpy as np

from .. import analysis, equilibria, game, robust
from ..errors import InvalidSpecError
from ..budget import project_box_budget
from ..numerics import maximize_scalar

# `cooperative_leaders_nse`
_LEADER_TOL = 1e-9  # leader action shift that ends an ascent
_MAX_SWEEPS = 80   # sweeps per ascent


def demote_to_single_leader(spec, leader):
    """Spec where `leader` leads and every other player follows."""
    followers = tuple(i for i in range(spec.n_players) if i != leader)
    return replace(spec, leaders=(leader,), followers=followers)


def full_power_profile(spec):
    """Everyone at maximum action: the pre-coordination status quo.

    Budgeted players spread their budget uniformly, clipped to the box.
    """
    actions = np.array(spec.action_max, dtype=float)
    if spec.is_budgeted:
        for n in range(spec.n_players):
            actions[n] = project_box_budget(
                np.full(spec.n_dims, spec.budget(n) / spec.n_dims),
                spec.action_min[n], spec.action_max[n], spec.budget(n))
    if not np.all(np.isfinite(actions)):
        raise InvalidSpecError("full-power profile needs finite action boxes")
    return actions


@dataclass(frozen=True)
class CandidateReport:
    candidate: int
    c7_all: bool
    c8_all: bool
    nse: object  # candidate-led EquilibriumResult

    @property
    def eligible(self):
        return self.c7_all and self.c8_all


@dataclass(frozen=True)
class LeaderSelection:
    """Outcome of the heuristic protocol: a selected leader or none."""

    selected: int       # candidate index, or -1 when none qualified
    reports: tuple      # CandidateReport per candidate examined
    delta: np.ndarray   # per-candidate info radius used by the run plan

    @property
    def no_eligible_leader(self):
        return self.selected < 0

    def run_plan(self, spec, eps=0.0, **solver_kwargs):
        """Execute the selected robust Stackelberg game.

        Returns the demoted spec, its nominal equilibrium and the case-2
        robust equilibrium at the candidate's info radius.
        """
        if self.no_eligible_leader:
            raise InvalidSpecError("no eligible leader was selected")
        demoted = demote_to_single_leader(spec, self.selected)
        idx = list(spec.leaders).index(self.selected)
        nse = equilibria.solve_nse(demoted, **solver_kwargs)
        rse2 = equilibria.solve_rse2(demoted, eps, float(self.delta[idx]),
                                     **solver_kwargs)
        return demoted, nse, rse2


def heuristic_leader_selection(spec, delta_per_leader, at="full_power",
                               **solver_kwargs):
    """First leader candidate (in index order) satisfying C7-C8, if any.

    Every other player is treated as a follower of the candidate.  The
    conditions are evaluated at the full-power status-quo profile by default
    (a parameter-only screen: at interior equilibria the followers' own rates
    vanish, which would make C8 unsatisfiable); pass `at="nse"` to evaluate
    at the candidate-led nominal equilibrium instead.
    """
    if len(spec.leaders) < 2:
        raise InvalidSpecError("the heuristic protocol needs at least two leaders")
    delta = np.broadcast_to(np.asarray(delta_per_leader, dtype=float),
                            (len(spec.leaders),)).copy()
    reports = []
    selected = -1
    for cand in spec.leaders:
        demoted = demote_to_single_leader(spec, cand)
        nse = None
        if at == "nse":
            nse = equilibria.solve_nse(demoted, **solver_kwargs)
            profile = nse
        else:
            profile = full_power_profile(demoted)
        conds = analysis.check_conditions(demoted, profile)
        rep = CandidateReport(candidate=cand, c7_all=conds.all_k["c7"],
                              c8_all=conds.all_k["c8"], nse=nse)
        reports.append(rep)
        if rep.eligible:
            selected = cand
            break
    return LeaderSelection(selected=selected, reports=tuple(reports),
                           delta=delta)


def cooperative_leaders_nse(spec, eps=0.0, restarts=20, seed=0):
    """Leaders jointly maximize their summed utility with followers embedded.

    Projected coordinate ascent over all (leader, dimension) coordinates with
    random restarts; budgeted leaders keep their own sum-power feasibility via
    projection after every sweep.  An ascent stops once a sweep moves no
    leader action by `_LEADER_TOL`, or after `_MAX_SWEEPS` sweeps.  The
    followers' equilibrium is re-solved (`equilibria.followers_nash`'s
    iteration) at every objective evaluation, so a non-certified followers'
    game can make this expensive.  Reports the winning ascent's sweeps and
    the followers' Nash residual; notes whether that ascent stalled.
    """
    leaders = list(spec.leaders)
    if not leaders:
        raise InvalidSpecError("need at least one leader")
    rng = np.random.default_rng(seed)
    lo, hi = spec.action_min, spec.action_max
    cache = {"profile": spec.action_min.copy()}
    unc = robust.coerce_uncertainty(spec, eps=eps)

    def social_of_leaders(actions_leaders):
        seed_prof = cache["profile"].copy()
        for i, n in enumerate(leaders):
            seed_prof[n] = actions_leaders[i]
        prof, _, res = equilibria._followers_fixed_point(spec, seed_prof, unc)
        cache["profile"] = prof.copy()
        total = 0.0
        for n in leaders:
            f_n = game.aggregate_impact(spec, prof, n).values
            total += game.utility(spec, n, prof[n], f_n)
        return total, prof, res

    def ascend(a_l):
        social_of_leaders(a_l)  # seeds the followers' iteration
        converged = False
        for sweeps in range(1, _MAX_SWEEPS + 1):
            shift = 0.0
            for i, n in enumerate(leaders):
                for k in range(spec.n_dims):
                    def fn(x, i=i, n=n, k=k):
                        trial = a_l.copy()
                        trial[i, k] = x
                        if spec.is_budgeted:
                            trial[i] = project_box_budget(trial[i], lo[n], hi[n],
                                                          spec.budget(n))
                        return social_of_leaders(trial)[0]

                    best = maximize_scalar(fn, lo[n, k], hi[n, k])
                    shift = max(shift, abs(best - a_l[i, k]))
                    a_l[i, k] = best
                if spec.is_budgeted:
                    a_l[i] = project_box_budget(a_l[i], lo[n], hi[n],
                                                spec.budget(n))
            if shift < _LEADER_TOL:
                converged = True
                break
        value, prof, residual = social_of_leaders(a_l)
        return a_l, value, prof, converged, sweeps, residual

    best = None
    for r in range(max(restarts, 1)):
        if r == 0:
            a_l = np.array([lo[n] for n in leaders])
        else:
            a_l = np.array([lo[n] + rng.uniform(size=spec.n_dims)
                            * (np.minimum(hi[n], lo[n] + 10 * (1 + lo[n])) - lo[n])
                            for n in leaders])
            if spec.is_budgeted:
                for i, n in enumerate(leaders):
                    a_l[i] = project_box_budget(a_l[i], lo[n], hi[n], spec.budget(n))
        outcome = ascend(a_l)
        if best is None or outcome[1] > best[1]:
            best = outcome
    a_l, value, prof, converged, sweeps, residual = best
    return equilibria._make_result(
        "NSE", spec, prof, iterations=sweeps, residual=residual,
        notes={"leaders_social": value, "certified_ascent": converged})
