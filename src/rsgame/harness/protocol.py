"""Multi-leader protocols: heuristic leader selection and cooperative leaders.

The heuristic walks the leader candidates in index order, demotes every other
player to follower, checks C7-C8 at the full-power status quo, and plays the
case-2 robust game with the first candidate that qualifies.  A no-candidate
outcome is a regular result, not an error.

The cooperative leaders of a priced game maximize their summed utility with
the bi-level solvers' own leader search (`equilibria._bilevel_priced`), run
over every leader's coordinates, and are realized as those solvers realize
one leader.
"""

from dataclasses import dataclass, replace

import numpy as np

from .. import analysis, equilibria, robust
from ..errors import InvalidSpecError
from ..budget import project_box_budget_batch


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
            actions[n] = project_box_budget_batch(
                np.full((1, spec.n_dims), spec.budget(n) / spec.n_dims),
                spec.action_min[n], spec.action_max[n], spec.budget(n))[0]
    if not np.all(np.isfinite(actions)):
        raise InvalidSpecError("full-power profile needs finite action boxes")
    return actions


@dataclass(frozen=True)
class CandidateReport:
    candidate: int
    c7_all: bool
    c8_all: bool

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

    def run_plan(self, spec, **solver_kwargs):
        """Execute the selected robust Stackelberg game.

        Returns the demoted spec, its nominal equilibrium and the case-2
        robust equilibrium at the candidate's info radius, with the followers
        observing exactly (eps = 0).  `solver_kwargs` (restarts, seed) go to
        both solvers.
        """
        if self.no_eligible_leader:
            raise InvalidSpecError("no eligible leader was selected")
        demoted = demote_to_single_leader(spec, self.selected)
        idx = list(spec.leaders).index(self.selected)
        nse = equilibria.solve_nse(demoted, **solver_kwargs)
        rse2 = equilibria.solve_rse2(demoted, 0.0, float(self.delta[idx]),
                                     **solver_kwargs)
        return demoted, nse, rse2


def heuristic_leader_selection(spec, delta_per_leader):
    """First leader candidate (in index order) satisfying C7-C8, if any.

    Every other player is treated as a follower of the candidate.  The
    conditions are evaluated at the full-power status-quo profile, a
    parameter-only screen: at interior equilibria the followers' own rates
    vanish, which would make C8 unsatisfiable.  Solves no equilibrium.
    """
    if len(spec.leaders) < 2:
        raise InvalidSpecError("the heuristic protocol needs at least two leaders")
    delta = np.broadcast_to(np.asarray(delta_per_leader, dtype=float),
                            (len(spec.leaders),)).copy()
    reports = []
    selected = -1
    for cand in spec.leaders:
        demoted = demote_to_single_leader(spec, cand)
        conds = analysis.check_conditions(demoted, full_power_profile(demoted))
        rep = CandidateReport(candidate=cand, c7_all=conds.all_k["c7"],
                              c8_all=conds.all_k["c8"])
        reports.append(rep)
        if rep.eligible:
            selected = cand
            break
    return LeaderSelection(selected=selected, reports=tuple(reports),
                           delta=delta)


def cooperative_leaders_nse(spec, eps=0.0, restarts=20, seed=0):
    """Leaders jointly maximize their summed utility with followers embedded.

    Priced games only.  Runs the bi-level solvers' kink-splitting coordinate
    search (`equilibria._bilevel_priced`) over all (leader, dimension)
    coordinates from `max(restarts, 1)` starts: the box floors, then uniform
    draws from `seed`.  The best start by the search's own value is realized
    once, as the single-leader solvers realize theirs: the leaders commit and
    the followers play their Nash equilibrium.  Reports the winning search's
    sweeps and the followers' Nash residual; notes the leaders' summed
    utility, whether that search's last sweep converged and the followers'
    Nash solves of every start's search.
    """
    leaders = list(spec.leaders)
    if not leaders:
        raise InvalidSpecError("need at least one leader")
    if spec.is_budgeted:
        raise InvalidSpecError("cooperative leaders need the priced model")
    rng = np.random.default_rng(seed)
    lo, hi = spec.action_min, spec.action_max
    unc = robust.coerce_uncertainty(spec, eps=eps)
    best, solves = None, 0
    for r in range(max(restarts, 1)):
        start = None if r == 0 else np.array(
            [lo[n] + rng.uniform(size=spec.n_dims)
             * (np.minimum(hi[n], lo[n] + 10 * (1 + lo[n])) - lo[n])
             for n in leaders])
        outcome = equilibria._bilevel_priced(spec, unc, leaders, start)
        solves += outcome[4]
        if best is None or outcome[1] > best[1]:
            best = outcome
    a_l, value, sweeps, converged, _ = best
    actions, nash = equilibria._realize(spec, unc, leaders, a_l)
    return equilibria._make_result(
        "NSE", spec, actions, iterations=sweeps,
        residual=nash.diagnostics.residual,
        notes={"leaders_social": value, "certified_ascent": converged,
               "nash_solves": solves})
