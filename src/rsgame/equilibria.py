"""Best responses, followers' Nash iteration, and bi-level equilibrium solvers.

The bi-level solvers come in three flavours sharing one engine:

* `solve_nse`   — nominal game, exact follower responses;
* `solve_rse1`  — followers respond to worst-case observations (radius eps);
* `solve_rse2`  — additionally the leader plans with worst-case knowledge of
  its gain toward each follower (radius delta), then commits, and is realized
  against followers using the true gains.

The leader's search depends on the utility model.  Priced games split each
leader coordinate at the followers' reaction kinks and maximize every
piece; the same search, over every leader's coordinates, serves the
cooperative leaders of `harness.protocol`.  Budgeted games run the lockstep
leader engine (`rsgame.lockstep`) with one instance, the same engine the
Monte Carlo pipeline runs on whole ensembles; `diagnostics.notes` records
its kernel calls, its ascent steps and the gap between the best and the
runner-up start's leader value.

Utilities reported in an EquilibriumResult are always realized values:
evaluated at the true parameters and nominal observations.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import budget as budget_mod
from . import game, lockstep, robust
from .errors import (CombinatorialLimitError, DegenerateModelError,
                     InapplicableFormulaError, InvalidSpecError,
                     IterationLimitError)
from .numerics import maximize_scalar

_BOUNDARY_EPS = 1e-9
_BR_TOL = 1e-13     # the priced robust best response's fixed-point residual
_BR_ITERS = 300     # and its iterate limit
_LEADER_TOL = 1e-9  # leader action shift that ends the priced search's sweeps
_LEADER_SWEEPS = 60  # and its sweep limit


@dataclass(frozen=True)
class Diagnostics:
    """Solver telemetry attached to every equilibrium result.

    `iterations` counts `followers_nash`'s Newton steps (one for a lone
    follower) and a bi-level solve's leader sweeps or ascent steps.
    """

    iterations: int
    residual: float
    boundary: np.ndarray  # (N, K) bool: action within 1e-9 of its bound
    notes: dict

    def __post_init__(self):
        flags = np.asarray(self.boundary, dtype=bool)
        flags.setflags(write=False)
        object.__setattr__(self, "boundary", flags)


@dataclass(frozen=True)
class EquilibriumResult:
    kind: str  # NSE | RSE1 | RSE2 | RNE | NE
    profile: game.ActionProfile
    utilities: np.ndarray  # realized, per player
    social: float
    diagnostics: Diagnostics

    def __post_init__(self):
        object.__setattr__(self, "utilities", game._freeze(self.utilities))

    @property
    def interior(self):
        return not bool(self.diagnostics.boundary.any())


@dataclass(frozen=True)
class UniquenessCertificate:
    """Box-wide curvature-bound matrix and its P-matrix verdict.

    The bounds are the exact inf/sup over the action box, so `is_p_matrix=True`
    certifies a unique followers' equilibrium; being box-wide, the bounds are
    conservative, and `False` does not rule uniqueness out.
    """

    upsilon: np.ndarray    # (Nf, Nf)
    alpha_min: np.ndarray  # (Nf,)
    beta_max: np.ndarray   # (Nf, Nf), zero diagonal
    is_p_matrix: bool


def realized_utilities(spec, actions):
    """Per-player utilities of a full action matrix at true parameters."""
    a = game.as_actions(actions)
    impacts = game.all_impacts(spec, a)
    game._check_impact(impacts)
    players = np.arange(spec.n_players)
    h = spec.cross_gain[players, players]
    price = (spec.utility_model.price if spec.is_priced
             else np.zeros(spec.n_players))
    return (np.log1p(h * a / impacts) - price[:, None] * a).sum(axis=1)


def _make_result(kind, spec, actions, iterations, residual, notes=None):
    utils = realized_utilities(spec, actions)
    with np.errstate(invalid="ignore"):
        boundary = ((actions - spec.action_min < _BOUNDARY_EPS)
                    | (spec.action_max - actions < _BOUNDARY_EPS))
    diag = Diagnostics(iterations=iterations, residual=residual,
                       boundary=boundary, notes=notes or {})
    return EquilibriumResult(kind=kind, profile=game.ActionProfile(actions),
                             utilities=utils, social=float(utils.sum()),
                             diagnostics=diag)


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def _priced_reaction(spec, players):
    """Box-clamped solution of the priced first-order condition.

    `players` is a list of player indices; returns the function of their
    (Nf, K) observed impacts f_obs that gives the (Nf, K) reactions
    1/c - f_obs/h, clamped to the box.  A zero direct gain gives the floor
    and a zero price the ceiling, which must be finite there.  The
    reaction's slope in f_obs is -1/h where it lies strictly inside the box
    and 0 on a bound.
    """
    rows = np.asarray(players)
    h = spec.cross_gain[rows, rows]
    usable = h > 0
    h = np.where(usable, h, 1.0)
    with np.errstate(divide="ignore"):
        level = 1.0 / spec.utility_model.price[rows, None]
    lo, hi = spec.action_min[rows], spec.action_max[rows]

    def react(f_obs):
        a = np.minimum(np.maximum(
            np.where(usable, level - f_obs / h, -np.inf), lo), hi)
        if math.isinf(a.max()):
            raise DegenerateModelError(
                "zero price with an unbounded action box has no optimum")
        return a

    return react


def _affine_reactions(spec, eps):
    """Whether priced followers with observation radii `eps` react affinely.

    They do at K = 1, where the worst observation is f + eps, and wherever
    every radius is zero, where the game separates by dimension; each then
    reacts to f + eps in closed form.
    """
    return spec.is_priced and (spec.n_dims == 1
                               or not np.any(np.asarray(eps) > 0))


def follower_best_response(spec, player, others, eps):
    """Utility-maximizing action of `player` against fixed other players.

    With eps > 0 the response maximizes the worst-case utility over the
    eps-ball of observations.  The budgeted model's response is the robust
    waterfill for every eps (at eps = 0 the nominal waterfill).  The priced
    model's is the closed-form reaction to f + eps where it is affine
    (`_affine_reactions`: eps = 0 or K = 1).  Only at K > 1 with eps > 0
    does it react to the exact worst-case observation, by a damped
    fixed-point loop to `_BR_TOL`, which raises `IterationLimitError` after
    `_BR_ITERS` iterates.
    """
    if player not in spec.followers:
        raise InvalidSpecError(f"player {player} is not a follower")
    if eps < 0:
        raise InvalidSpecError("eps must be nonnegative")
    f_nom = game.aggregate_impact(spec, others, player)
    return _response(spec, player, f_nom, eps)[0]


def _response(spec, player, f_nom, eps):
    """`follower_best_response` to the nominal impact f_nom (K,), and the
    observation it reacts to: (action, observation)."""
    if spec.is_budgeted:
        return tuple(x[0] for x in budget_mod.robust_waterfill_batch(
            f_nom[None], spec.direct_gain(player)[None],
            spec.action_min[player], spec.action_max[player],
            spec.budget(player), eps))
    react = _priced_reaction(spec, player)
    if _affine_reactions(spec, eps):
        f_obs = f_nom + eps
        return react(f_obs), f_obs
    a = react(f_nom)
    # the worst case is evaluated just above zero actions: the limiting
    # direction there is the saddle selection (an exactly-zero action has a
    # degenerate gradient, which would otherwise cycle at the knife edge
    # where the robust response shuts a dimension down)
    floor = 1e-9
    damping, best_res, stall = 1.0, np.inf, 0
    for it in range(_BR_ITERS):
        wco = robust.worst_case_observation(spec, player, np.maximum(a, floor),
                                            f_nom, eps)
        a_next = react(wco.values)
        if it >= 3:
            a_next = (1.0 - damping) * a + damping * a_next
        res = float(np.max(np.abs(a_next - a)))
        a = a_next
        if res < _BR_TOL:
            return a, wco.values
        if res > 0.9 * best_res:
            stall += 1
            if stall >= 10:
                damping = max(0.05, damping * 0.5)
                stall = 0
        else:
            best_res, stall = res, 0
    raise IterationLimitError("robust best response did not converge",
                              last_iterate=a, residual=res)


def followers_nash(spec, leaders_profile, eps=0.0):
    """Followers' Nash equilibrium against the leaders in `leaders_profile`.

    From the profile's follower rows (zeros are fine), to `lockstep.NASH_TOL`;
    it returns the best responses, so a follower clamped at a bound sits
    exactly on it.  Two or more followers are solved by `lockstep.nash`,
    Newton steps on the followers' reactions, and `diagnostics.iterations`
    counts them; a lone follower responds once.  An `IterationLimitError`
    of either carries the last (N, K) profile.
    """
    unc = robust.coerce_uncertainty(spec, eps=eps)
    actions, steps, res = _followers_fixed_point(spec, leaders_profile, unc)
    kind = "RNE" if np.any(unc.obs_radius > 0) else "NE"
    return _make_result(kind, spec, actions, iterations=steps, residual=res)


def _followers_fixed_point(spec, leaders_profile, unc):
    """`followers_nash` without the result: (actions, steps, res)."""
    actions = game.as_actions(leaders_profile).copy()
    fol = list(spec.followers)
    if not fol:
        return actions, 0, 0.0
    if len(fol) == 1:  # its own action does not move its impact
        n = fol[0]
        actions[n] = follower_best_response(spec, n, actions, unc.obs_radius[n])
        return actions, 1, 0.0
    eps = unc.obs_radius[fol]
    gains, lead = spec.cross_gain[fol], list(spec.leaders)
    base = spec.noise[fol] + np.einsum("nmk,mk->nk", gains[:, lead],
                                       actions[lead])
    cross = gains[:, fol] * (1.0 - np.eye(len(fol)))[..., None]
    lo, hi = spec.action_min[fol], spec.action_max[fol]
    h = spec.cross_gain[fol, fol]
    if _affine_reactions(spec, eps):
        base, react = base + eps[:, None], _priced_reaction(spec, fol)
        slope = -np.divide(1.0, h, out=np.zeros_like(h), where=h > 0)

        def respond(f, rows):
            return react(f[0])[None, None]

        def jacobian(eq, rows):  # -diag(free/h): per dimension a box LCP
            free = (lo < eq[0, 0]) & (eq[0, 0] < hi)
            return (np.where(free, slope, 0.0)[None, ..., None]
                    * np.eye(spec.n_dims))
    else:
        def respond(f, rows):
            acts, obs = zip(*(_response(spec, n, f[0, i], eps[i])
                              for i, n in enumerate(fol)))
            return np.stack([acts, f[0], obs])[None]

        def jacobian(eq, rows):
            return budget_mod.robust_waterfill_jacobian(
                eq[0, 1], h, lo, hi, eq[0, 0], eq[0, 2],
                pinned=spec.is_priced)[None]

    try:
        eq, steps, residual = lockstep.nash(respond, jacobian, base[None],
                                            cross[None], actions[None, fol],
                                            lo, hi)
    except IterationLimitError as exc:
        if np.ndim(exc.last_iterate) == 3:  # the solve's, not a response's
            actions[fol] = exc.last_iterate[0]
            exc.last_iterate = actions
        raise
    actions[fol] = eq[0, 0]
    return actions, steps, float(residual[0])


# ---------------------------------------------------------------------------
# bi-level solvers
# ---------------------------------------------------------------------------

def _single_leader(spec):
    if len(spec.leaders) != 1:
        raise InvalidSpecError(
            "this solver handles exactly one leader; use the harness protocol "
            "or the cooperative objective for several")
    return spec.leaders[0]


def _bilevel_priced(model_spec, unc, leaders, start=None):
    """Maximize the leaders' summed believed utility with follower Nash embedded.

    The search is coordinate-wise over every (leader, dimension) coordinate
    of the `leaders` (a list of player indices).
    Along one coordinate the followers' reaction is piecewise smooth: each
    piece keeps a fixed set of follower actions clamped at a box bound, and
    the pieces meet at kinks where a follower action reaches its floor or
    ceiling.  The leaders' utility need not be unimodal across a kink
    (crushing a follower can beat coexisting with it), so each coordinate
    search locates the kinks, maximizes on every piece and keeps the best of
    the piece optima and the piece ends.  Kinks are located to adjacent
    floats and their clamped side is kept, so a follower switched off at a
    kink is returned exactly on its bound.  Exact in one sweep for one
    leader whose followers react affinely (`_affine_reactions`): the game
    then separates by dimension, and each coordinate search maximizes one
    dimension's share.  Otherwise cyclic sweeps from `start` (the box floors
    by default) until a sweep moves no leader action by `_LEADER_TOL`, at
    most `_LEADER_SWEEPS` of them.  Each evaluation solves the followers'
    Nash equilibrium (`_followers_fixed_point`, exact for affine reactions),
    seeded with the previous solve's profile (the box floors at first).

    Returns the (L, K) actions, the value reached, the sweeps, whether the
    last sweep converged and the number of followers' Nash solves.
    """
    lo, hi = model_spec.action_min, model_spec.action_max
    followers = list(model_spec.followers)
    f_min = model_spec.action_min[followers]
    f_max = model_spec.action_max[followers]
    cache = {"profile": model_spec.action_min.copy(), "solves": 0}

    def leaders_value(a_l):
        """Summed believed leader utility and the followers' actions."""
        seed = cache["profile"].copy()
        seed[leaders] = a_l
        prof, _, _ = _followers_fixed_point(model_spec, seed, unc)
        cache["profile"] = prof.copy()
        cache["solves"] += 1
        total = sum(game.utility(model_spec, n, a_l[i],
                                 game.aggregate_impact(model_spec, prof, n))
                    for i, n in enumerate(leaders))
        return total, prof[followers]

    def coordinate_search(a_l, i, k):
        memo = {}
        x_lo, x_hi = lo[leaders[i], k], hi[leaders[i], k]

        def evaluate(x):
            if x not in memo:
                trial = a_l.copy()
                trial[i, k] = x
                memo[x] = leaders_value(trial)
            return memo[x]

        def value(x):
            return evaluate(x)[0]

        def clamped(x):  # -1 at the floor, +1 at the ceiling, 0 in between
            acts = evaluate(x)[1]
            return np.where(acts >= f_max, 1, np.where(acts <= f_min, -1, 0))

        state_lo, state_hi = clamped(x_lo), clamped(x_hi)
        ends = {x_lo, x_hi}
        for cell in zip(*np.nonzero(state_lo != state_hi)):
            for side in {state_lo[cell], state_hi[cell]} - {0}:
                bound = (f_max if side > 0 else f_min)[cell]
                free, held = ((x_lo, x_hi) if state_hi[cell] == side
                              else (x_hi, x_lo))
                ends.add(_locate_kink(
                    lambda x, cell=cell, bound=bound:
                        abs(evaluate(x)[1][cell] - bound), free, held))
        ends = sorted(ends)
        candidates = set(ends)
        for a, b in zip(ends[:-1], ends[1:]):
            # on a piece the utility is concave, or concave then convex
            # (exactly so for K = 1): falling at the piece's start, it has no
            # interior maximum and the piece ends cover it
            step = min(1e-5 * max(1.0, abs(a)), 0.25 * (b - a))
            if value(a + step) > value(a):
                candidates.add(maximize_scalar(value, a, b))
        best = max(sorted(candidates), key=value)
        return best, value(best)

    a_l = np.array(lo[leaders] if start is None else start, dtype=float)
    exact = (len(leaders) == 1
             and _affine_reactions(model_spec, unc.obs_radius[followers]))
    for sweep in range(1, _LEADER_SWEEPS + 1):
        shift = 0.0
        for i, k in np.ndindex(a_l.shape):
            best, reached = coordinate_search(a_l, i, k)
            shift = max(shift, abs(best - a_l[i, k]))
            a_l[i, k] = best
        converged = exact or shift < _LEADER_TOL
        if converged:
            break
    return a_l, reached, sweep, converged, cache["solves"]


def _locate_kink(gap, free, held):
    """Edge of the set where a follower action sits on one of its bounds.

    `gap(x)` is that action's distance to the bound: positive at `free`,
    zero at `held`.  Secant steps through the two latest free points land on
    the edge at once where the reaction is affine (eps = 0, or any eps for
    K = 1) and converge fast where it is smooth; a step that fails to halve
    the bracket is followed by a bisection step.  Returns the held end of a
    bracket of adjacent floats, so the follower there sits on its bound.
    """
    p, g_p, q = free, gap(free), held
    prev, secant = None, False
    while True:
        mid = 0.5 * (p + q)
        if mid == p or mid == q:
            return q
        x = mid
        if secant and g_p != prev[1]:
            root = p - g_p * (p - prev[0]) / (g_p - prev[1])
            # stay strictly inside so an accurate root closes the bracket
            t = min(max((root - p) / (q - p), 2.0**-20), 1.0 - 2.0**-20)
            x = p + t * (q - p)
        width = abs(q - p)
        g = gap(x)
        if g > 0.0:
            prev, p, g_p = (p, g_p), x, g
        else:
            q = x
        secant = prev is not None and abs(q - p) <= 0.5 * width


def _bilevel_budgeted(model_spec, unc, leader, restarts, seed):
    """The leader's budgeted problem: the lockstep engine's one-instance call.

    A projected gradient ascent from `lockstep.leader_starts`, heuristic by
    design (the follower reaction makes the objective only piecewise
    smooth).  Notes the engine's kernel calls, its ascent steps, the gap
    between the best and the runner-up start's leader value, and the
    leader-side residual |a0 - P(a0 + grad U0)| of the returned action.
    """
    stacked = lockstep.StackedGame.from_spec(model_spec, leader)
    ascent = lockstep.leader_ascent(
        stacked, unc.obs_radius[stacked.followers], restarts=restarts,
        seed=seed)
    notes = {"engine_calls": ascent.calls, "ascent_steps": ascent.steps,
             "start_gap": float(ascent.start_gap[0]),
             "leader_residual": float(ascent.residuals[0])}
    return ascent.actions[0], ascent.steps, notes


def _solve_bilevel(spec, unc, kind, believed_spec=None, restarts=20, seed=0,
                   notes=None):
    leader = _single_leader(spec)
    model_spec = believed_spec if believed_spec is not None else spec
    if spec.is_budgeted:
        a0, iters, search_notes = _bilevel_budgeted(model_spec, unc, leader,
                                                     restarts, seed)
    else:
        a_l, _, iters, _, solves = _bilevel_priced(model_spec, unc, [leader])
        a0, search_notes = a_l[0], {"nash_solves": solves}
    actions, nash = _realize(spec, unc, [leader], a0)
    notes = {"leader": leader, "follower_iterations": nash.diagnostics.iterations,
             **search_notes, **(notes or {})}
    if believed_spec is not None:
        # what the leader planned on: the followers' response under the
        # believed gains
        planned, _ = _realize(model_spec, unc, [leader], a0)
        f0_model = game.aggregate_impact(model_spec, planned, leader)
        notes["believed_leader_utility"] = game.utility(model_spec, leader, a0, f0_model)
    return _make_result(kind, spec, actions, iterations=iters,
                        residual=nash.diagnostics.residual, notes=notes)


def _realize(spec, unc, leaders, a_l):
    """Commit the leaders' actions and let the followers respond.

    The followers play their (robust) Nash equilibrium with the true gains;
    returns the full action matrix and that `followers_nash` result.
    """
    committed = spec.action_min.copy()
    committed[leaders] = a_l
    nash = followers_nash(spec, committed, eps=unc)
    return nash.profile.actions.copy(), nash


def solve_nse(spec, restarts=20, seed=0):
    """Nominal Stackelberg equilibrium of a single-leader game."""
    unc = robust.coerce_uncertainty(spec, eps=0.0)
    return _solve_bilevel(spec, unc, "NSE", restarts=restarts, seed=seed)


def solve_rse1(spec, eps, restarts=20, seed=0):
    """Robust Stackelberg equilibrium, case 1: noisy follower observations."""
    unc = robust.coerce_uncertainty(spec, eps=eps)
    return _solve_bilevel(spec, unc, "RSE1", restarts=restarts, seed=seed)


def solve_rse2(spec, eps, delta, restarts=20, seed=0):
    """Robust Stackelberg equilibrium, case 2: incomplete leader information.

    The leader plans against the uniformly shrunken worst-case gains toward
    each follower (and the followers' eps-robust responses), commits its
    action, and the outcome is realized with the true gains.  The
    (follower, leader) pairs whose radius exceeds the smallest nominal gain,
    where the believed gains clamp at zero, are listed in
    `diagnostics.notes["oversized_info_radius"]`.
    """
    leader = _single_leader(spec)
    unc = robust.coerce_uncertainty(spec, eps=eps, delta=delta)
    gains = np.array(spec.cross_gain)
    for nf in spec.followers:
        gains[nf, leader, :] = robust.worst_case_cross_gain(
            spec, nf, leader, unc.info_radius[nf, leader])
    believed = spec.with_cross_gain(gains)
    oversized = robust.oversized_info_radius(spec, unc)
    return _solve_bilevel(spec, unc, "RSE2", believed_spec=believed,
                          restarts=restarts, seed=seed,
                          notes={"oversized_info_radius": oversized})


# ---------------------------------------------------------------------------
# closed-form case-1 correction
# ---------------------------------------------------------------------------

def rse1_closed_form(spec, nse, eps, *, literal=False):
    """First-order case-1 strategies from the nominal equilibrium bundles.

    Default mode differentiates the leader's bi-level first-order condition
    through the follower reaction, giving actions whose gap to the numeric
    solver is O(eps^2).  `literal=True` keeps the classical one-sided
    correction (each player's shift computed with the other frozen at the
    nominal equilibrium), which carries an O(eps) gap in coupled games.

    Requires an interior nominal equilibrium of a priced one-leader,
    one-follower game.
    """
    if not spec.is_priced:
        raise InapplicableFormulaError("closed form requires the priced model")
    if len(spec.leaders) != 1 or len(spec.followers) != 1:
        raise InapplicableFormulaError("closed form is one-leader one-follower")
    if not nse.interior:
        raise InapplicableFormulaError(
            "nominal equilibrium touches the action box; first-order "
            "conditions do not hold")
    leader, follower = spec.leaders[0], spec.followers[0]
    a = nse.profile.actions
    b1 = game.derivatives(spec, follower, a[follower],
                          game.aggregate_impact(spec, a, follower))
    b0 = game.derivatives(spec, leader, a[leader],
                          game.aggregate_impact(spec, a, leader))
    if np.any(b1.hess_aa >= 0) or np.any(b0.hess_aa >= 0):
        raise InapplicableFormulaError("curvature vanishes at the equilibrium")
    theta = robust.direction_vector(b1)
    x01 = spec.cross_gain[leader, follower, :]
    x10 = spec.cross_gain[follower, leader, :]
    # follower reaction sensitivity to the radius, at a frozen leader action
    p = b1.hess_af * theta / b1.hess_aa
    if literal:
        d_a0 = -(b0.hess_af / b0.hess_aa) * x01 * p
        d_a1 = p
    else:
        r_slope = -(b1.hess_af / b1.hess_aa) * x10   # d a1 / d a0
        dg_deps = (b0.hess_af + x01 * r_slope * b0.hess_ff) * x01 * p
        norm_g = float(np.linalg.norm(b1.grad_f))
        if spec.n_dims > 1 and norm_g > 1e-14:
            # the unit worst-case direction itself moves with the leader's
            # action (its normalization couples the dimensions), which feeds
            # the reaction slope at first order; absent for one dimension
            q = (b1.hess_af * r_slope + b1.hess_ff * x10) / norm_g
            ratio = b1.hess_af / b1.hess_aa
            weight = x01 * b0.grad_f * ratio
            dg_deps = dg_deps + q * (weight - float(weight @ theta) * theta)
        dg_da0 = (b0.hess_aa + 2.0 * x01 * r_slope * b0.hess_af
                  + (x01 * r_slope) ** 2 * b0.hess_ff)
        if np.any(dg_da0 >= 0):
            raise InapplicableFormulaError(
                "leader's bi-level second-order condition fails at the "
                "nominal equilibrium")
        d_a0 = -dg_deps / dg_da0
        d_a1 = r_slope * d_a0 + p
    out = a.copy()
    out[leader] = np.clip(a[leader] + eps * d_a0,
                          spec.action_min[leader], spec.action_max[leader])
    out[follower] = np.clip(a[follower] + eps * d_a1,
                            spec.action_min[follower], spec.action_max[follower])
    return game.ActionProfile(out)


# ---------------------------------------------------------------------------
# uniqueness certificate
# ---------------------------------------------------------------------------

def uniqueness_certificate(spec):
    """Box-wide curvature-bound matrix for the followers' game.

    alpha_n is the smallest eigenvalue of the (diagonal) negated own Hessian,
    (H/(f + H a))^2, and beta_nm the spectral norm of the (diagonal) cross
    derivative, x_nm H/(f + H a)^2, both extremized over the joint action
    box.  Both curvatures fall as any player's action rises (f grows with
    the others' actions, f + H a with the own one), so the infimum of alpha
    is attained with every player at its ceiling and the supremum of beta
    with every player at its floor.  All principal minors of the resulting
    matrix positive certifies a unique followers' equilibrium (Scutari,
    Palomar & Barbarossa, IEEE Trans. IT 54(7), 2008).
    """
    followers = list(spec.followers)
    n_f = len(followers)
    if n_f > 12:
        raise CombinatorialLimitError(
            "exhaustive principal-minor check limited to 12 followers; use an "
            "eigenvalue bound on the symmetrized matrix instead (conservative)")
    lo, hi = spec.action_min, spec.action_max
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidSpecError("certificate needs a bounded action box")
    f_hi = game.all_impacts(spec, hi)  # every player at its ceiling
    f_lo = game.all_impacts(spec, lo)  # every player at its floor
    alpha = np.empty(n_f)
    beta = np.zeros((n_f, n_f))
    for i, n in enumerate(followers):
        alpha[i] = np.min(-game.derivatives(spec, n, hi[n], f_hi[n]).hess_aa)
        abs_af = np.abs(game.derivatives(spec, n, lo[n], f_lo[n]).hess_af)
        for j, m in enumerate(followers):
            if m != n:
                beta[i, j] = np.max(abs_af * spec.cross_gain[n, m, :])
    ups = np.diag(alpha) - beta
    return UniquenessCertificate(upsilon=ups, alpha_min=alpha, beta_max=beta,
                                 is_p_matrix=_all_principal_minors_positive(ups))


def _all_principal_minors_positive(mat):
    n = mat.shape[0]
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            sub = mat[np.ix_(idx, idx)]
            if np.linalg.det(sub) <= 0:
                return False
    return True


def is_p_matrix(mat):
    """Exhaustive principal-minor P-matrix test for a small square matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] != mat.shape[1]:
        raise InvalidSpecError("P-matrix test needs a square matrix")
    if mat.shape[0] > 12:
        raise CombinatorialLimitError("exhaustive minor check limited to 12x12")
    return _all_principal_minors_positive(mat)
