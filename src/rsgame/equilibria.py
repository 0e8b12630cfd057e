"""Best responses, followers' Nash iteration, and bi-level equilibrium solvers.

The bi-level solvers come in three flavours sharing one engine:

* `solve_nse`   — nominal game, exact follower responses;
* `solve_rse1`  — followers respond to worst-case observations (radius eps);
* `solve_rse2`  — additionally the leader plans with worst-case knowledge of
  its gain toward each follower (radius delta), then commits, and is realized
  against followers using the true gains.

Utilities reported in an EquilibriumResult are always realized values:
evaluated at the true parameters and nominal observations.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import budget as budget_mod
from . import game, robust
from .errors import (CombinatorialLimitError, DegenerateModelError,
                     InapplicableFormulaError, InvalidSpecError,
                     IterationLimitError)
from .budget import project_box_budget
from .numerics import box_corners, latin_hypercube, maximize_scalar

_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class Diagnostics:
    """Solver telemetry attached to every equilibrium result."""

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
    """Empirical curvature-bound matrix and its P-matrix verdict.

    The inf/sup over the action set are sampled, so `is_p_matrix=True` is an
    empirical certificate: a false positive is possible if the sampled bounds
    miss the true extrema.
    """

    upsilon: np.ndarray    # (Nf, Nf)
    alpha_min: np.ndarray  # (Nf,)
    beta_max: np.ndarray   # (Nf, Nf), zero diagonal
    is_p_matrix: bool
    samples_used: int


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


def _boundary_flags(spec, actions):
    near_min = actions - spec.action_min < _BOUNDARY_EPS
    with np.errstate(invalid="ignore"):
        near_max = spec.action_max - actions < _BOUNDARY_EPS
    return near_min | near_max


def _make_result(kind, spec, actions, iterations, residual, notes=None):
    utils = realized_utilities(spec, actions)
    diag = Diagnostics(iterations=iterations, residual=residual,
                       boundary=_boundary_flags(spec, actions),
                       notes=notes or {})
    return EquilibriumResult(kind=kind, profile=game.ActionProfile(actions),
                             utilities=utils, social=float(utils.sum()),
                             diagnostics=diag)


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def _priced_reaction(spec, player, f_obs):
    """Box-clamped solution of the priced first-order condition per dimension."""
    h = spec.direct_gain(player)
    c = spec.price(player)
    lo, hi = spec.action_min[player], spec.action_max[player]
    if c == 0.0:
        if np.any(np.isinf(hi[h > 0])):
            raise DegenerateModelError(
                "zero price with an unbounded action box has no optimum")
        # utility strictly increasing in own action: boundary response
        return np.where(h > 0, hi, lo)
    with np.errstate(divide="ignore"):
        raw = np.where(h > 0, 1.0 / c - f_obs / np.where(h > 0, h, 1.0), lo)
    return np.clip(raw, lo, hi)


def follower_best_response(spec, player, others, eps, *, tol=1e-13, max_iter=300):
    """Utility-maximizing action of `player` against fixed other players.

    With eps > 0 the response maximizes the worst-case utility over the
    eps-ball of observations (inner minimization by the exact worst-case
    observation, outer maximization in closed form for the priced model and
    by robust waterfilling for the budgeted model).
    """
    if player not in spec.followers:
        raise InvalidSpecError(f"player {player} is not a follower")
    if eps < 0:
        raise InvalidSpecError("eps must be nonnegative")
    f_nom = game.aggregate_impact(spec, others, player).values
    if spec.is_budgeted:
        if eps == 0.0:
            return budget_mod.waterfill(spec, player, f_nom, spec.budget(player))
        return budget_mod.robust_waterfill(spec, player, f_nom, eps,
                                           spec.budget(player))
    a = _priced_reaction(spec, player, f_nom)
    if eps == 0.0:
        return a
    # the worst case is evaluated just above zero actions: the limiting
    # direction there is the saddle selection (an exactly-zero action has a
    # degenerate gradient, which would otherwise cycle at the knife edge
    # where the robust response shuts a dimension down)
    floor = 1e-9
    damping, best_res, stall = 1.0, np.inf, 0
    for it in range(max_iter):
        wco = robust.worst_case_observation(spec, player, np.maximum(a, floor),
                                            f_nom, eps, tol=tol)
        a_next = _priced_reaction(spec, player, wco.values)
        if it >= 3:
            a_next = (1.0 - damping) * a + damping * a_next
        res = float(np.max(np.abs(a_next - a)))
        a = a_next
        if res < tol:
            return a
        if res > 0.9 * best_res:
            stall += 1
            if stall >= 10:
                damping = max(0.05, damping * 0.5)
                stall = 0
        else:
            best_res, stall = res, 0
    raise IterationLimitError("robust best response did not converge",
                              last_iterate=a, residual=res)


def followers_nash(spec, leaders_profile, eps=0.0, tol=1e-10, max_iter=500):
    """Jacobi best-response iteration of the followers to a fixed point.

    Follower rows of `leaders_profile` seed the iteration (zeros are fine);
    leader rows stay frozen.  Stops when every follower's action is within
    `tol` of its own best response and returns those best responses, so a
    follower clamped at a bound sits exactly on it.  Convergence is
    guaranteed when the followers' coupling matrix is a P-matrix; otherwise
    the loop may hit `max_iter` and raises with the last iterate attached.
    """
    if tol <= 0:
        raise InvalidSpecError("tol must be positive")
    unc = robust.coerce_uncertainty(spec, eps=eps)
    actions = game.as_actions(leaders_profile).copy()
    followers = list(spec.followers)
    kind = "RNE" if np.any(unc.obs_radius > 0) else "NE"
    if not followers:
        return _make_result(kind, spec, actions, iterations=0, residual=0.0)
    damping = 1.0
    prev_res = np.inf
    for it in range(1, max_iter + 1):
        responses = {n: follower_best_response(spec, n, actions, unc.obs_radius[n])
                     for n in followers}
        res = max(float(np.max(np.abs(responses[n] - actions[n])))
                  for n in followers)
        if res < tol:
            for n in followers:
                actions[n] = responses[n]
            return _make_result(kind, spec, actions, iterations=it, residual=res)
        if res > prev_res:  # oscillation: damp the Jacobi update
            damping = max(0.25, damping * 0.5)
        prev_res = res
        for n in followers:
            actions[n] = (1.0 - damping) * actions[n] + damping * responses[n]
    raise IterationLimitError(
        f"followers' Nash iteration did not converge in {max_iter} sweeps "
        "(coupling may violate the P-matrix uniqueness condition)",
        last_iterate=actions, residual=res)


# ---------------------------------------------------------------------------
# bi-level solvers
# ---------------------------------------------------------------------------

def _single_leader(spec):
    if len(spec.leaders) != 1:
        raise InvalidSpecError(
            "this solver handles exactly one leader; use the harness protocol "
            "or the cooperative objective for several")
    return spec.leaders[0]


def _leader_seed(spec, leader):
    """Starting profile: leader at box floor, followers at zero-ish floor."""
    return spec.action_min.copy()


def _bilevel_priced(model_spec, unc, leader, tol, nash_tol):
    """Maximize the leader's believed utility with follower Nash embedded.

    Along one leader coordinate the followers' reaction is piecewise smooth:
    each piece keeps a fixed set of follower actions clamped at a box bound,
    and the pieces meet at kinks where a follower action reaches its floor or
    ceiling.  The leader utility need not be unimodal across a kink
    (crushing a follower can beat coexisting with it), so each coordinate
    search locates the kinks, maximizes on every piece and keeps the best of
    the piece optima and the piece ends.  Kinks are located to adjacent
    floats and their clamped side is kept, so a follower switched off at a
    kink is returned exactly on its bound.  Exact for K = 1; for K > 1 the
    search is coordinate-wise, in cyclic sweeps until the leader's action
    settles.
    """
    lo, hi = model_spec.action_min[leader], model_spec.action_max[leader]
    followers = list(model_spec.followers)
    f_min = model_spec.action_min[followers]
    f_max = model_spec.action_max[followers]
    cache = {"profile": _leader_seed(model_spec, leader)}

    def leader_value(a0_row):
        """Believed leader utility and the followers' actions."""
        seed = cache["profile"].copy()
        seed[leader] = a0_row
        nash = followers_nash(model_spec, seed, eps=unc, tol=nash_tol)
        prof = nash.profile.actions
        cache["profile"] = prof.copy()
        f0 = game.aggregate_impact(model_spec, prof, leader).values
        return game.utility(model_spec, leader, a0_row, f0), prof[followers]

    def coordinate_search(a0, k):
        memo = {}

        def evaluate(x):
            if x not in memo:
                row = a0.copy()
                row[k] = x
                memo[x] = leader_value(row)
            return memo[x]

        def value(x):
            return evaluate(x)[0]

        def clamped(x):  # -1 at the floor, +1 at the ceiling, 0 in between
            acts = evaluate(x)[1]
            return np.where(acts >= f_max, 1, np.where(acts <= f_min, -1, 0))

        state_lo, state_hi = clamped(lo[k]), clamped(hi[k])
        ends = {lo[k], hi[k]}
        for cell in zip(*np.nonzero(state_lo != state_hi)):
            for side in {state_lo[cell], state_hi[cell]} - {0}:
                bound = (f_max if side > 0 else f_min)[cell]
                free, held = ((lo[k], hi[k]) if state_hi[cell] == side
                              else (hi[k], lo[k]))
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
        return max(sorted(candidates), key=value)

    a0 = lo.copy()
    sweeps = 0
    for sweep in range(1, 61):
        sweeps = sweep
        shift = 0.0
        for k in range(model_spec.n_dims):
            best = coordinate_search(a0, k)
            shift = max(shift, abs(best - a0[k]))
            a0[k] = best
        if shift < max(tol, 1e-11) or model_spec.n_dims == 1:
            break
    return a0, sweeps


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


def _budgeted_leader_starts(model_spec, unc, leader, restarts, rng):
    lo, hi = model_spec.action_min[leader], model_spec.action_max[leader]
    p_max = model_spec.budget(leader)
    starts = []
    # waterfill vs noise only, vs everyone at max, and a uniform spread
    others_min = model_spec.action_min.copy()
    others_max = np.where(np.isinf(model_spec.action_max), 1.0, model_spec.action_max)
    for others in (others_min, others_max):
        f = game.aggregate_impact(model_spec, others, leader).values
        starts.append(budget_mod.waterfill(model_spec, leader, f, p_max))
    starts.append(project_box_budget(np.full_like(lo, p_max / model_spec.n_dims),
                                     lo, hi, p_max))
    while len(starts) < restarts:
        w = rng.dirichlet(np.ones(model_spec.n_dims)) * p_max
        starts.append(project_box_budget(w, lo, hi, p_max))
    return starts[:max(restarts, 1)]


def _bilevel_budgeted(model_spec, unc, leader, tol, nash_tol, restarts, seed,
                      grad_iters=60):
    """Projected gradient ascent on the leader's non-separable budgeted problem.

    Heuristic by design (the follower reaction makes the objective only
    piecewise smooth); multiple starts guard against local maxima.
    """
    lo, hi = model_spec.action_min[leader], model_spec.action_max[leader]
    p_max = model_spec.budget(leader)
    rng = np.random.default_rng(seed)
    cache = {"profile": model_spec.action_min.copy()}

    def leader_value(a0_row):
        seed_prof = cache["profile"].copy()
        seed_prof[leader] = a0_row
        nash = followers_nash(model_spec, seed_prof, eps=unc, tol=nash_tol)
        prof = nash.profile.actions
        cache["profile"] = prof.copy()
        f0 = game.aggregate_impact(model_spec, prof, leader).values
        return game.utility(model_spec, leader, a0_row, f0)

    def ascend(a0):
        val = leader_value(a0)
        step = 0.25 * p_max
        h_fd = 1e-6 * max(1.0, p_max)
        for _ in range(grad_iters):
            grad = np.empty_like(a0)
            for k in range(a0.size):
                up = a0.copy(); up[k] += h_fd
                dn = a0.copy(); dn[k] -= h_fd
                grad[k] = (leader_value(np.clip(up, lo, hi))
                           - leader_value(np.clip(dn, lo, hi))) / (2 * h_fd)
            moved = False
            while step > 1e-12 * p_max:
                cand = project_box_budget(a0 + step * grad, lo, hi, p_max)
                cand_val = leader_value(cand)
                if cand_val > val + 1e-15:
                    a0, val, moved = cand, cand_val, True
                    step *= 1.6
                    break
                step *= 0.5
            if not moved:
                break
        return a0, val

    best, best_val, iters = None, -np.inf, 0
    for start in _budgeted_leader_starts(model_spec, unc, leader, restarts, rng):
        a0, val = ascend(start.copy())
        iters += 1
        if val > best_val:
            best, best_val = a0, val
    return best, iters


def _solve_bilevel(spec, unc, tol, kind, believed_spec=None, restarts=20,
                   seed=0):
    leader = _single_leader(spec)
    model_spec = believed_spec if believed_spec is not None else spec
    nash_tol = min(tol * 1e-3, 1e-12)
    if spec.is_budgeted:
        a0, iters = _bilevel_budgeted(model_spec, unc, leader, tol, max(nash_tol, 1e-11),
                                      restarts, seed)
    else:
        a0, iters = _bilevel_priced(model_spec, unc, leader, tol, nash_tol)
    # realization: commit a0, followers respond with true gains (and their own
    # robust responses); utilities evaluated at true parameters.
    committed = spec.action_min.copy()
    committed[leader] = a0
    nash = followers_nash(spec, committed, eps=unc, tol=max(nash_tol, 1e-12))
    actions = nash.profile.actions.copy()
    actions[leader] = a0
    notes = {"leader": leader, "follower_iterations": nash.diagnostics.iterations}
    if believed_spec is not None:
        f0_model = game.aggregate_impact(model_spec, actions, leader).values
        notes["believed_leader_utility"] = game.utility(model_spec, leader, a0, f0_model)
    return _make_result(kind, spec, actions, iterations=iters,
                        residual=nash.diagnostics.residual, notes=notes)


def solve_nse(spec, tol=1e-9, restarts=20, seed=0):
    """Nominal Stackelberg equilibrium of a single-leader game."""
    unc = robust.coerce_uncertainty(spec, eps=0.0)
    return _solve_bilevel(spec, unc, tol, "NSE", restarts=restarts, seed=seed)


def solve_rse1(spec, eps, tol=1e-9, restarts=20, seed=0):
    """Robust Stackelberg equilibrium, case 1: noisy follower observations."""
    unc = robust.coerce_uncertainty(spec, eps=eps)
    return _solve_bilevel(spec, unc, tol, "RSE1", restarts=restarts, seed=seed)


def solve_rse2(spec, eps, delta, tol=1e-9, restarts=20, seed=0):
    """Robust Stackelberg equilibrium, case 2: incomplete leader information.

    The leader plans against the uniformly shrunken worst-case gains toward
    each follower (and the followers' eps-robust responses), commits its
    action, and the outcome is realized with the true gains.
    """
    leader = _single_leader(spec)
    unc = robust.coerce_uncertainty(spec, eps=eps, delta=delta)
    gains = np.array(spec.cross_gain)
    for nf in spec.followers:
        gains[nf, leader, :] = robust.worst_case_cross_gain(
            spec, nf, leader, unc.info_radius[nf, leader])
    believed = spec.with_cross_gain(gains)
    return _solve_bilevel(spec, unc, tol, "RSE2", believed_spec=believed,
                          restarts=restarts, seed=seed)


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

def uniqueness_certificate(spec, samples=256, rng_seed=0):
    """Empirical curvature-bound matrix for the followers' game.

    alpha_n is the smallest eigenvalue of the (diagonal) negated own Hessian,
    beta_nm the spectral norm of the (diagonal) cross derivative, both
    extremized over Latin-hypercube samples of the joint action box plus all
    box corners for up to three dimensions.  All principal minors of the
    resulting matrix positive certifies a unique followers' equilibrium.
    """
    if samples < 1:
        raise InvalidSpecError("samples must be at least 1")
    followers = list(spec.followers)
    n_f = len(followers)
    if n_f > 12:
        raise CombinatorialLimitError(
            "exhaustive principal-minor check limited to 12 followers; use an "
            "eigenvalue bound on the symmetrized matrix instead (conservative)")
    lo, hi = spec.action_min, spec.action_max
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidSpecError("certificate needs a bounded action box")
    rng = np.random.default_rng(rng_seed)
    unit = latin_hypercube(rng, samples, spec.n_players * spec.n_dims)
    points = lo.ravel() + unit * (hi.ravel() - lo.ravel())
    corners = box_corners(lo, hi) if spec.n_dims <= 3 else None
    if corners is not None:
        points = np.vstack([points, corners])
    alpha = np.full(n_f, np.inf)
    beta = np.zeros((n_f, n_f))
    for flat in points:
        actions = flat.reshape(spec.n_players, spec.n_dims)
        impacts = game.all_impacts(spec, actions)
        for i, n in enumerate(followers):
            bundle = game.derivatives(spec, n, actions[n], impacts[n])
            alpha[i] = min(alpha[i], float(np.min(-bundle.hess_aa)))
            for j, m in enumerate(followers):
                if m == n:
                    continue
                norm = float(np.max(np.abs(bundle.hess_af)
                                    * spec.cross_gain[n, m, :]))
                beta[i, j] = max(beta[i, j], norm)
    ups = np.diag(alpha) - beta
    is_p = _all_principal_minors_positive(ups)
    return UniquenessCertificate(upsilon=ups, alpha_min=alpha, beta_max=beta,
                                 is_p_matrix=is_p, samples_used=len(points))


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
