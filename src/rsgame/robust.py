"""Uncertainty sets and their worst-case closed forms.

Two kinds of uncertainty are modelled, both as l2 balls around nominal values:

* a follower observes its aggregate impact only up to an error of norm
  eps (obs_radius), and plays against the worst observation in that ball,
  the exact KKT point of a trust-region subproblem (one bracketed secular
  solve in the ball multiplier, `worst_case_observation`);
* a leader knows the gain from itself to a follower only up to an error of
  norm delta (info_radius), and plans against the ball realization that
  minimizes its view of that follower's impact.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import game
from .errors import InvalidSpecError, IterationLimitError

# Gradient norms below this are treated as degenerate (zero direction).
_DEGENERATE_GRAD = 1e-14
# Residual floor of the worst-case observation, relative to max(f) + eps, the
# largest value it can return: a few dozen roundings.
_ROUNDING = 32 * np.finfo(float).eps
_TOL = 1e-13      # `worst_case_observation`'s fixed-point residual
_MAX_ITER = 200   # and its iterate limit


@dataclass(frozen=True)
class UncertaintySpec:
    """Per-follower observation radii and per-(follower, leader) info radii."""

    obs_radius: np.ndarray   # (N,) eps_n; zero for leaders
    info_radius: np.ndarray  # (N, N) delta[follower, leader]; zero elsewhere

    def __post_init__(self):
        object.__setattr__(self, "obs_radius", game._freeze(self.obs_radius))
        object.__setattr__(self, "info_radius", game._freeze(self.info_radius))
        if np.any(self.obs_radius < 0) or np.any(self.info_radius < 0):
            raise InvalidSpecError("uncertainty radii must be nonnegative")


def coerce_uncertainty(spec, eps=0.0, delta=0.0):
    """Build an UncertaintySpec from scalars, per-follower arrays, or pass through.

    Scalar eps applies to every follower; scalar delta applies to every
    (follower, leader) pair.  Leaders always observe exactly (radius zero).
    A delta too large for the nominal gains is allowed (worst-case gains are
    clamped at zero) but flagged via `oversized_info_radius`.
    """
    if isinstance(eps, UncertaintySpec):
        return eps
    n = spec.n_players
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    obs = np.zeros(n)
    followers = list(spec.followers)
    obs[followers] = eps_arr[followers]
    d = np.asarray(delta, dtype=float)
    if d.ndim == 1:  # per-follower radius toward every leader
        d = np.broadcast_to(d[:, None], (n, n))
    d = np.broadcast_to(d, (n, n))
    info = np.zeros((n, n))
    for nf in followers:
        for nl in spec.leaders:
            info[nf, nl] = d[nf, nl]
    return UncertaintySpec(obs_radius=obs, info_radius=info)


def oversized_info_radius(spec, unc):
    """Pairs (follower, leader) whose radius exceeds the smallest nominal gain.

    Those worst-case gains get clamped at zero; flagged, not rejected.
    """
    flagged = []
    for nf in spec.followers:
        for nl in spec.leaders:
            delta = unc.info_radius[nf, nl]
            if delta > 0 and delta / np.sqrt(spec.n_dims) > np.min(spec.cross_gain[nf, nl]):
                flagged.append((nf, nl))
    return flagged


@dataclass(frozen=True)
class WorstCaseObservation:
    """Exact KKT point of the worst-case observation problem.

    `values` is the utility-minimizing observation on the eps-ball around the
    nominal impact; `direction` is the unit gradient direction it realizes
    (zero when the gradient is degenerate); `iterations` counts the iterates
    tested against the fixed-point residual, the one-step point first.
    """

    values: np.ndarray
    direction: np.ndarray
    iterations: int = 0
    residual: float = 0.0


def direction_vector(bundle):
    """Unit vector along the utility gradient in the observation.

    Returns the zero vector when the gradient norm is below 1e-14, so a player
    with nothing at stake sees no worst case.
    """
    g = np.asarray(bundle.grad_f if isinstance(bundle, game.DerivativeBundle) else bundle,
                   dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < _DEGENERATE_GRAD:
        return np.zeros_like(g)
    return g / norm


def worst_case_observation(spec, player, own_action, nominal_impact, eps):
    """Worst observation in the eps-ball around the nominal impact.

    A trust-region subproblem, solved exactly through its KKT conditions.
    With u = H*a per dimension, r(t) = u / (t (t + u)) is minus the utility's
    derivative in the impact, and the worst shift s = f* - f satisfies
    s_k = mu * r_k(f_k + s_k) with |s| = eps.  For a fixed multiplier mu each
    s_k is the nonnegative root of the cubic s (f + s)(f + u + s) = mu * u,
    convex and increasing for s >= 0, found by Newton warm-started from the
    previous shift.  |s(mu)| rises with mu with a log-log slope in [1/3, 1],
    so Newton steps in log mu solve the secular equation |s(mu)| = eps; a
    bracket, narrowed by the sign of |s| - eps and by those slope bounds at
    every iterate, takes a bisection step whenever Newton would leave it.

    The iteration starts at the one-step point s = eps * r(f) / |r(f)|, which
    is already the answer for K = 1 and whenever one dimension carries the
    gradient.  An iterate is accepted once the fixed-point residual
    max|eps * r(t) / |r(t)| - s| at t = f + s is below `_TOL` (raised to
    32 roundings of max(f) + eps where it asks for less, which no iterate
    resolves), and the returned values are f + eps * r(t) / |r(t)|.
    Raises `IterationLimitError` after `_MAX_ITER` iterates.  The one-step
    point itself, f - eps * direction_vector(derivatives at f), differs from
    the answer by O(eps^2).

    Because the utility decreases in the impact, the worst case inflates it:
    values >= nominal elementwise, and the ball constraint is active whenever
    the gradient is nonzero.
    """
    if eps < 0:
        raise InvalidSpecError("eps must be nonnegative")
    a = np.asarray(own_action, dtype=float)
    f = np.asarray(nominal_impact, dtype=float)
    game._check_impact(f)
    u = spec.direct_gain(player) * a

    def fixed_point(t):
        """Unit gradient direction at t, the ball point it gives, |r(t)|."""
        r = u / (t * (t + u))
        norm = math.sqrt(r @ r)
        if norm < _DEGENERATE_GRAD:
            return np.zeros_like(f), f.copy(), norm
        theta = -r / norm
        return theta, f - eps * theta, norm

    theta, target, _ = fixed_point(f)
    if eps == 0.0:
        return WorstCaseObservation(values=f.copy(), direction=theta)

    tol = max(_TOL, _ROUNDING * (float(f.max()) + eps))
    s = target - f
    log_eps = math.log(eps)
    log_mu, lo, hi = None, -math.inf, math.inf
    for it in range(1, _MAX_ITER + 1):
        t = f + s
        theta, target, norm_r = fixed_point(t)
        res = float(abs(target - t).max())
        if res < tol:
            return WorstCaseObservation(values=target, direction=theta,
                                        iterations=it, residual=res)
        if log_mu is None:
            # the multiplier that maps the one-step point onto the ball
            log_mu = log_eps - math.log(norm_r)
        else:
            # s = s(mu): |s| - eps fixes one end of the bracket, the slope
            # bounds the other, and Newton in log mu steps from here
            pq = t * (t + u)
            slopes = pq / (pq + s * (2.0 * t + u))  # d log s_k / d log mu
            n2 = float(s @ s)
            gap = log_eps - 0.5 * math.log(n2)
            if gap > 0:
                lo, hi = max(lo, log_mu), min(hi, log_mu + 3.0 * gap)
            else:
                lo, hi = max(lo, log_mu + 3.0 * gap), min(hi, log_mu)
            step = gap * n2 / float((s * s) @ slopes)
            if not lo < log_mu + step < hi:
                step = 0.5 * (lo + hi) - log_mu
            # predict each root along its own log-log slope, then refine
            s = s * np.exp(step * slopes)
            log_mu += step
        s = _cubic_roots(f, u, math.exp(log_mu), s)
    raise IterationLimitError(
        f"worst-case observation did not converge in {_MAX_ITER} iterations",
        last_iterate=f + s, residual=res,
    )


def _cubic_roots(f, u, mu, s):
    """Nonnegative roots of s (f + s)(f + u + s) = mu * u, Newton from s >= 0.

    The cubic is convex and increasing for s >= 0, so Newton converges from
    any nonnegative start, monotonically after its first step; once a step
    is below 1e-8 of f + s the next error is below rounding.  Each root
    stops at its own such step, so a root does not depend on the others
    solved with it.
    """
    target = mu * u
    live = np.ones(np.shape(s), dtype=bool)
    for _ in range(100):
        p = f + s
        q = p + u
        step = (s * p * q - target) / (p * q + s * (p + q))
        s = np.where(live, s - step, s)
        live &= abs(step) > 1e-8 * p
        if not live.any():
            break
    return s


def complementary_slackness_residual(spec, player, own_action, nominal_impact,
                                     eps, wco):
    """Residual of the ball-constraint optimality conditions at a solution.

    The stationarity relation ties the gradient at the worst case to the
    multiplier lam = |grad| / (2 eps); returns the larger of the slackness
    term lam * (eps^2 - |f* - f|^2) and the stationarity defect.
    """
    f = np.asarray(nominal_impact, dtype=float)
    g = game.derivatives(spec, player, np.asarray(own_action, dtype=float),
                         wco.values).grad_f
    shift = wco.values - f
    norm_g = float(np.linalg.norm(g))
    if eps == 0.0 or norm_g < _DEGENERATE_GRAD:
        # inactive constraint: multiplier zero, shift must vanish
        return float(np.max(np.abs(shift), initial=0.0))
    lam = norm_g / (2.0 * eps)
    slack = abs(lam * (eps**2 - float(shift @ shift)))
    stationarity = float(np.max(np.abs(g + 2.0 * lam * shift)))
    return max(slack, stationarity)


def worst_case_cross_gain(spec, follower, leader, delta):
    """Ball realization of the follower-observes-leader gain used by the leader.

    The leader's view of the follower's impact decreases uniformly in the
    radius: every dimension is shrunk by delta/sqrt(K) and clamped at zero,
    which minimizes the impact the leader believes it has on the follower.
    """
    if delta < 0:
        raise InvalidSpecError("delta must be nonnegative")
    x = spec.cross_gain[follower, leader, :]
    return np.maximum(x - delta / np.sqrt(spec.n_dims), 0.0)
