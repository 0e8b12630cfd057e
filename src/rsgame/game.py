"""Domain types and differential machinery of the additively coupled game.

Players act on K orthogonal dimensions (subchannels).  Player n's utility in
dimension k depends on its own action a_n^k and on the aggregate impact

    f_n^k = sum_{m != n} a_m^k * x[n, m, k] + y[n, k]

which in the power-control instantiation is interference plus noise at n's
receiver.  Utilities are per-dimension separable log-throughput, optionally
with a linear price on own action (the priced model has interior optima; the
budgeted model couples dimensions through a total power limit instead).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpecError, SingularImpactError

# f values at or below this are treated as singular rather than clamped;
# positive noise floors make them unreachable for valid inputs.
IMPACT_FLOOR = 1e-12
_BUDGET_TOL = 1e-9  # budget overspend that `ActionProfile.validate` forgives


@dataclass(frozen=True)
class PricedThroughput:
    """Per-dimension log(1 + H*a/f) minus a linear cost price[n]*a.

    A positive price gives each player an interior first-order optimum; a zero
    price recovers the pure-throughput boundary case.
    """

    price: np.ndarray  # (N,) nonnegative


@dataclass(frozen=True)
class BudgetedThroughput:
    """Pure log-throughput with a per-player total action budget.

    The budget is enforced by the solvers (waterfilling), not by the utility
    value itself.
    """

    budget: np.ndarray  # (N,) positive


def _freeze(arr, dtype=float):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GameSpec:
    """Full description of players, action boxes, gains, noise and utilities.

    cross_gain[n, m, k] is the gain from player m's action to player n's
    impact in dimension k; the diagonal cross_gain[n, n, k] holds player n's
    own direct gain and never enters any f_n.
    """

    n_players: int
    n_dims: int
    leaders: tuple
    followers: tuple
    action_min: np.ndarray  # (N, K)
    action_max: np.ndarray  # (N, K)
    cross_gain: np.ndarray  # (N, N, K)
    noise: np.ndarray       # (N, K)
    utility_model: object   # PricedThroughput | BudgetedThroughput

    def __post_init__(self):
        n, k = self.n_players, self.n_dims
        object.__setattr__(self, "leaders", tuple(self.leaders))
        object.__setattr__(self, "followers", tuple(self.followers))
        object.__setattr__(self, "action_min", _freeze(np.broadcast_to(self.action_min, (n, k))))
        object.__setattr__(self, "action_max", _freeze(np.broadcast_to(self.action_max, (n, k))))
        object.__setattr__(self, "cross_gain", _freeze(self.cross_gain))
        object.__setattr__(self, "noise", _freeze(np.broadcast_to(self.noise, (n, k))))
        self._validate()

    def _validate(self):
        n, k = self.n_players, self.n_dims
        if n < 1 or k < 1:
            raise InvalidSpecError("need at least one player and one dimension")
        if sorted(self.leaders + self.followers) != list(range(n)):
            raise InvalidSpecError("leaders and followers must partition the player set")
        if self.cross_gain.shape != (n, n, k):
            raise InvalidSpecError(f"cross_gain must have shape {(n, n, k)}")
        if np.any(self.cross_gain < 0):
            raise InvalidSpecError("gains must be nonnegative")
        if np.any(self.noise <= 0):
            raise InvalidSpecError("noise floors must be strictly positive")
        if np.any(self.action_min < 0):
            raise InvalidSpecError("actions are nonnegative")
        if np.any(self.action_min > self.action_max):
            raise InvalidSpecError("action_min must not exceed action_max")
        model = self.utility_model
        if isinstance(model, PricedThroughput):
            if model.price.shape != (n,) or np.any(model.price < 0):
                raise InvalidSpecError("price must be a nonnegative (N,) vector")
        elif isinstance(model, BudgetedThroughput):
            if model.budget.shape != (n,) or np.any(model.budget <= 0):
                raise InvalidSpecError("budget must be a positive (N,) vector")
        else:
            raise InvalidSpecError(f"unknown utility model {model!r}")

    # -- convenience accessors -------------------------------------------

    def direct_gain(self, player):
        return self.cross_gain[player, player, :]

    def price(self, player):
        if isinstance(self.utility_model, PricedThroughput):
            return float(self.utility_model.price[player])
        return 0.0

    def budget(self, player):
        if isinstance(self.utility_model, BudgetedThroughput):
            return float(self.utility_model.budget[player])
        return None

    @property
    def is_priced(self):
        return isinstance(self.utility_model, PricedThroughput)

    @property
    def is_budgeted(self):
        return isinstance(self.utility_model, BudgetedThroughput)

    def with_cross_gain(self, cross_gain):
        """Copy of this spec with a replacement gain tensor."""
        return replace(self, cross_gain=_freeze(cross_gain))


def make_spec(direct, cross, noise, *, leaders=(0,), action_min=0.0,
              action_max=np.inf, price=None, budget=None):
    """Assemble a GameSpec from direct-gain and cross-gain pieces.

    `direct` is (N, K) or (N,), `cross` is (N, N, K) or (N, N) with an ignored
    diagonal.  Exactly one of `price` / `budget` selects the utility model.
    """
    direct = np.atleast_1d(np.asarray(direct, dtype=float))
    if direct.ndim == 1:
        direct = direct[:, None]
    n, k = direct.shape
    cross = np.asarray(cross, dtype=float)
    if cross.ndim == 2:
        cross = np.repeat(cross[:, :, None], k, axis=2)
    gain = cross.copy()
    gain[np.arange(n), np.arange(n), :] = direct
    if (price is None) == (budget is None):
        raise InvalidSpecError("exactly one of price/budget must be given")
    if price is not None:
        model = PricedThroughput(price=_freeze(np.broadcast_to(price, (n,))))
    else:
        model = BudgetedThroughput(budget=_freeze(np.broadcast_to(budget, (n,))))
    leaders = tuple(leaders)
    followers = tuple(i for i in range(n) if i not in leaders)
    return GameSpec(
        n_players=n, n_dims=k, leaders=leaders, followers=followers,
        action_min=np.broadcast_to(np.asarray(action_min, dtype=float), (n, k)),
        action_max=np.broadcast_to(np.asarray(action_max, dtype=float), (n, k)),
        cross_gain=gain, noise=noise, utility_model=model,
    )


@dataclass(frozen=True)
class ActionProfile:
    """An (N, K) matrix of nonnegative actions."""

    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "actions", _freeze(self.actions))

    def validate(self, spec):
        a = self.actions
        if a.shape != (spec.n_players, spec.n_dims):
            raise InvalidSpecError("profile shape does not match the spec")
        if np.any(a < spec.action_min - 1e-12) or np.any(a > spec.action_max + 1e-12):
            raise InvalidSpecError("profile outside the action box")
        if spec.is_budgeted:
            totals = a.sum(axis=1)
            if np.any(totals > spec.utility_model.budget + _BUDGET_TOL):
                raise InvalidSpecError("profile exceeds a player's action budget")
        return self


def as_actions(profile):
    """Accept an ActionProfile or a bare (N, K) array; return the array."""
    if isinstance(profile, ActionProfile):
        return profile.actions
    return np.asarray(profile, dtype=float)


@dataclass(frozen=True)
class DerivativeBundle:
    """First and second derivatives of one player's utility, per dimension.

    Separability makes every cross-dimension second derivative exactly zero,
    so the Hessians are stored as their K-vector diagonals.
    """

    grad_a: np.ndarray   # d v / d a
    grad_f: np.ndarray   # d v / d f  (<= 0)
    hess_aa: np.ndarray  # d2 v / d a2  (< 0 where the direct gain is positive)
    hess_af: np.ndarray  # d2 v / d a d f
    hess_ff: np.ndarray  # d2 v / d f2  (>= 0: utility is convex in f)


def _check_impact(f):
    if np.any(f <= IMPACT_FLOOR):
        raise SingularImpactError(
            f"impact components must exceed {IMPACT_FLOOR}; got min {np.min(f)}"
        )


def aggregate_impact(spec, profile, player):
    """f[player, k] = sum over other players m of a[m, k] * x[player, m, k] + noise.

    Returns the (K,) array, at or above the player's noise floor.
    """
    a = as_actions(profile)
    if not 0 <= player < spec.n_players:
        raise IndexError(f"player index {player} out of range")
    gains = spec.cross_gain[player].copy()  # (N, K)
    gains[player, :] = 0.0                  # own action never self-interferes
    return np.einsum("mk,mk->k", a, gains) + spec.noise[player]


def all_impacts(spec, profile):
    """Aggregate impact of every player at once, as an (N, K) array."""
    a = as_actions(profile)
    gains = spec.cross_gain.copy()
    idx = np.arange(spec.n_players)
    gains[idx, idx, :] = 0.0
    return np.einsum("mk,nmk->nk", a, gains) + spec.noise


def utility_per_dim(spec, player, own_action, impact):
    """Per-dimension utility terms; their sum is the player's utility."""
    a = np.asarray(own_action, dtype=float)
    f = np.asarray(impact, dtype=float)
    _check_impact(f)
    h = spec.direct_gain(player)
    return np.log1p(h * a / f) - spec.price(player) * a


def utility(spec, player, own_action, impact):
    """Total utility: sum_k [log(1 + H a / f) - c a]."""
    return float(np.sum(utility_per_dim(spec, player, own_action, impact)))


def derivatives(spec, player, own_action, impact):
    """Analytic derivative bundle of `utility` at (own_action, impact)."""
    a = np.asarray(own_action, dtype=float)
    f = np.asarray(impact, dtype=float)
    _check_impact(f)
    h = spec.direct_gain(player)
    c = spec.price(player)
    denom = f + h * a
    grad_a = h / denom - c
    grad_f = -h * a / (f * denom)
    hess_aa = -(h / denom) ** 2
    hess_af = -h / denom**2
    hess_ff = h * a * (f + denom) / (f * denom) ** 2
    return DerivativeBundle(grad_a=grad_a, grad_f=grad_f, hess_aa=hess_aa,
                            hess_af=hess_af, hess_ff=hess_ff)


def negative_impact(spec, profile, on, by):
    """Rate of utility loss of player `on` per unit action of player `by`.

    C[on, by, k] = x[on, by, k] * grad_f of player `on` in dimension k;
    always nonpositive.
    """
    if on == by:
        raise ValueError("negative impact is defined between distinct players")
    a = as_actions(profile)
    f = aggregate_impact(spec, profile, on)
    bundle = derivatives(spec, on, a[on], f)
    return spec.cross_gain[on, by, :] * bundle.grad_f
