"""Independent oracles used to compute expected values before asserting them.

Everything here is deliberately dumb: dense grids, direct summation, finite
differences and high-precision scalar arithmetic.  Nothing imports solver
internals beyond the public utility evaluation, so these stay independent of
the code paths they check.
"""

import numpy as np


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def summation_impact(actions, gains_row, noise_row, player):
    """Eq.-by-eq aggregate impact: loop over players and dimensions."""
    n, k = actions.shape
    out = np.zeros(k)
    for dim in range(k):
        total = 0.0
        for m in range(n):
            if m != player:
                total += actions[m, dim] * gains_row[m, dim]
        out[dim] = total + noise_row[dim]
    return out


def log_utility_scalar(h, a, f, c):
    """One-dimension priced throughput via 50-digit decimal arithmetic."""
    from decimal import Decimal, getcontext
    getcontext().prec = 50
    term = (Decimal(1) + Decimal(h) * Decimal(a) / Decimal(f)).ln()
    return float(term - Decimal(c) * Decimal(a))


def grid_argmax(fn, lo, hi, n_points):
    xs = np.linspace(lo, hi, n_points)
    vals = np.array([fn(x) for x in xs])
    return xs[int(np.argmax(vals))], float(vals.max())


def grid_argmax_vec(fn_vec, lo, hi, n_points):
    xs = np.linspace(lo, hi, n_points)
    vals = fn_vec(xs)
    return float(xs[int(np.argmax(vals))]), float(vals.max())


# ---------------------------------------------------------------------------
# one-dimension two-player priced game (the worked instance lives here)
# ---------------------------------------------------------------------------

class PricedTwoPlayer1D:
    """Hand algebra for K=1: affine reactions and dense bi-level grids."""

    def __init__(self, h00, h11, h01, h10, sigma0, sigma1, c0, c1,
                 a0_max, a1_max):
        self.h00, self.h11 = h00, h11
        self.h01, self.h10 = h01, h10
        self.sigma0, self.sigma1 = sigma0, sigma1
        self.c0, self.c1 = c0, c1
        self.a0_max, self.a1_max = a0_max, a1_max

    def reaction(self, a0, eps=0.0, gain_to_follower=None):
        """Follower's K=1 best response: worst case adds eps to the impact."""
        h10 = self.h10 if gain_to_follower is None else gain_to_follower
        f1 = self.sigma1 + h10 * np.asarray(a0, dtype=float) + eps
        return np.clip(1.0 / self.c1 - f1 / self.h11, 0.0, self.a1_max)

    def leader_utility(self, a0, a1):
        f0 = self.sigma0 + self.h01 * a1
        return np.log1p(self.h00 * a0 / f0) - self.c0 * a0

    def follower_utility(self, a0, a1):
        f1 = self.sigma1 + self.h10 * a0
        return np.log1p(self.h11 * a1 / f1) - self.c1 * a1

    def grid_nse(self, eps=0.0, n_points=100_001, believed_gain=None,
                 realize_with_true_gain=False):
        """Dense grid over the leader's action with the exact reaction.

        `believed_gain` substitutes the gain the leader thinks it exerts on
        the follower (case 2); with `realize_with_true_gain` the committed
        leader action is then evaluated against the true reaction.  A 3-point
        parabolic fit refines interior grid maxima past the grid resolution.
        """
        a0s = np.linspace(0.0, self.a0_max, n_points)
        a1s = self.reaction(a0s, eps=eps, gain_to_follower=believed_gain)
        vals = self.leader_utility(a0s, a1s)
        i = int(np.argmax(vals))
        a0 = float(a0s[i])
        if 0 < i < n_points - 1:
            y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom < 0:
                a0 += 0.5 * (y0 - y2) / denom * (a0s[1] - a0s[0])
        a1 = float(self.reaction(a0, eps=eps)) if realize_with_true_gain \
            else float(self.reaction(a0, eps=eps, gain_to_follower=believed_gain))
        return {
            "a0": a0,
            "a1": a1,
            "w0": float(self.leader_utility(a0, a1)),
            "w1": float(self.follower_utility(a0, a1)),
        }


def e1_oracle():
    return PricedTwoPlayer1D(h00=1.0, h11=1.0, h01=0.5, h10=0.5,
                             sigma0=0.1, sigma1=0.1, c0=0.8, c1=0.5,
                             a0_max=1.0, a1_max=2.0)


# ---------------------------------------------------------------------------
# worst-case observation brute force
# ---------------------------------------------------------------------------

def ball_surface_points(rng, center, radius, n_samples):
    """Uniform-ish directions on the sphere around `center` (normalized Gaussians)."""
    k = center.size
    dirs = rng.standard_normal((n_samples, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center[None, :] + radius * dirs


def brute_force_worst_observation(utility_fn, center, radius, n_samples, rng):
    """Min of utility_fn over sampled surface points of the radius-ball.

    Points that would leave the positive orthant are clipped just inside; the
    true minimizer inflates the impact, so clipping never hides it.
    """
    pts = ball_surface_points(rng, center, radius, n_samples)
    pts = np.maximum(pts, 1e-9)
    vals = np.array([utility_fn(p) for p in pts])
    idx = int(np.argmin(vals))
    return pts[idx], float(vals[idx])


# ---------------------------------------------------------------------------
# waterfilling brute force
# ---------------------------------------------------------------------------

def simplex_grid(budget, k, step):
    """All nonnegative k-vectors summing to `budget` on a `step` grid."""
    n = int(round(budget / step))
    if k == 1:
        return np.array([[budget]])
    if k == 2:
        first = np.arange(n + 1) * step
        return np.column_stack([first, budget - first])
    if k == 3:
        rows = []
        for i in range(n + 1):
            j = np.arange(n - i + 1)
            block = np.column_stack([
                np.full(j.size, i * step), j * step, (n - i - j) * step])
            rows.append(block)
        return np.vstack(rows)
    raise ValueError("grid oracle supports k <= 3")


def waterfill_grid_oracle(h, f, budget, step):
    """Best throughput allocation on the budget face by exhaustive grid."""
    k = h.size
    grid = simplex_grid(budget, k, step)
    vals = np.log1p(grid * h[None, :] / f[None, :]).sum(axis=1)
    idx = int(np.argmax(vals))
    return grid[idx], float(vals[idx])


def waterfill_level_oracle(q, lo, hi, budget):
    """Box-aware waterfill a = clip(w - q, lo, hi) spending min(budget, sum hi).

    The floor when it alone meets the budget.  Otherwise the total is
    nondecreasing in the water level w, so halving a bracket on w until its
    ends are adjacent floats finds the level; slow, and obviously right.
    `q` must be finite; `hi` may hold inf.
    """
    q, lo, hi = (np.asarray(x, dtype=float) for x in (q, lo, hi))
    if lo.sum() >= budget:
        return lo.copy()
    if hi.sum() <= budget:
        return hi.copy()
    # every channel at its floor below w_lo; at w_hi every finite ceiling is
    # reached and an infinite one alone takes the budget
    w_lo = float(np.min(q + lo)) - 1.0
    w_hi = float(np.max(q)) + max(budget, float(np.max(hi[np.isfinite(hi)],
                                                       initial=0.0)))
    while True:
        mid = 0.5 * (w_lo + w_hi)
        if not w_lo < mid < w_hi:
            return np.clip(w_hi - q, lo, hi)
        if np.clip(mid - q, lo, hi).sum() < budget:
            w_lo = mid
        else:
            w_hi = mid
