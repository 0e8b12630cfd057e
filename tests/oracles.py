"""Independent oracles used to compute expected values before asserting them.

Everything here is deliberately dumb: dense grids, direct summation, finite
differences and high-precision scalar arithmetic.  Nothing imports solver
internals beyond the public utility evaluation, so these stay independent of
the code paths they check.
"""

import itertools

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


def two_leaders_grid_max(direct, cross, noise, price, a_max, n_points):
    """Leaders' summed utility maximized over a dense grid, K = 1.

    Players 0 and 1 lead, player 2 follows; both leaders range over
    [0, a_max] and the follower plays its closed-form priced reaction
    clip(1/c - f/h, 0, a_max) to their actions.  `cross[n, m]` is player m's
    gain at player n.  Returns (a0, a1, value) of the best grid point.
    """
    h, c = np.ravel(direct), np.ravel(price)
    g = np.asarray(cross, dtype=float).reshape(3, 3)
    xs = np.linspace(0.0, a_max, n_points)
    a0, a1 = np.meshgrid(xs, xs, indexing="ij")
    f2 = noise + g[2, 0] * a0 + g[2, 1] * a1
    a2 = np.clip(1.0 / c[2] - f2 / h[2], 0.0, a_max)
    u0 = np.log1p(h[0] * a0 / (noise + g[0, 1] * a1 + g[0, 2] * a2)) - c[0] * a0
    u1 = np.log1p(h[1] * a1 / (noise + g[1, 0] * a0 + g[1, 2] * a2)) - c[1] * a1
    total = u0 + u1
    best = np.unravel_index(int(np.argmax(total)), total.shape)
    return float(a0[best]), float(a1[best]), float(total[best])


def separable_leader_grid_max(gains, noise, price, a_max, n_points):
    """One leader's nominal utility maximized subchannel by subchannel, any K.

    Player 0 leads and player 1 follows; `gains[n, m]` (K,) is player m's
    gain at player n, so the diagonal holds the direct gains.  Without
    uncertainty each subchannel is a game of its own: the follower plays
    clip(1/c1 - (noise1 + x10 a0)/h11, 0, a_max) there, and the leader's
    utility is a sum of per-subchannel terms.  Each term is maximized on a
    dense grid over [0, a_max]; returns the sum of the K grid maxima.
    """
    g = np.asarray(gains, dtype=float)
    noise, c = np.asarray(noise, dtype=float), np.ravel(price)
    a0 = np.linspace(0.0, a_max, n_points)[:, None]  # (n_points, 1)
    a1 = np.clip(1.0 / c[1] - (noise[1] + g[1, 0] * a0) / g[1, 1], 0.0, a_max)
    u0 = np.log1p(g[0, 0] * a0 / (noise[0] + g[0, 1] * a1)) - c[0] * a0
    return float(u0.max(axis=0).sum())


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


# ---------------------------------------------------------------------------
# worst-case observation by nested bisection
# ---------------------------------------------------------------------------

def _bisect_increasing(fn, lo, hi, target):
    """Elementwise root of an increasing fn on [lo, hi] by bisection.

    Halves until the bracket's ends are adjacent floats and returns its
    upper end, where fn >= target.
    """
    lo, hi = lo.copy(), hi.copy()
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        up = fn(mid) >= target
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return hi


def worst_case_observation_oracle(h, a, f, eps):
    """Worst observation f + s on the eps-ball for log(1 + h a / t) utilities.

    With u = h a, stationarity on the ball reads s = mu u / (t (t + u)) at
    t = f + s, so each s_k is the nonnegative root of the increasing cubic
    s (f + s)(f + u + s) = mu u, and |s(mu)| rises with mu.  Plain
    bisection on mu for |s(mu)| = eps, and for every mu a bisection on
    each dimension's cubic (its root is at most both (mu u)^(1/3) and
    mu u / (f (f + u))).  Arrays are (..., K) with eps of shape (...), so
    one call bisects a whole batch of states; where u vanishes everywhere
    the nominal f comes back.
    """
    u = np.asarray(h, dtype=float) * np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    eps = np.asarray(eps, dtype=float)[..., None]

    def shift(mu):
        target = mu * u
        top = np.minimum(np.cbrt(target), target / (f * (f + u)))
        return _bisect_increasing(lambda s: s * (f + s) * (f + u + s),
                                  np.zeros_like(top), top, target)

    def norm(mu):
        return np.linalg.norm(shift(mu), axis=-1, keepdims=True)

    live = np.any(u > 0, axis=-1, keepdims=True)
    mu_hi = np.ones_like(eps)
    while np.any(live & (norm(mu_hi) < eps)):
        mu_hi = np.where(norm(mu_hi) < eps, 2.0 * mu_hi, mu_hi)
    mu = _bisect_increasing(norm, np.zeros_like(mu_hi), mu_hi, eps)
    return np.where(live, f + shift(mu), f)


# ---------------------------------------------------------------------------
# robust waterfill by nested bisection
# ---------------------------------------------------------------------------

def robust_waterfill_oracle(f, h, lo, hi, budget, eps):
    """Max-min robust waterfill (a, t) for log(1 + h a / t) utilities.

    The saddle point of max over the budgeted box of min over the eps-ball
    around f: a = clip(w - t / h, lo, hi) spends the waterfill's total, and
    t = f + s with s_k = mu u_k / (t_k (t_k + u_k)), u = h a, |s| = eps.
    Three nested bisections, each down to adjacent floats:

    * t_k for a fixed (mu, w): t - f - mu u(t) / (t (t + u(t))) with
      u(t) = h clip(w - t / h, lo, hi) increases in t, is <= 0 at f and
      >= 0 at (f + sqrt(f^2 + 4 mu)) / 2;
    * w for a fixed mu: sum(a) rises in w;
    * mu: |s| rises in mu along w(mu).

    t_k rises in w and in mu, and w(mu) in mu, so the t and w found at the
    ends of a bracket bracket them inside it.  Arrays are (B, K) with
    budget and eps of shape (B,); channels with h = 0 sit on their floor
    and see f.  Rows with nothing at stake (h a = 0 on every channel) get
    mu = 0, the nominal waterfill.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    h, lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), f.shape)
                 for x in (h, lo, hi))
    budget, eps = (np.broadcast_to(np.asarray(x, dtype=float), (n,))
                   for x in (budget, eps))
    usable = h > 0
    target = np.maximum(lo.sum(axis=1), np.minimum(
        budget, np.where(usable, hi, lo).sum(axis=1)))
    # the usable channels, flattened row by row; the others sit at lo
    row = np.nonzero(usable)[0]
    fu, hu, lou, hiu = f[usable], h[usable], lo[usable], hi[usable]
    idle = np.where(usable, 0.0, lo).sum(axis=1)

    def alloc(w, t):
        return np.clip(w[row] - t / hu, lou, hiu)

    def spent(w, t):
        return idle + np.bincount(row, weights=alloc(w, t), minlength=n)

    def impacts(mu, w, t_lo, t_hi, rows):
        """t on the channels of the selected rows (t_hi elsewhere)."""
        sel = rows[row]
        t = t_hi.copy()
        if sel.any():
            m, ww, hs, fs = mu[row][sel], w[row][sel], hu[sel], fu[sel]
            ls, us = lou[sel], hiu[sel]

            def g(t):
                u = hs * np.clip(ww - t / hs, ls, us)
                return t - fs - m * u / (t * (t + u))
            t[sel] = _bisect_increasing(g, t_lo[sel], t_hi[sel], 0.0)
        return t

    def level(mu, w_lo, w_hi, t_lo, t_hi, rows):
        """Lowest w with sum(a) >= target in [w_lo, w_hi], and t there."""
        while True:
            mid = 0.5 * (w_lo + w_hi)
            live = rows & (mid != w_lo) & (mid != w_hi)
            if not live.any():
                return w_hi, impacts(mu, w_hi, t_lo, t_hi, rows)
            t_mid = impacts(mu, mid, t_lo, t_hi, live)
            up = spent(mid, t_mid) >= target
            w_hi = np.where(live & up, mid, w_hi)
            w_lo = np.where(live & ~up, mid, w_lo)
            t_hi = np.where((live & up)[row], t_mid, t_hi)
            t_lo = np.where((live & ~up)[row], t_mid, t_lo)

    # below w_floor every channel is on its floor (t >= f); at w_top(mu)
    # every usable channel reaches min(hi, target) (t <= t_max), which
    # spends the target
    w_floor = np.full(n, np.inf)
    np.minimum.at(w_floor, row, fu / hu + lou)
    w_floor = np.where(np.isfinite(w_floor), w_floor, 0.0) - 1.0

    def t_max(mu):
        m = mu[row]
        return 0.5 * (fu + np.sqrt(fu * fu + 4.0 * m))

    def w_top(mu):
        top = np.full(n, -np.inf)
        np.maximum.at(top, row, t_max(mu) / hu + np.minimum(hiu, target[row]))
        return np.maximum(top, w_floor + 1.0)

    def solve(mu, w_lo=w_floor, t_lo=fu, rows=np.ones(n, dtype=bool)):
        """w(mu) and t there, from lower bounds at a smaller mu."""
        return level(mu, w_lo, w_top(mu), t_lo, t_max(mu), rows)

    def norm(t):
        return np.sqrt(np.bincount(row, weights=(t - fu) ** 2, minlength=n))

    zero = np.zeros(n)
    w0, t0 = solve(zero)
    # nothing at stake: every usable channel is off whatever the radius
    live = (eps > 0) & (np.bincount(row, weights=alloc(w0, t0) > 0,
                                    minlength=n) > 0)
    # bracket mu, growing by factors of 16 from the first-order multiplier
    # eps / |r| at the nominal point (r = u / (f (f + u))) with the lower
    # bounds carried up, then bisect
    u0 = hu * alloc(w0, t0)
    r0 = np.sqrt(np.bincount(row, weights=(u0 / (fu * (fu + u0))) ** 2,
                             minlength=n))
    mu_lo, w_lo, t_lo = zero, w0, t0
    mu_hi = np.where(live, eps / np.where(live, r0, 1.0), 0.0)
    w_hi, t_hi = w0, t0
    grow = live
    while grow.any():
        w_new, t_new = solve(mu_hi, w_lo, t_lo, grow)
        w_hi = np.where(grow, w_new, w_hi)
        t_hi = np.where(grow[row], t_new, t_hi)
        grow = grow & (norm(t_hi) < eps)
        mu_lo = np.where(grow, mu_hi, mu_lo)
        w_lo = np.where(grow, w_hi, w_lo)
        t_lo = np.where(grow[row], t_hi, t_lo)
        mu_hi = np.where(grow, 16.0 * mu_hi, mu_hi)
    while True:
        mid = 0.5 * (mu_lo + mu_hi)
        on = live & (mid != mu_lo) & (mid != mu_hi)
        if not on.any():
            break
        w_mid, t_mid = level(mid, w_lo, w_hi, t_lo, t_hi, on)
        up = on & (norm(t_mid) >= eps)
        down = on & ~up
        mu_hi, w_hi = np.where(up, mid, mu_hi), np.where(up, w_mid, w_hi)
        mu_lo, w_lo = np.where(down, mid, mu_lo), np.where(down, w_mid, w_lo)
        t_hi = np.where(up[row], t_mid, t_hi)
        t_lo = np.where(down[row], t_mid, t_lo)
    w = np.where(live, w_hi, w0)
    t_u = np.where(live[row], t_hi, t0)
    a, t = lo.copy(), f.copy()
    a[usable], t[usable] = alloc(w, t_u), t_u
    return a, t


# ---------------------------------------------------------------------------
# the followers' Nash equilibrium of affine priced reactions, by enumeration
# ---------------------------------------------------------------------------

def affine_nash_oracle(h, c, fixed, cross, lo, hi):
    """Every Nash equilibrium of priced followers with affine reactions.

    Follower n reacts to the others' actions by
    a_n = clip(1/c_n - (fixed_n + sum_m cross[n, m] a_m) / h_n, lo_n, hi_n)
    in each dimension, with h > 0 and c > 0; h, fixed, lo and hi are
    (Nf, K), c is (Nf,) and cross (Nf, Nf, K) with a zero diagonal.  Per
    dimension every floor/free/ceiling state of the Nf followers is tried:
    the clamped actions sit on their bounds, the free ones solve their
    linear first-order conditions, and the state holds when each free action
    lies in its box and each clamped reaction lies beyond its bound, up to
    1e-9, which also tells distinct equilibria apart.  Returns per dimension
    the list of distinct equilibria, each (Nf,).
    """
    tol = 1e-9
    h, fixed, lo, hi = (np.asarray(v, dtype=float) for v in (h, fixed, lo, hi))
    c, cross = np.asarray(c, dtype=float), np.asarray(cross, dtype=float)
    nf, k = h.shape
    out = []
    for d in range(k):
        slope = cross[:, :, d] / h[:, d, None]   # row n: cross[n, m] / h_n
        target = 1.0 / c - fixed[:, d] / h[:, d]
        found = []
        for state in itertools.product((-1, 0, 1), repeat=nf):
            state = np.array(state)
            free = state == 0
            if np.any(np.isinf(hi[state > 0, d])):
                continue
            a = np.where(state < 0, lo[:, d], hi[:, d])
            if free.any():
                system = np.eye(free.sum()) + slope[np.ix_(free, free)]
                rhs = target[free] - slope[np.ix_(free, ~free)] @ a[~free]
                try:
                    a[free] = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    continue
            raw = target - slope @ a
            holds = np.where(free, (a >= lo[:, d] - tol) & (a <= hi[:, d] + tol),
                             np.where(state < 0, raw <= lo[:, d] + tol,
                                      raw >= hi[:, d] - tol))
            if holds.all() and not any(np.max(np.abs(a - b)) <= tol
                                       for b in found):
                found.append(a)
        out.append(found)
    return out
