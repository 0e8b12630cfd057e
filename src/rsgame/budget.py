"""Sum-power-constrained best responses (waterfilling) and overlap statistics.

Under a total action budget the per-dimension utility has no price term, so a
player's best response fills power above the per-dimension inverse quality
q_k = f_k / H_k up to a common water level chosen to spend the budget.  The
level is exact: the total allocation is piecewise linear in it, so
`waterfill_batch` reads it off the sorted breakpoints where channels enter
the active set or saturate.  The Euclidean projection onto a box with a sum
budget is the same problem with q = -z.

The robust variant is the saddle point of the max-min problem over the
eps-ball of observations: the waterfill against the worst observation, which
is in turn the worst case (`robust.worst_case_observation`) against it.
`robust_waterfill_batch` solves its KKT conditions exactly, one water level
and one ball multiplier per row: in closed form per channel for a fixed
(level, multiplier), and by bracketed Newton steps in the level and, on the
Schur complement, in the log multiplier.  `robust_waterfill` is its one-row
call.  `robust_waterfill_jacobian` differentiates the saddle point
implicitly: da/df from the same per-channel pieces and one 2x2 solve in the
(level, multiplier) per row, or with the level pinned at a price's 1/c.
"""

from dataclasses import dataclass

import numpy as np

from . import game, robust
from .errors import InvalidSpecError, IterationLimitError

_SADDLE_TOL = 1e-12   # the robust waterfill's KKT residual
_SADDLE_ITERS = 200   # and its iterate limit


def inverse_quality(h, f):
    """Per-channel inverse quality f / h, infinite where the gain h is zero."""
    with np.errstate(divide="ignore"):
        return np.where(h > 0, f / np.where(h > 0, h, 1.0), np.inf)


def waterfill(spec, player, impact, budget):
    """Budget-constrained best response: one row of `waterfill_batch`.

    a_k = clip(w - f_k/H_k, [lo_k, hi_k]) with the common water level w chosen
    so the total equals max(sum lo, min(budget, sum over H_k > 0 of hi_k plus
    sum over H_k = 0 of lo_k)): power on a channel with zero direct gain only
    adds interference, so such a channel stays at its floor even when budget
    is left.  Channels whose inverse quality exceeds the water level stay at
    their floor; if no channel is usable, or the floors alone exceed the
    budget, the floor allocation is returned rather than raising.
    """
    if budget <= 0:
        raise InvalidSpecError("budget must be positive")
    f = np.asarray(impact, dtype=float)
    game._check_impact(f)
    q = inverse_quality(spec.direct_gain(player), f)
    return waterfill_batch(q[None, :], spec.action_min[player],
                           spec.action_max[player], budget)[0]


def waterfill_batch(q, lo, hi, budget):
    """Exact waterfill over a batch: q is (B, K), budget scalar or (B,).

    Each row spends max(sum lo, min(budget, sum of hi over finite q plus sum
    of lo over infinite q)); a channel with infinite q stays at its floor.
    Event sweep over the sorted 2K breakpoints: the total allocation is
    piecewise linear in the water level with slope equal to the number of
    active channels, so prefix sums of slope * segment-length locate the
    segment containing the budget without forming any (B, 2K, K) tensor.
    Infinite ceilings are replaced by twice max(budget, 1), which no
    allocation within the budget reaches.  lo and hi are scalars, (K,) or
    (B, K); a box shared by every row is summed once.

    The sort need not be stable.  Equal breakpoints bound segments of
    length zero, so the totals do not depend on the order inside a group of
    them, and the level is read at the last breakpoint of a group, where the
    slope counts the whole group.  The one exception is a row whose totals
    all fall short of the target by rounding: it reads the second-to-last
    breakpoint, where a stable sort (floors before ceilings) has slope 1,
    and it takes that slope whatever the order.
    """
    q = np.asarray(q, dtype=float)
    b, k = q.shape
    lo, hi = _channels(lo, k), _channels(hi, k)
    budget = np.asarray(budget, dtype=float)
    hi = np.where(np.isinf(hi), (np.maximum(budget, 1.0) * 2.0)[..., None], hi)
    base = lo.sum(axis=-1)
    target = np.minimum(budget, hi.sum(axis=-1))
    finite_q = np.where(np.isinf(q), 1e300, q)
    events = np.concatenate([finite_q + lo, finite_q + hi], axis=1)  # (B, 2K)
    order = np.argsort(events, axis=1)
    # the sorted breakpoints, flat, row after row
    row = (2 * k) * np.arange(b)
    breaks = events.ravel()[(order + row[:, None]).ravel()]
    # the slope after each breakpoint, a running count of floors minus
    # ceilings
    slope = _running_sum(np.where(order < k, 1.0, -1.0)).ravel()
    # the growth of the total up to each breakpoint, 0 at a row's first
    # (the slope before it, the previous row's last, is 0)
    seg = np.empty(b * 2 * k)
    seg[0] = 0.0
    np.multiply(slope[:-1], breaks[1:] - breaks[:-1], out=seg[1:])
    totals = _running_sum(seg.reshape(b, 2 * k))
    totals += base[..., None]
    # a count of small integers, exact in any order
    short = ((totals < target[..., None]) @ np.ones(2 * k)).astype(np.intp)
    idx = np.minimum(short, 2 * k - 1)
    prev = np.maximum(idx - 1, 0) + row
    s_prev = np.where(short < 2 * k, slope[prev], 1.0)
    w = np.where(s_prev > 0,
                 breaks[prev] + (target - totals.ravel()[prev])
                 / np.maximum(s_prev, 1),
                 breaks[idx + row])
    alloc = np.subtract(w[:, None], finite_q)
    np.clip(alloc, lo, hi, out=alloc)
    floor = base >= target
    if floor.any():
        np.copyto(alloc, lo, where=floor[..., None])
    return alloc


def _channels(x, k):
    """x as a float array whose last axis is the K channels."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim else np.full(k, x)


def _running_sum(x):
    """np.cumsum(x, axis=1) in place, one column at a time: the same sums in
    the same order, without numpy's loop per row, which costs more than the
    sums themselves on rows of 2K."""
    for j in range(1, x.shape[1]):
        x[:, j] += x[:, j - 1]
    return x


def project_box_budget_batch(z, lo, hi, budget):
    """Euclidean projection of each row of z onto {lo <= a <= hi, sum(a) <= budget}.

    z is (B, K) and budget a scalar.  A row whose box-clipped point meets
    the budget is that point; any other row is clip(z - mu, lo, hi) with the
    uniform shift mu that spends the budget exactly, i.e. the waterfill of
    q = -z (the floor when the budget is below sum(lo)).
    """
    clipped = np.clip(z, lo, hi)
    over = clipped.sum(axis=1) > budget
    if over.any():
        clipped[over] = waterfill_batch(-z[over], lo, hi, budget)
    return clipped


def robust_waterfill(spec, player, nominal_impact, eps, budget):
    """Max-min robust waterfill of one player: one row of `robust_waterfill_batch`.

    The allocation that maximizes the worst-case utility over the eps-ball
    of observations around the nominal impact: the waterfill against the
    worst observation, which is in turn the worst case against it.  With
    eps = 0 it is the nominal waterfill, bit for bit.
    """
    if eps < 0:
        raise InvalidSpecError("eps must be nonnegative")
    if budget <= 0:
        raise InvalidSpecError("budget must be positive")
    f = np.asarray(nominal_impact, dtype=float)
    game._check_impact(f)
    alloc, _ = robust_waterfill_batch(
        f[None, :], spec.direct_gain(player)[None, :], spec.action_min[player],
        spec.action_max[player], budget, eps)
    return alloc[0]


def robust_waterfill_batch(f, h, lo, hi, budget, eps, start=None):
    """Saddle points of the max-min robust waterfill, one per row.

    f (nominal impacts) and h (direct gains) are (B, K); lo and hi broadcast
    to them, budget and eps are scalars or (B,).  Returns the allocations a
    and the worst observations t = f + s, both (B, K): a is the waterfill of
    t, spending what `waterfill_batch` spends, and s the worst shift on the
    eps-ball against a.  With u = h * a, one water level w and one ball
    multiplier mu per row satisfy

        a_k = clip(w - t_k / h_k, lo_k, hi_k),  sum(a) = target,
        s_k = mu * u_k / (t_k (t_k + u_k)),     |s| = eps.

    For a fixed (w, mu) each t_k is unique.  On the interior piece
    t + u = h w, so t is the positive root of t^2 + (mu / (h w) - f) t = mu
    in closed form; on the floor or ceiling piece u is fixed and s is the
    root of the cubic s (f + s)(f + s + u) = mu u (`robust._cubic_roots`).
    sum(a) rises in w and falls in mu, so Newton steps in w meet the budget
    inside a bracket from the nominal level (t >= f), from t <= f + sqrt(mu)
    and from the level at the previous mu.  |s| rises in mu along that
    w(mu), so Newton steps in log mu on the Schur complement meet the ball
    inside a bracket set by the sign of |s| - eps, and move w along w(mu)
    in log-log terms.  A step that would leave its bracket, or is not half
    the step before the last, bisects the bracket instead.  The start is
    the nominal waterfill and mu = eps / |r|, r = u / (f (f + u)) at f;
    `start`, a pair (w, log mu) of (B,) arrays such as `saddle_start` reads
    off a nearby row's saddle point, replaces it on the rows where both are
    finite (NaN leaves a row cold).  A warm row keeps the cold brackets:
    its level is clipped into the first one, and its multiplier's is open.

    A row is done once |sum(a) - target| and ||s| - eps| are below
    `_SADDLE_TOL` (raised to 32 roundings of the values involved), or once
    its bracket has closed to rounding.  Raises `IterationLimitError` with
    the batch's last allocations after `_SADDLE_ITERS` iterates.  Rows with
    eps = 0 or nothing at stake get the nominal waterfill, bit for bit.
    """
    f = np.asarray(f, dtype=float)
    b, k = f.shape
    h = np.broadcast_to(np.asarray(h, dtype=float), (b, k))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (b,))
    usable = h > 0
    hs = np.where(usable, h, 1.0)
    q = np.where(usable, f / hs, np.inf)
    alloc = waterfill_batch(q, lo, hi, budget)
    worst = f.copy()
    stake = eps > 0
    if stake.any():
        u = h * alloc
        r = u / (f * (f + u))
        norm_r = np.sqrt((r * r).sum(axis=1))
        del u, r  # the kernel's peak memory is its live (B, K) arrays
        stake &= norm_r >= robust._DEGENERATE_GRAD
    rows = np.flatnonzero(stake)
    if rows.size == 0:
        return alloc, worst

    # a nominal level: a + q is the level on a channel strictly inside its
    # box and at most the level on a ceiling; with every channel on its
    # floor, min(q + lo) is one
    raised = usable & (alloc > lo)
    w_nom = np.where(raised.any(axis=1),
                     np.where(raised, alloc + q, -np.inf).max(axis=1),
                     np.where(usable, q + lo, np.inf).min(axis=1))
    reach = np.where(raised, 1.0 / hs, 0.0).max(axis=1)
    del q, raised
    # views, not copies, when every row takes part
    take = slice(None) if rows.size == b else rows
    w, log_mu = w_nom[take], np.log(eps[take] / norm_r[take])
    if start is not None:
        w0, log_mu0 = (np.broadcast_to(np.asarray(x, dtype=float), (b,))[take]
                       for x in start)
        warm = np.isfinite(w0) & np.isfinite(log_mu0)
        w, log_mu = np.where(warm, w0, w), np.where(warm, log_mu0, log_mu)
    lo, hi = (np.broadcast_to(x, (b, k))[take] for x in (lo, hi))
    st = _Saddle(
        rows, f[take], hs[take], usable[take], lo, hi,
        target=alloc[take].sum(axis=1), eps=eps[take], w_nom=w_nom[take],
        reach=reach[take], w=w, log_mu=log_mu)
    for _ in range(_SADDLE_ITERS):
        st.evaluate()
        done = st.converged()
        finished = done.any()
        if finished:
            alloc[st.rows[done]] = st.a[done]
            worst[st.rows[done]] = st.f[done] + st.s[done]
            if done.all():
                return alloc, worst
        # the step is row by row, so the finished rows may take it too
        st.step()
        if finished:
            st.keep(~done)
    live = ~done
    alloc[st.rows] = st.a[live]
    raise IterationLimitError(
        f"robust waterfilling did not converge in {_SADDLE_ITERS} iterations",
        last_iterate=alloc, residual=float(np.max(np.maximum(
            np.abs(st.res_w[live]), np.abs(st.res_mu[live])))))


def robust_waterfill_jacobian(f, h, lo, hi, a, t, pinned=False):
    """Jacobian da/df (R, K, K) of `robust_waterfill_batch` at its saddle points.

    f, h, lo and hi are the kernel's inputs and a, t its outputs, (R, K) or
    broadcast to it; J[r, k, j] = da_k/df_j of row r.  The derivative is
    that of the current piece: a channel strictly inside its box stays
    inside, one on its floor or ceiling stays there, so at a kink it is the
    one-sided derivative along which no channel changes piece.

    The multiplier is `saddle_multiplier`'s.  An inner channel has
    t + u = h w and t^2 + (mu / (h w) - f) t = mu; a pinned channel has
    u fixed and s (f + s)(f + s + u) = mu u.  Differentiating
    both, with sum(da) = 0 and sum(s ds) = 0, leaves a 2x2 solve in
    (dw, dmu) per row.  A row with s = 0 (eps = 0, or nothing at stake)
    drops the ball row, and a row with no inner channel has da = 0.
    `pinned` keeps the level instead of the budget, dw = 0: the priced
    robust reaction clip(1/c - t/h) at its worst observation t.
    """
    f = np.asarray(f, dtype=float)
    r, k = f.shape
    h, lo, hi, a, t = (np.broadcast_to(np.asarray(x, dtype=float), (r, k))
                       for x in (h, lo, hi, a, t))
    s = t - f
    u = h * a
    inner = (h > 0) & (a > lo) & (a < hi)
    inv_h = np.where(inner, 1.0 / np.where(inner, h, 1.0), 0.0)
    mu = saddle_multiplier(f, h, a, t)[:, None]
    # inner channels: dt = t_w dw + t_mu dmu + t_f df
    hw = t + u
    den = t * t + mu
    t_f = t * t / den
    t_w = mu * t * t * h / (hw * hw * den)
    t_mu = u * t / (hw * den)
    # every channel: ds = s_mu dmu + s_f df, plus t_w dw inside the box
    p2u = 2.0 * t + u
    g_s = t * (t + u) + s * p2u
    s_mu = np.where(inner, t_mu, u / g_s)
    s_f = np.where(inner, t_f - 1.0, -s * p2u / g_s)
    # da = a_w dw + a_mu dmu - b_w df on each channel; the budget row
    # sum(da) = 0 (dw = 0 with the level pinned) and the ball row
    # sum(s ds) = 0, one column per df_j
    a_w = np.where(inner, 1.0 - t_w * inv_h, 0.0)
    a_mu = -t_mu * inv_h
    b_w = t_f * inv_h
    b_mu = -s * s_f
    da_dw, da_dmu, b_row = (1.0, 0.0, 0.0) if pinned else (
        a_w.sum(axis=1)[:, None], a_mu.sum(axis=1)[:, None], b_w)
    ss_w = np.where(inner, s * t_w, 0.0).sum(axis=1)[:, None]
    ss_mu = (s * s_mu).sum(axis=1)[:, None]
    ball = ss_mu > 0
    det = np.where(ball, da_dw * ss_mu - da_dmu * ss_w, da_dw)
    det = np.where(det > 0, det, 1.0)
    dw = np.where(ball, ss_mu * b_row - da_dmu * b_mu, b_row) / det
    dmu = np.where(ball, da_dw * b_mu - ss_w * b_row, 0.0) / det
    jac = a_w[:, :, None] * dw[:, None, :] + a_mu[:, :, None] * dmu[:, None, :]
    idx = np.arange(k)
    jac[:, idx, idx] -= b_w
    return jac


def saddle_multiplier(f, h, a, t):
    """Ball multiplier (R,) of saddle points (a, t) of `robust_waterfill_batch`.

    Read off the channel with the largest shift among those with u = h a > 0:
    mu = s t (t + u) / u, with s = t - f.  It is 0 where no channel has
    u > 0, and where s = 0 (eps = 0, or nothing at stake).
    """
    s = t - f
    u = h * a
    at = np.arange(f.shape[0]), np.where(u > 0, s, -np.inf).argmax(axis=1)
    s_at, t_at, u_at = s[at], t[at], u[at]
    return np.where(u_at > 0, s_at * t_at * (t_at + u_at)
                    / np.where(u_at > 0, u_at, 1.0), 0.0)


def saddle_start(f, h, lo, hi, a, t):
    """Level and log multiplier (w, log mu) of saddle points (a, t), per row.

    The start `robust_waterfill_batch` takes.  f, h, lo and hi are the
    kernel's inputs and a, t its outputs, (R, K) or broadcast to it.  The
    level is w = a + t / h on a channel strictly inside its box, the
    multiplier `saddle_multiplier`'s.  A row with mu = 0 or no channel
    inside its box gets NaN for both: it starts cold.
    """
    f = np.asarray(f, dtype=float)
    h, lo, hi, a, t = (np.broadcast_to(np.asarray(x, dtype=float), f.shape)
                       for x in (h, lo, hi, a, t))
    inner = (h > 0) & (a > lo) & (a < hi)
    w = np.where(inner, a + t / np.where(inner, h, 1.0), -np.inf).max(axis=1)
    mu = saddle_multiplier(f, h, a, t)
    warm = inner.any(axis=1) & (mu > 0)
    return (np.where(warm, w, np.nan),
            np.where(warm, np.log(np.where(warm, mu, 1.0)), np.nan))


# steps a row may take in mu while off the budget
_JOINT_ITERS = 12


class _Saddle:
    """Live rows of `robust_waterfill_batch`: the iterate (w, log mu), its
    brackets and last steps, and what `evaluate` finds there."""

    # what a row carries from one iteration to the next; `evaluate` and
    # `converged` recompute the rest
    _STATE = ("rows", "f", "h", "inv_h", "lo", "hi", "edge", "u_lo", "u_hi",
              "target", "eps", "log_eps", "w_nom", "reach", "tol_s", "log_mu",
              "mu_lo", "mu_hi", "dmu", "dmu_old", "w_lo", "w_hi", "w", "dw",
              "dw_old")

    def __init__(self, rows, f, h, usable, lo, hi, *, target, eps, w_nom,
                 reach, w, log_mu):
        self.rows, self.f, self.h, self.lo, self.hi = rows, f, h, lo, hi
        self.inv_h = 1.0 / h
        # a channel with h w <= h lo + f is on its floor whatever t >= f
        self.edge = np.where(usable, h * lo + f, np.inf)
        self.u_lo = np.where(usable, h * lo, 0.0)
        finite = usable & np.isfinite(hi)
        self.u_hi = np.where(finite, h * np.where(finite, hi, 0.0), 0.0)
        self.target, self.eps, self.log_eps = target, eps, np.log(eps)
        self.w_nom, self.reach = w_nom, reach
        self.tol_s = np.maximum(_SADDLE_TOL,
                                robust._ROUNDING * (f.max(axis=1) + eps))
        n = rows.size
        self.log_mu = log_mu
        self.mu_lo, self.mu_hi = np.full(n, -np.inf), np.full(n, np.inf)
        self.dmu, self.dmu_old = np.full(n, np.inf), np.full(n, np.inf)
        self.w_lo = w_nom.copy()
        self.w_hi = w_nom + np.exp(0.5 * log_mu) * reach
        self.w = np.clip(w, w_nom, self.w_hi)
        self.dw, self.dw_old = np.full(n, np.inf), np.full(n, np.inf)
        self.age = 0  # steps taken, the same for every row

    def keep(self, live):
        for key in self._STATE:
            setattr(self, key, getattr(self, key)[live])

    def evaluate(self):
        """Allocation, shift and derivatives at the current (w, mu)."""
        f, h, inv_h = self.f, self.h, self.inv_h
        w = self.w[:, None]
        mu = np.exp(self.log_mu)[:, None]
        hw = h * w
        open_ = hw > self.edge
        hw = np.where(open_, hw, 1.0)
        c = mu / hw - f
        root = np.sqrt(c * c + 4.0 * mu)
        t = np.where(c > 0, 2.0 * mu / (c + root), 0.5 * (root - c))
        a = w - t * inv_h
        floor = ~open_ | (a <= self.lo)
        ceil = ~floor & (a >= self.hi)
        inner = ~(floor | ceil)
        g = np.where(inner, t / (hw * (t * t + mu)), 0.0)
        t_w = h * mu * t * g / hw                  # dt/dw
        s_mu = (hw - t) * g                         # ds/dmu
        self.da_dw = (inner - t_w * inv_h).sum(axis=1)
        self.da_dmu = -(s_mu * inv_h).sum(axis=1)
        s = np.where(inner, t - f, 0.0)
        for piece, u in ((floor, self.u_lo), (ceil, self.u_hi)):
            sel = piece & (u > 0)
            if sel.any():
                fs, us = f[sel], u[sel]
                ms = np.broadcast_to(mu, sel.shape)[sel]
                start = np.minimum(np.cbrt(ms * us), ms * us / (fs * (fs + us)))
                ss = robust._cubic_roots(fs, us, ms, start)
                p = fs + ss
                s[sel] = ss
                s_mu[sel] = us / (p * (p + us) + ss * (2.0 * p + us))
        self.a = np.where(floor, self.lo, np.where(ceil, self.hi, a))
        self.s = s
        self.ss_w = (s * t_w).sum(axis=1)
        self.ss_mu = (s * s_mu).sum(axis=1)
        self.res_w = self.a.sum(axis=1) - self.target
        self.norm_s = np.sqrt((s * s).sum(axis=1))
        self.res_mu = self.norm_s - self.eps

    def converged(self):
        rounding = robust._ROUNDING
        absw = np.abs(self.w)
        self.on_budget = (
            (np.abs(self.res_w) <= np.maximum(
                _SADDLE_TOL, rounding * np.maximum(self.target, absw)))
            | (self.w_hi - self.w_lo <= rounding * absw))
        return self.on_budget & (
            (np.abs(self.res_mu) <= self.tol_s)
            | (self.mu_hi - self.mu_lo
               <= rounding * np.maximum(1.0, np.abs(self.log_mu))))

    def step(self):
        """One safeguarded Newton step in w, and in log mu near the budget.

        Off the budget the level takes a bracketed Newton step for the
        current mu.  Near it (or on it) mu also steps, on the ball residual
        predicted at the corrected level, and the level follows w(mu); its
        bracket then restarts, from the old level where that was on the
        budget.  A row whose ball residual is within tolerance keeps its
        mu.  The ball's bracket only moves on the budget, where the sign
        of |s| - eps is the sign along w(mu); a row that has not converged
        in `_JOINT_ITERS` steps stops stepping mu off the budget.
        """
        on, res_w, w = self.on_budget, self.res_w, self.w
        self.age += 1
        off = ~on
        self.w_lo = np.where(off & (res_w < 0), w, self.w_lo)
        self.w_hi = np.where(off & (res_w > 0), w, self.w_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = -res_w / self.da_dw
        dw = np.where(off, _safeguard(w, newton, self.w_lo, self.w_hi,
                                      self.dw_old), 0.0)
        # a row already on the ball only steps its level: stepping mu would
        # restart the level's bracket, and a Newton step that jumps across a
        # kink of sum(a) in w would then never be bisected
        near = (np.abs(self.res_mu) > self.tol_s) & (
            on | ((dw == newton) & (self.age <= _JOINT_ITERS)
                  & (np.abs(res_w) <= 1e-2 * self.target)))
        self.dw_old, self.dw = self.dw, dw
        w = w + dw
        self.w = w
        if not near.any():
            return
        res_mu, log_mu, norm_s = self.res_mu, self.log_mu, self.norm_s
        self.mu_lo = np.where(on & (res_mu < 0), log_mu, self.mu_lo)
        self.mu_hi = np.where(on & (res_mu > 0), log_mu, self.mu_hi)
        mu = np.exp(log_mu)
        # along w(mu): dw/dmu from the budget row, the Schur complement
        da_dw = np.where(self.da_dw > 0, self.da_dw, 1.0)
        dw_dmu = np.where(self.da_dw > 0, -self.da_dmu / da_dw, 0.0)
        norm_on = np.clip(norm_s + self.ss_w / norm_s * dw, 0.5 * norm_s,
                          2.0 * norm_s)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = mu * (self.ss_mu + self.ss_w * dw_dmu) / (norm_s * norm_s)
            step = (self.log_eps - np.log(norm_on)) / slope
        step = np.where(np.isfinite(step), step, -10.0 * np.sign(res_mu))
        step = _safeguard(log_mu, np.clip(step, -10.0, 10.0), self.mu_lo,
                          self.mu_hi, self.dmu_old)
        self.dmu_old = np.where(near, self.dmu, self.dmu_old)
        self.dmu = np.where(near, step, self.dmu)
        self.log_mu = np.where(near, log_mu + step, log_mu)
        # sum(a) falls in mu: a level at or below the budget stays below it
        # for a larger mu, one at or above it above it for a smaller mu; and
        # the level moves along its log-log slope
        up = step > 0
        w_hi = self.w_nom + np.exp(0.5 * self.log_mu) * self.reach
        w_lo = np.where(on & up & (res_w <= 0), w, self.w_nom)
        w_hi = np.where(on & ~up & (res_w >= 0), np.minimum(w, w_hi), w_hi)
        w_pred = np.clip(w * np.exp(step * mu * dw_dmu / w), w_lo, w_hi)
        self.w = np.where(near, w_pred, w)
        self.w_lo = np.where(near, w_lo, self.w_lo)
        self.w_hi = np.where(near, w_hi, self.w_hi)
        self.dw = np.where(near, np.inf, self.dw)
        self.dw_old = np.where(near, np.inf, self.dw_old)


def _safeguard(x, step, lo, hi, step_old):
    """A Newton step from x, unless it leaves (lo, hi) or is not half of
    `step_old`: then the step to the bracket's midpoint, or one unit toward
    its open side while one end is still infinite."""
    x_new = x + step
    inside = (lo < x_new) & (x_new < hi)
    newton = inside & (np.abs(step) <= 0.5 * np.abs(step_old))
    bounded = np.isfinite(lo) & np.isfinite(hi)
    with np.errstate(invalid="ignore"):
        mid = np.where(bounded, 0.5 * (lo + hi) - x, np.where(
            np.isfinite(lo), 1.0, -1.0))
    return np.where(newton | (inside & ~bounded), step, mid)


@dataclass(frozen=True)
class OverlapStats:
    """Active-dimension sets per player and their pairwise intersections."""

    used: dict        # player -> frozenset of active dimensions
    common: dict      # (n, m) with n < m -> frozenset
    sizes: dict       # player -> |used|
    common_sizes: dict  # (n, m) -> |common|


def overlap_stats(profile, threshold):
    """Dimensions where each player's action exceeds `threshold`, plus overlaps."""
    if threshold < 0:
        raise InvalidSpecError("threshold must be nonnegative")
    a = game.as_actions(profile)
    n = a.shape[0]
    used = {i: frozenset(np.nonzero(a[i] > threshold)[0].tolist()) for i in range(n)}
    common = {}
    for i in range(n):
        for j in range(i + 1, n):
            common[(i, j)] = used[i] & used[j]
    return OverlapStats(
        used=used,
        common=common,
        sizes={i: len(used[i]) for i in range(n)},
        common_sizes={k: len(v) for k, v in common.items()},
    )


def activity_threshold(budget, n_dims):
    """Default activity threshold for membership in the used-dimension sets."""
    return 1e-6 * (budget / n_dims)
