"""Sum-power-constrained best responses (waterfilling) and overlap statistics.

Under a total action budget the per-dimension utility has no price term, so a
player's best response fills power above the per-dimension inverse quality
q_k = f_k / H_k up to a common water level chosen to spend the budget.  The
level is exact: the total allocation is piecewise linear in it, so
`waterfill_batch` reads it off the sorted breakpoints where channels enter
the active set or saturate.  The Euclidean projection onto a box with a sum
budget is the same problem with q = -z.  The robust variant alternates
waterfilling with the exact worst-case observation (`robust`'s KKT point)
until the pair is a fixed point of the max-min problem.
"""

from dataclasses import dataclass

import numpy as np

from . import game, robust
from .errors import InvalidSpecError, IterationLimitError


def _quality(spec, player, f):
    h = spec.direct_gain(player)
    with np.errstate(divide="ignore"):
        q = np.where(h > 0, f / np.where(h > 0, h, 1.0), np.inf)
    return q


def waterfill(spec, player, impact, budget):
    """Budget-constrained best response: one row of `waterfill_batch`.

    a_k = clip(w - f_k/H_k, [lo_k, hi_k]) with the common water level w chosen
    so the total equals min(budget, sum hi).  Channels whose inverse quality
    exceeds the water level stay at their floor; if no channel is usable, or
    the floors alone exceed the budget, the floor allocation is returned
    rather than raising.
    """
    if budget <= 0:
        raise InvalidSpecError("budget must be positive")
    f = game.as_impact(impact)
    game._check_impact(f)
    q = _quality(spec, player, f)
    return waterfill_batch(q[None, :], spec.action_min[player],
                           spec.action_max[player], budget)[0]


def waterfill_batch(q, lo, hi, budget):
    """Exact waterfill over a batch: q is (B, K), budget scalar or (B,).

    Event sweep over the sorted 2K breakpoints: the total allocation is
    piecewise linear in the water level with slope equal to the number of
    active channels, so prefix sums of slope * segment-length locate the
    segment containing the budget without forming any (B, 2K, K) tensor.
    Infinite ceilings are replaced by twice max(budget, 1), which no
    allocation within the budget reaches.
    """
    q = np.asarray(q, dtype=float)
    b, k = q.shape
    lo = np.broadcast_to(lo, q.shape).astype(float)
    hi = np.asarray(np.broadcast_to(hi, q.shape), dtype=float).copy()
    budget = np.broadcast_to(np.asarray(budget, dtype=float), (b,))
    cap = np.broadcast_to((np.maximum(budget, 1.0) * 2.0)[:, None], hi.shape)
    hi = np.where(np.isinf(hi), cap, hi)
    target = np.minimum(budget, hi.sum(axis=1))
    finite_q = np.where(np.isinf(q), 1e300, q)
    events = np.concatenate([finite_q + lo, finite_q + hi], axis=1)  # (B, 2K)
    deltas = np.concatenate([np.ones((b, k)), -np.ones((b, k))], axis=1)
    order = np.argsort(events, axis=1, kind="stable")
    breaks = np.take_along_axis(events, order, axis=1)
    slope = np.cumsum(np.take_along_axis(deltas, order, axis=1), axis=1)
    # totals at the breakpoints: T_0 = sum(lo), then slope * segment length
    seg = slope[:, :-1] * np.diff(breaks, axis=1)
    totals = np.empty_like(breaks)
    totals[:, 0] = lo.sum(axis=1)
    np.cumsum(seg, axis=1, out=totals[:, 1:])
    totals[:, 1:] += totals[:, :1]
    idx = np.minimum((totals < target[:, None]).sum(axis=1), 2 * k - 1)
    prev = np.maximum(idx - 1, 0)[:, None]
    w_prev = np.take_along_axis(breaks, prev, axis=1)[:, 0]
    t_prev = np.take_along_axis(totals, prev, axis=1)[:, 0]
    s_prev = np.take_along_axis(slope, prev, axis=1)[:, 0]
    w = np.where(s_prev > 0,
                 w_prev + (target - t_prev) / np.maximum(s_prev, 1),
                 np.take_along_axis(breaks, idx[:, None], axis=1)[:, 0])
    alloc = np.clip(w[:, None] - finite_q, lo, hi)
    floor = lo.sum(axis=1) >= target
    if floor.any():
        alloc[floor] = lo[floor]
    return alloc


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


def project_box_budget(z, lo, hi, budget):
    """Projection of one action vector: a one-row `project_box_budget_batch`."""
    z = np.asarray(z, dtype=float)
    return project_box_budget_batch(z[None, :], lo, hi, budget)[0]


def robust_waterfill(spec, player, nominal_impact, eps, budget, *, tol=1e-9,
                     max_iter=500):
    """Fixed point of worst-case observation and waterfilling.

    Alternates the two maps until the allocation is stationary; one damping
    retry (factor 0.5) is attempted before giving up.
    """
    if eps < 0:
        raise InvalidSpecError("eps must be nonnegative")
    f_nom = game.as_impact(nominal_impact)
    if eps == 0.0:
        return waterfill(spec, player, f_nom, budget)

    def iterate(damping):
        # short undamped warm-up, then averaged updates; the damping halves
        # whenever the residual stalls (the alternation can cycle with a
        # strongly expansive map when the radius rivals the impacts)
        a = waterfill(spec, player, f_nom, budget)
        best_res, stall = np.inf, 0
        for it in range(max_iter):
            wco = robust.worst_case_observation(spec, player, a, f_nom, eps,
                                                tol=min(tol, 1e-11))
            a_next = waterfill(spec, player, wco.values, budget)
            if it >= 3:
                a_next = (1.0 - damping) * a + damping * a_next
            res = float(np.max(np.abs(a_next - a)))
            a = a_next
            if res < tol:
                return a, res
            if res > 0.9 * best_res:
                stall += 1
                if stall >= 12:
                    damping = max(0.02, damping * 0.5)
                    stall = 0
            else:
                best_res, stall = res, 0
        return None, res

    a, res = iterate(damping=0.5)
    if a is None:
        a, res = iterate(damping=0.1)
    if a is None:
        raise IterationLimitError("robust waterfilling did not converge",
                                  residual=res)
    return a


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
