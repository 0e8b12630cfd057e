"""Lockstep leader engine of the budgeted single-leader game.

A `StackedGame` holds B instances of one budgeted game shape: gains
(B, N, N, K), noise (B, N, K), the players' boxes and budgets, and the index
of the one leader; every other player follows.  The followers' response to
a leader action is their Nash equilibrium, each follower playing its robust
waterfill against its aggregate impact (`budget.robust_waterfill_batch`):
one kernel call over all rows with one follower, with several one or two
calls over rows x followers per Newton step of `nash`, the followers' Nash
solve of every solver (`equilibria` passes it the priced reactions).

`leader_ascent` is a projected gradient ascent of every leader from several
starts, all (instance, start) rows in lockstep.  Each step makes one
response call (with one follower, one kernel call), for a ladder of trial
steps step * 2^-j, j = 0..LADDER-1, along each live row's gradient, so an
ascent of n steps makes n + 1 calls, the first for its starts.  A row
moves to its best improving rung, and its next ladder starts at four times
that rung's step; a row with no improving rung shrinks its step below the
ladder, and it freezes once the step is below 1e-10 of the leader's
budget.  The gradient is exact: the followers' response Jacobian
(`budget.robust_waterfill_jacobian`) at the saddle points the kernel
already returned, chained through the followers' equilibrium, so a row
that moves gets its next gradient without another kernel call.  Beside
its gradient a row keeps its kernel start, the level and log multiplier
of its followers' saddle points (`budget.saddle_start`), and both are
refreshed only when the row moves.  Each ladder call starts the kernel on
every trial row at the start of the row it stepped from, so a short step
costs a few Newton iterations; the starts call runs cold.  A nominal row
has no multiplier, and its start is NaN, which the kernel ignores.  The ascent
is a heuristic (the followers' reaction makes the leader's objective only
piecewise smooth, and on a kink the gradient is that of the current
piece); the starts guard against local maxima.

Every operation is row by row, so a row's result does not depend on the
other rows of its call: one instance solved alone equals its row of an
ensemble solve, bit for bit, when both use the same starts.
"""

from dataclasses import dataclass, replace

import numpy as np

from .budget import (inverse_quality, project_box_budget_batch,
                     robust_waterfill_batch, robust_waterfill_jacobian,
                     saddle_start, waterfill_batch)
from .errors import IterationLimitError

# trial steps per ascent step, each half the one before: after a move the
# ladder spans two doublings above the accepted step and three halvings below
LADDER = 6
# freezing step, relative to the leader's budget
_FREEZE = 1e-10
# the followers' Nash solve (`nash`): its residual and step limit
NASH_TOL = 1e-12
NASH_STEPS = 500


@dataclass(frozen=True)
class StackedGame:
    """B instances of a budgeted game with one leader, stacked.

    gains[b, n, m, k] is the gain from player m into player n's impact in
    instance b (the diagonal holds the direct gains); lo and hi are the
    (N, K) boxes and budget the (N,) budgets, shared by every instance.
    """

    gains: np.ndarray   # (B, N, N, K)
    noise: np.ndarray   # (B, N, K)
    lo: np.ndarray      # (N, K)
    hi: np.ndarray      # (N, K)
    budget: np.ndarray  # (N,)
    leader: int

    @classmethod
    def from_spec(cls, spec, leader):
        """The one-instance stack of a budgeted `GameSpec`."""
        return cls(gains=np.asarray(spec.cross_gain)[None],
                   noise=np.asarray(spec.noise)[None], lo=spec.action_min,
                   hi=spec.action_max, budget=spec.utility_model.budget,
                   leader=leader)

    @property
    def followers(self):
        return [n for n in range(self.gains.shape[1]) if n != self.leader]

    def select(self, rows):
        """The stack of the instances `rows` (an index or a slice)."""
        return replace(self, gains=self.gains[rows], noise=self.noise[rows])


@dataclass(frozen=True)
class Ascent:
    """Best leader action per instance and what the ascent spent on it."""

    actions: np.ndarray       # (B, K) leader
    followers: np.ndarray     # (B, Nf, K) the followers' response to it
    values: np.ndarray        # (B,) leader utility there
    start_values: np.ndarray  # (B, S) leader utility reached from each start
    residuals: np.ndarray     # (B,) |a0 - P(a0 + grad U0)| at the best action
    calls: int                # followers' response kernel calls
    steps: int                # lockstep ascent steps

    @property
    def start_gap(self):
        """Per instance, best minus runner-up start value (0 with one start)."""
        if self.start_values.shape[1] < 2:
            return np.zeros(self.start_values.shape[0])
        top = np.sort(self.start_values, axis=1)
        return top[:, -1] - top[:, -2]


class _Response:
    """The followers' equilibrium, the leader's utility and its gradient,
    row by row.

    A row is an instance index and a leader action; the followers' arrays
    are gathered per instance once.  An equilibrium is an (R, 3, Nf, K)
    stack of the followers' actions, the impacts they responded to and
    their worst observations there.  `calls` counts kernel calls.
    """

    def __init__(self, game, eps):
        lead, fol = game.leader, game.followers
        g = np.asarray(game.gains, dtype=float)
        self.h = g[:, fol, fol, :]                    # (B, Nf, K)
        self.from_leader = g[:, fol, lead, :]
        self.cross = (g[:, fol][:, :, fol]             # (B, Nf, Nf, K)
                      * (1.0 - np.eye(len(fol)))[..., None])
        self.noise = game.noise[:, fol]
        self.lo, self.hi = game.lo[fol], game.hi[fol]
        self.budget = np.asarray(game.budget, dtype=float)[fol]
        self.eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(fol),))
        self.h0 = g[:, lead, lead, :]
        self.to_leader = g[:, lead, fol, :]           # (B, Nf, K)
        self.noise0 = game.noise[:, lead]
        self.calls = 0

    def _gains_and_boxes(self, inst, shape):
        """Direct gains and boxes of the follower rows (R * Nf, K) of an
        (R, Nf, K) array."""
        k = shape[2]
        return (self.h[inst].reshape(-1, k),
                np.broadcast_to(self.lo, shape).reshape(-1, k),
                np.broadcast_to(self.hi, shape).reshape(-1, k))

    def _kernel(self, f, inst, start):
        """Every follower's robust waterfill against impacts f (R, Nf, K),
        from kernel starts (R, Nf, 2) or None: the (R, 3, Nf, K)
        equilibrium stack."""
        self.calls += 1
        r, nf, k = f.shape
        alloc, worst = robust_waterfill_batch(
            f.reshape(-1, k), *self._gains_and_boxes(inst, f.shape),
            np.broadcast_to(self.budget, (r, nf)).ravel(),
            np.broadcast_to(self.eps, (r, nf)).ravel(),
            start=None if start is None else start.reshape(-1, 2).T)
        return np.stack([alloc.reshape(f.shape), f, worst.reshape(f.shape)],
                        axis=1)

    def _saddles(self, inst, eq):
        """Rows (R * Nf, K) of the kernel's f, h, lo, hi, a, t at `eq`."""
        a, f, t = eq.transpose(1, 0, 2, 3).reshape(3, -1, eq.shape[3])
        return (f, *self._gains_and_boxes(inst, eq[:, 0].shape), a, t)

    def starts(self, inst, eq):
        """Kernel starts (R, Nf, 2), each follower's (w, log mu) at the
        saddle points of the equilibrium stack `eq`."""
        start = np.stack(saddle_start(*self._saddles(inst, eq)), axis=1)
        return start.reshape(eq.shape[0], eq.shape[2], 2)

    def evaluate(self, inst, a0, seed, start=None):
        """Leader utilities and the followers' equilibrium for rows (inst, a0);
        `start` (R, Nf, 2), from `starts`, warm-starts every kernel call."""
        base = self.noise[inst] + self.from_leader[inst] * a0[:, None, :]

        def respond(f, rows):
            return self._kernel(f, inst[rows],
                                None if start is None else start[rows])

        eq = (nash(respond, lambda eq, rows: self.jacobian(inst[rows], eq),
                   base, self.cross[inst], seed, self.lo, self.hi)[0]
              if base.shape[1] else np.stack([base] * 3, axis=1))
        f0 = self.noise0[inst] + (self.to_leader[inst] * eq[:, 0]).sum(axis=1)
        return np.log1p(self.h0[inst] * a0 / f0).sum(axis=1), eq

    def jacobian(self, inst, eq):
        """The followers' response Jacobians (R, Nf, K, K) at stack `eq`."""
        r, _, nf, k = eq.shape
        return robust_waterfill_jacobian(*self._saddles(inst, eq)).reshape(
            r, nf, k, k)

    def gradient(self, inst, a0, eq):
        """The leader's utility gradient (R, K) at rows (inst, a0), whose
        followers' equilibrium `eq` came from `evaluate`.

        dU0/da0 + H0^T DR^T lam, with H0 the leader's gains into the
        followers, DR their block-diagonal response Jacobian, X their cross
        gains, g = dU0/da_F, and lam the solution of (I - DR X)^T lam = g;
        a lone follower has X = 0 and lam = g.
        """
        a = eq[:, 0]
        r, nf, k = a.shape
        h0, to_leader = self.h0[inst], self.to_leader[inst]
        f0 = self.noise0[inst] + (to_leader * a).sum(axis=1)
        total = f0 + h0 * a0
        g = -to_leader * (h0 * a0 / (f0 * total))[:, None, :]
        dr = self.jacobian(inst, eq)
        lam = g if nf == 1 else np.linalg.solve(
            newton_matrix(dr, self.cross[inst]).transpose(0, 2, 1),
            g.reshape(r, nf * k, 1)).reshape(r, nf, k)
        chained = np.einsum("rnij,rni->rnj", dr, lam)
        return h0 / total + (self.from_leader[inst] * chained).sum(axis=1)


def newton_matrix(dr, cross):
    """I - DR X (R, Nf K, Nf K), the Jacobian of a - R(base + X a), of the
    followers' response Jacobians DR (R, Nf, K, K) and cross gains X."""
    r, nf, k, _ = dr.shape
    # (DR X)[(n, i), (m, j)] = DR_n[i, j] X[n, m, j]
    couple = dr[:, :, :, None, :] * cross[:, :, None, :, :]
    return np.eye(nf * k) - couple.reshape(r, nf * k, nf * k)


def nash(respond, jacobian, base, cross, seed, lo, hi):
    """Followers' Nash equilibrium by semismooth Newton steps, row by row.

    base (R, Nf, K): the followers' impacts from all but them; cross (R, Nf,
    Nf, K): their cross gains X, zero diagonal; lo, hi their (Nf, K) boxes.
    `respond(f, rows)` stacks the responses R to impacts f of `rows`,
    actions in [:, 0], and `jacobian(eq, rows)` their Jacobians DR in f.
    From `seed`, a step clips a + d to the box, where (I - DR X) d = R(a) - a
    (Qi & Sun, Math. Program. 58, 1993); a row whose step does not lower
    max|R - a| below its least, or a singular step, takes a damped response
    step instead, damping halved down to 1/4.  Rows stop below `NASH_TOL`;
    a lone follower responds once.  Returns (stack, steps, residuals).
    """
    rows = np.arange(base.shape[0])
    if base.shape[1] == 1:
        return respond(base, rows), 1, np.zeros(rows.size)

    def respond_at(x, rows, base, cross):
        eq = respond(base + np.einsum("rnmk,rmk->rnk", cross, x), rows)
        return eq, np.abs(eq[:, 0] - x).max(axis=(1, 2))

    # the live rows' iterates, responses, residuals and data
    a = np.asarray(seed, dtype=float)
    eq, res = respond_at(a, rows, base, cross)
    out, residual = np.empty_like(eq), np.empty(rows.size)
    best, damping, steps = res, np.ones(rows.size), 0
    while True:
        done = res < NASH_TOL
        if done.any():
            if done.all() and rows.size == len(out):  # every row at once
                return eq, steps, res
            out[rows[done]], residual[rows[done]] = eq[done], res[done]
            if done.all():
                return out, steps, residual
            rows, a, eq, res, best, damping, base, cross = (
                x[~done] for x in (rows, a, eq, res, best, damping, base,
                                   cross))
        if steps == NASH_STEPS:
            out[rows, 0] = a
            raise IterationLimitError(
                f"followers' Nash solve did not converge in {steps} steps "
                "(is their coupling a P-matrix?)", last_iterate=out[:, 0],
                residual=float(res.max()))
        steps += 1
        try:
            d = np.linalg.solve(newton_matrix(jacobian(eq, rows), cross),
                                (eq[:, 0] - a).reshape(rows.size, -1, 1))
        except np.linalg.LinAlgError:
            trial, t_eq, t_res = a.copy(), eq.copy(), np.full(len(a), np.inf)
        else:
            trial = np.clip(a + d.reshape(a.shape), lo, hi)
            t_eq, t_res = respond_at(trial, rows, base, cross)
        back = ~(t_res < best)
        if back.any():
            damping[back] = np.maximum(0.25, 0.5 * damping[back])
            w = damping[back][:, None, None]
            trial[back] = (1.0 - w) * a[back] + w * eq[back, 0]
            t_eq[back], t_res[back] = respond_at(trial[back], rows[back],
                                                 base[back], cross[back])
        a, eq, res = trial, t_eq, t_res
        best = np.minimum(best, res)


def leader_starts(game, restarts=4, seed=0):
    """Starting leader actions, (B, S, K).

    Four deterministic starts: the leader's waterfill against the others at
    their floors (quiet), against each follower's own waterfill (busy),
    against the others at their ceilings (an infinite ceiling counts as 1),
    and the uniform spread.  Then Dirichlet draws from `seed` up to
    `restarts` starts; `restarts` below 4 keeps the four.
    """
    lead, fol = game.leader, game.followers
    g, noise = np.asarray(game.gains, dtype=float), game.noise
    b, _, _, k = g.shape
    lo, hi, p = game.lo[lead], game.hi[lead], float(game.budget[lead])
    others = np.array(game.lo, dtype=float)

    def waterfill(n, actions):
        """Player n's waterfill against the others playing `actions`."""
        cross = g[:, n].copy()
        cross[:, n] = 0.0
        f = noise[:, n] + (cross * actions).sum(axis=1)
        return waterfill_batch(inverse_quality(g[:, n, n], f), game.lo[n],
                               game.hi[n], game.budget[n])

    busy = np.broadcast_to(others, (b,) + others.shape).copy()
    for n in fol:
        busy[:, n] = waterfill(n, others)
    ceilings = np.where(np.isinf(game.hi), 1.0, game.hi)
    uniform = project_box_budget_batch(np.full((1, k), p / k), lo, hi, p)
    starts = [waterfill(lead, others), waterfill(lead, busy),
              waterfill(lead, ceilings), np.repeat(uniform, b, axis=0)]
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        w = rng.dirichlet(np.ones(k), size=b) * p
        starts.append(project_box_budget_batch(w, lo, hi, p))
    return np.stack(starts, axis=1)


def respond(game, a0, eps):
    """The followers' response (B, Nf, K) to leader actions a0 (B, K)."""
    resp = _Response(game, eps)
    b = a0.shape[0]
    seed = np.broadcast_to(game.lo[game.followers], (b,) + resp.lo.shape)
    return resp.evaluate(np.arange(b), np.asarray(a0, float), seed)[1][:, 0]


def leader_ascent(game, eps, *, restarts=4, seed=0, n_steps=60,
                  extra_starts=()):
    """Lockstep projected gradient ascent of every instance's leader.

    `eps` is the followers' observation radius, a scalar or one per
    follower.  The starts are `extra_starts` (each (B, K), e.g. a nominal
    solution continuing into a robust solve), then those of `leader_starts`;
    each runs at most `n_steps` steps.  Per instance the best start wins,
    the earlier one on a tie; its residual is the projected gradient's
    |a0 - P(a0 + grad U0)| over the leader's box and budget.  It vanishes at
    a smooth optimum, but not at one on a kink of the followers' reaction,
    where the gradient is that of one piece.  Each ladder call starts every
    trial row's kernel solve at the saddle points of the row it stepped
    from, kept with that row's gradient; that changes a robust row's result
    only by the kernel's tolerance, and a nominal one's not at all.
    """
    lead = game.leader
    lo, hi, p = game.lo[lead], game.hi[lead], float(game.budget[lead])
    resp = _Response(game, eps)
    starts = leader_starts(game, restarts, seed)
    if extra_starts:
        extra = np.stack([np.asarray(s, dtype=float) for s in extra_starts], 1)
        starts = np.concatenate([extra, starts], axis=1)
    b, s, k = starts.shape
    inst = np.repeat(np.arange(b), s)
    a0 = starts.reshape(b * s, k)
    floors = np.broadcast_to(resp.lo, (b * s,) + resp.lo.shape)
    val, eq = resp.evaluate(inst, a0, floors)
    grad = resp.gradient(inst, a0, eq)
    start = resp.starts(inst, eq)
    step = np.full(b * s, 0.25 * p)
    rungs = 0.5 ** np.arange(LADDER)
    live = np.arange(b * s)
    steps = 0
    while live.size and steps < n_steps:
        steps += 1
        n, x = live.size, a0[live]
        # the ladder of trial steps along the gradient, in one call
        trial = step[live][:, None] * rungs
        cand = project_box_budget_batch(
            (x[:, None, :] + trial[:, :, None] * grad[live][:, None, :]
             ).reshape(-1, k), lo, hi, p)
        rep = np.repeat(live, LADDER)
        # every rung starts from its parent row's saddle points
        cv, ceq = resp.evaluate(inst[rep], cand, eq[rep, 0], start[rep])
        cv = cv.reshape(n, LADDER)
        gain = np.where(cv > val[live][:, None] + 1e-14, cv, -np.inf)
        rung = gain.argmax(axis=1)
        moved = np.isfinite(gain[np.arange(n), rung])
        pick = (np.arange(n) * LADDER + rung)[moved]
        rows = live[moved]
        a0[rows], val[rows], eq[rows] = cand[pick], cv.ravel()[pick], ceq[pick]
        grad[rows] = resp.gradient(inst[rows], a0[rows], eq[rows])
        start[rows] = resp.starts(inst[rows], eq[rows])
        step[rows] = 4.0 * trial[moved, rung[moved]]
        step[live[~moved]] *= 0.5 ** LADDER
        live = live[step[live] >= _FREEZE * p]
    values = val.reshape(b, s)
    best = np.arange(b) * s + values.argmax(axis=1)
    x = a0[best]
    residuals = np.linalg.norm(
        x - project_box_budget_batch(x + grad[best], lo, hi, p), axis=1)
    return Ascent(actions=x, followers=eq[best, 0], values=val[best],
                  start_values=values, residuals=residuals, calls=resp.calls,
                  steps=steps)
