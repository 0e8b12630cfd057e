"""Checks of the solvers' outputs against computations made apart from them.

Nothing here imports `rsgame`: the checks read the public fields of the spec
(`GameSpec`, `TwoPlayerBatch`) and result (`EquilibriumResult`, `CdfResult`)
objects and recompute what they must satisfy with closed forms, dense grids
and a sort-based waterfill of their own.  Each check returns a list of
messages, empty when every output passed.
"""

import numpy as np

TOL = 1e-9        # utilities are O(1); solvers settle to ~1e-12
ACTION_TOL = 1e-8
GRID = 10001


def _close(a, b, tol):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


# ---------------------------------------------------------------------------
# priced games
# ---------------------------------------------------------------------------

def priced_reaction(spec, n, f_obs):
    """Closed-form priced best response of player n to an observed impact."""
    h = spec.cross_gain[n, n]
    c = spec.utility_model.price[n]
    return np.clip(1.0 / c - f_obs / h, spec.action_min[n], spec.action_max[n])


def impacts(spec, actions):
    """f[n, k] = noise + sum over m != n of x[n, m, k] * a[m, k]."""
    gains = np.array(spec.cross_gain)
    idx = np.arange(spec.n_players)
    gains[idx, idx] = 0.0
    return spec.noise + np.einsum("nmk,mk->nk", gains, actions)


def priced_utilities(spec, actions):
    f = impacts(spec, actions)
    h = np.array([spec.cross_gain[n, n] for n in range(spec.n_players)])
    price = np.asarray(spec.utility_model.price)[:, None]
    return (np.log1p(h * actions / f) - price * actions).sum(axis=1)


def leader_curve(spec, k, eps=0.0):
    """Leader utility in subchannel k along a grid of its action.

    One leader (player 0) and one follower (player 1) whose reaction is the
    closed form against its impact plus eps (the K = 1 worst case).
    """
    g, s = spec.cross_gain, spec.noise
    a0 = np.linspace(spec.action_min[0, k], spec.action_max[0, k], GRID)
    c0, c1 = spec.utility_model.price[0], spec.utility_model.price[1]
    a1 = np.clip(1.0 / c1 - (s[1, k] + g[1, 0, k] * a0 + eps) / g[1, 1, k],
                 spec.action_min[1, k], spec.action_max[1, k])
    u0 = np.log1p(g[0, 0, k] * a0 / (s[0, k] + g[0, 1, k] * a1)) - c0 * a0
    return u0


def believed_rse2_utility(spec, a0, delta):
    """Leader utility it plans with under case 2 (K = 1, eps = 0)."""
    g, s = spec.cross_gain, spec.noise
    x10 = max(g[1, 0, 0] - delta / np.sqrt(spec.n_dims), 0.0)
    c0, c1 = spec.utility_model.price[0], spec.utility_model.price[1]
    a1 = np.clip(1.0 / c1 - (s[1, 0] + x10 * a0) / g[1, 1, 0],
                 spec.action_min[1, 0], spec.action_max[1, 0])
    return np.log1p(g[0, 0, 0] * a0 / (s[0, 0] + g[0, 1, 0] * a1)) - c0 * a0


def _utilities_match(spec, res, label):
    mine = priced_utilities(spec, res.profile.actions)
    if not _close(mine, res.utilities, TOL * max(1.0, float(np.max(np.abs(mine))))):
        return [f"{label}: reported utilities {res.utilities} differ from "
                f"recomputed {mine}"]
    return []


def check_priced_sweep(spec, results, label):
    """One NSE, RSE1 over the eps grid and RSE2 over the delta grid, K = 1."""
    errors = []
    nse = results[("NSE", 0.0)]
    for (kind, radius), res in results.items():
        tag = f"{label} {kind}({radius})"
        errors += _utilities_match(spec, res, tag)
        a = res.profile.actions
        eps = radius if kind == "RSE1" else 0.0
        f1 = impacts(spec, a)[1] + eps
        if not _close(a[1], priced_reaction(spec, 1, f1), ACTION_TOL):
            errors.append(f"{tag}: follower action {a[1]} is not its reaction "
                          f"{priced_reaction(spec, 1, f1)}")
        w0 = float(res.utilities[0])
        if kind in ("NSE", "RSE1"):
            grid_max = float(np.max(leader_curve(spec, 0, eps)))
            if w0 < grid_max - TOL:
                errors.append(f"{tag}: leader utility {w0!r} below the grid "
                              f"maximum {grid_max!r}")
        else:
            grid = np.linspace(spec.action_min[0, 0], spec.action_max[0, 0], GRID)
            planned = float(believed_rse2_utility(spec, a[0, 0], radius))
            best = float(np.max(believed_rse2_utility(spec, grid, radius)))
            if planned < best - TOL:
                errors.append(f"{tag}: believed leader utility {planned!r} below "
                              f"the grid maximum {best!r}")
            if w0 > nse.utilities[0] + TOL:
                errors.append(f"{tag}: realized leader utility {w0!r} above "
                              f"the NSE one {float(nse.utilities[0])!r}")
    rse1 = sorted((r, res.utilities[0]) for (kind, r), res in results.items()
                  if kind == "RSE1")
    chain = [nse.utilities[0]] + [w for _, w in rse1]
    if any(b < a - TOL for a, b in zip(chain, chain[1:])):
        errors.append(f"{label}: leader utility falls along the eps grid {chain}")
    return errors


def worst_on_circle(spec, n, action, f_nom, eps):
    """Observation on the eps-circle (K = 2) minimizing player n's utility.

    A dense angle grid, then three rounds of refinement around the best
    angle, each a thousand times finer.
    """
    h = spec.cross_gain[n, n]

    def value(t):
        f = f_nom[None, :] + eps * np.stack([np.cos(t), np.sin(t)], axis=1)
        return np.log1p(h * action / f).sum(axis=1)

    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    step = t[1] - t[0]
    best = t[np.argmin(value(t))]
    for _ in range(3):
        t = np.linspace(best - 2.0 * step, best + 2.0 * step, 4001)
        best, step = t[np.argmin(value(t))], t[1] - t[0]
    return f_nom + eps * np.array([np.cos(best), np.sin(best)])


def check_priced_robust(spec, results, eps, label):
    """NSE and (when it completed) RSE1 of a coupled priced game."""
    errors = []
    nse = results["NSE"]
    followers = list(spec.followers)
    for kind, res in results.items():
        tag = f"{label} {kind}"
        errors += _utilities_match(spec, res, tag)
        a = res.profile.actions
        f = impacts(spec, a)
        for n in followers:
            if kind == "RSE1" and spec.n_dims == 2:
                f_obs = worst_on_circle(spec, n, a[n], f[n], eps)
            else:  # one subchannel: the worst observation adds eps
                f_obs = f[n] + (eps if kind == "RSE1" else 0.0)
            want = priced_reaction(spec, n, f_obs)
            if not _close(a[n], want, 1e-7):
                errors.append(f"{tag}: follower {n} action {a[n]} is not its "
                              f"reaction {want} to the worst observation")
    if len(followers) == 1:
        # the nominal problem separates by subchannel
        grid_max = sum(float(np.max(leader_curve(spec, k)))
                       for k in range(spec.n_dims))
        if nse.utilities[0] < grid_max - TOL:
            errors.append(f"{label} NSE: leader utility {float(nse.utilities[0])!r} "
                          f"below the per-subchannel grid maximum {grid_max!r}")
        # the worst case only inflates the follower's impact, so its reaction
        # shrinks pointwise and the leader can only gain
        if "RSE1" in results and results["RSE1"].utilities[0] < nse.utilities[0] - TOL:
            errors.append(f"{label} RSE1: leader utility "
                          f"{float(results['RSE1'].utilities[0])!r} below the NSE one "
                          f"{float(nse.utilities[0])!r}")
    return errors


def worked_instance_selftest(spec, results):
    """The checks, run on the worked instance with its hand-derived case 2.

    Planning with the believed gain 0.5 - 0.1 = 0.4, the leader's condition
    0.8/(1.05 + 0.8 a0) + 0.2/(1.05 - 0.2 a0) = 0.8 gives a0 = 0.3677,
    w0 = 0.0307 and w1 = 1.0944.  The grid search of `believed_rse2_utility`
    must find that point, and the solver's RSE2 must both match it and pass
    the sweep checks.
    """
    errors = []
    grid = np.linspace(0.0, 1.0, 100001)
    a0 = grid[np.argmax(believed_rse2_utility(spec, grid, 0.1))]
    a1 = float(priced_reaction(spec, 1, impacts(spec, np.array([[a0], [0.0]]))[1])[0])
    w = priced_utilities(spec, np.array([[a0], [a1]]))
    mine = np.array([a0, w[0], w[1]])
    hand = np.array([0.3677, 0.0307, 1.0944])
    if not _close(mine, hand, 1e-4):
        errors.append(f"worked instance: the check's own case 2 {mine} is not "
                      f"the hand-derived {hand}")
    rse2 = results[("RSE2", 0.1)]
    got = np.array([rse2.profile.actions[0, 0], *rse2.utilities])
    if not _close(got, hand, 3e-3):
        errors.append(f"worked instance: solver case 2 {got} is not {hand}")
    return errors + check_priced_sweep(spec, results, "worked instance")


# ---------------------------------------------------------------------------
# budgeted games
# ---------------------------------------------------------------------------

def sort_waterfill(q, budget):
    """Water level over inverse qualities q with floors 0, by sorting.

    Fills the m best channels to a common level w = (budget + sum q)/m for
    the largest m whose worst channel still lies below w.  The per-channel
    ceiling is left out: callers pass ceilings no lower than the budget.
    """
    order = np.sort(q)
    for m in range(q.size, 0, -1):
        w = (budget + order[:m].sum()) / m
        if w > order[m - 1]:
            return np.maximum(w - q, 0.0)
    raise ValueError("no channel can be filled")


def _budget_errors(tag, a, lo, hi, budget, spends_all):
    errors = []
    if np.any(a < lo - ACTION_TOL) or np.any(a > hi + ACTION_TOL):
        errors.append(f"{tag}: allocation {a} leaves the box")
    total = float(np.sum(a))
    if total > budget + ACTION_TOL:
        errors.append(f"{tag}: allocation {a} exceeds the budget {budget}")
    if spends_all and abs(total - budget) > ACTION_TOL:
        errors.append(f"{tag}: allocation {a} leaves budget unspent")
    return errors


def _budgeted_leader_value(h00, h01, s0, h10, h11, s1, p1, a0):
    """Leader log-throughput with the follower waterfilling against a0."""
    a1 = sort_waterfill((s1 + h10 * a0) / h11, p1)
    return float(np.log1p(h00 * a0 / (s0 + h01 * a1)).sum())


def check_budgeted_bilevel(spec, results, label):
    errors = []
    g, s = spec.cross_gain, spec.noise
    p0, p1 = spec.utility_model.budget
    if np.any(spec.action_max < max(p0, p1)):
        return [f"{label}: the sort-based waterfill needs ceilings >= budget"]
    for kind, res in results.items():
        a = res.profile.actions
        for n, p in ((0, p0), (1, p1)):
            errors += _budget_errors(f"{label} {kind} player {n}", a[n],
                                     spec.action_min[n], spec.action_max[n], p,
                                     spends_all=(n == 1))
    nse = results.get("NSE")
    if nse is not None:
        a = nse.profile.actions
        want = sort_waterfill((s[1] + g[1, 0] * a[0]) / g[1, 1], p1)
        if not _close(a[1], want, ACTION_TOL):
            errors.append(f"{label} NSE: follower {a[1]} is not the waterfill "
                          f"{want} against its realized impact")
        uniform = np.full(spec.n_dims, p0 / spec.n_dims)
        start = _budgeted_leader_value(g[0, 0], g[0, 1], s[0], g[1, 0], g[1, 1],
                                       s[1], p1, uniform)
        if nse.utilities[0] < start - TOL:
            errors.append(f"{label} NSE: leader utility {float(nse.utilities[0])!r} "
                          f"below its uniform-spread start {start!r}")
    return errors


def check_cdf(cdf, size, label):
    errors = []
    v, frac = np.asarray(cdf.values), np.asarray(cdf.fractions)
    if cdf.total != size:
        errors.append(f"{label}: total {cdf.total} is not the ensemble size {size}")
    if cdf.excluded > 0.05 * size:
        errors.append(f"{label}: {cdf.excluded} of {size} instances excluded")
    if v.size != size - cdf.excluded or frac.size != v.size:
        errors.append(f"{label}: {v.size} values for {size} instances, "
                      f"{cdf.excluded} excluded")
    if np.any(np.diff(v) < 0) or np.any(np.diff(frac) <= 0) or frac[-1] != 1.0:
        errors.append(f"{label}: the CDF is not sorted or does not rise to 1")
    return errors


def check_batch_probe(probe):
    """Engine outputs on a few instances against the sort-based waterfill."""
    errors = []
    b = probe["batch"]
    if np.any(b.hi1 < b.p1) or np.any(b.hi0 < b.p0):
        return ["probe: the sort-based waterfill needs ceilings >= budget"]
    for i, (a0, a1) in enumerate(zip(probe["a0"], probe["a1"])):
        want = sort_waterfill((b.sigma1[i] + b.h10[i] * a0) / b.h11[i], b.p1)
        if not _close(a1, want, ACTION_TOL):
            errors.append(f"probe {i}: follower_response_batch {a1} is not "
                          f"the waterfill {want}")
    uniform = np.full(b.h00.shape[1], b.p0 / b.h00.shape[1])
    for eps, ascent in probe["ascent"].items():
        for i, a0 in enumerate(ascent):
            errors += _budget_errors(f"probe {i} ascent eps={eps}", a0, b.lo0,
                                     b.hi0, b.p0, spends_all=False)
            if eps:
                continue
            args = (b.h00[i], b.h01[i], b.sigma0[i], b.h10[i], b.h11[i],
                    b.sigma1[i], b.p1)
            got = _budgeted_leader_value(*args, a0)
            start = _budgeted_leader_value(*args, uniform)
            if got < start - TOL:
                errors.append(f"probe {i}: ascent value {got!r} below its "
                              f"uniform-spread start {start!r}")
    return errors
