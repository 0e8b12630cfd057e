"""Condition checkers, SINR regime classification, and ordering reports.

The C-conditions compare derivative magnitudes at an equilibrium profile and
predict whether robustness raises or lowers the social utility:

* case 1 (noisy follower observations): C1 |C_10| < |J0_a|, C2 |J1_a| < |C_01|
* case 2 (incomplete leader information): C3 and C4 are the reversals
* multi-follower sums: C5/C6 for case 1, C7/C8 for case 2.

Magnitudes are compared throughout (the negative impacts are nonpositive by
construction).
"""

from dataclasses import dataclass

import numpy as np

from . import equilibria, game
from .errors import SOLVER_ERRORS, InvalidSpecError

_THETA_HI = 10.0       # R1: both SINRs above
_THETA_LO = 0.1        # R2: both SINRs below
_THETA_PROX = 0.2      # R3: relative gap of the two impacts below
ORDERING_SLACK = 1e-9  # utility change an ordering forgives
PREDICTION_SLACK = 1e-6  # relative social change a triggered prediction forgives
ZERO_BASELINE = 1e-12  # a nominal utility this close to 0 has no relative d


@dataclass(frozen=True)
class ConditionReport:
    """Per-dimension truth values of the C-conditions at one profile.

    c1..c4 are (K,) arrays for one-leader one-follower games (None otherwise);
    c5/c7 are (K,) leader-level arrays and c6/c8 (Nf, K) follower-level arrays
    for one-leader multi-follower games.  `all_k` holds the all-dimension
    (and all-follower) conjunction of each available condition.
    """

    c1: np.ndarray = None
    c2: np.ndarray = None
    c3: np.ndarray = None
    c4: np.ndarray = None
    c5: np.ndarray = None
    c6: np.ndarray = None
    c7: np.ndarray = None
    c8: np.ndarray = None
    all_k: dict = None


@dataclass(frozen=True)
class RegimeReport:
    """Per-dimension SINR regime labels and the matching simplified gain tests.

    `case1_test` / `case2_test` hold the regime-specific channel-gain
    inequality for each dimension, or None where the regime is Mixed (no
    reduction applies).
    """

    labels: tuple
    case1_test: tuple
    case2_test: tuple
    sinr: np.ndarray  # (2, K): leader row 0, follower row 1


@dataclass(frozen=True)
class DeltaMetrics:
    """Relative utility changes (robust vs nominal), per player and social."""

    per_player: np.ndarray
    social: float


def _player_bundles(spec, actions):
    impacts = game.all_impacts(spec, actions)
    return {n: game.derivatives(spec, n, actions[n], impacts[n])
            for n in range(spec.n_players)}


def check_conditions(spec, at):
    """Evaluate every applicable C-condition at an equilibrium profile."""
    actions = game.as_actions(at.profile if isinstance(at, equilibria.EquilibriumResult)
                              else at)
    if len(spec.leaders) != 1:
        raise InvalidSpecError("conditions are defined for one-leader games")
    leader = spec.leaders[0]
    followers = list(spec.followers)
    bundles = _player_bundles(spec, actions)
    neg = {}  # (on, by) -> |C_[on, by]| per k
    for on in range(spec.n_players):
        for by in range(spec.n_players):
            if on != by:
                neg[(on, by)] = np.abs(spec.cross_gain[on, by, :]
                                       * bundles[on].grad_f)
    j_abs = {n: np.abs(bundles[n].grad_a) for n in range(spec.n_players)}

    c1 = c2 = c3 = c4 = None
    all_k = {}
    if len(followers) == 1:
        fol = followers[0]
        c1 = neg[(fol, leader)] < j_abs[leader]
        c2 = j_abs[fol] < neg[(leader, fol)]
        c3 = ~c1
        c4 = ~c2
        for name, arr in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4)):
            all_k[name] = bool(arr.all())

    # multi-follower sums (valid for a single follower too, where they reduce
    # to the pairwise conditions)
    impact_on_followers = sum(neg[(n, leader)] for n in followers)
    c5 = j_abs[leader] > impact_on_followers
    c7 = j_abs[leader] < impact_on_followers
    c6_rows, c8_rows = [], []
    for n in followers:
        outgoing = neg[(leader, n)] + sum(neg[(m, n)] for m in followers if m != n)
        c6_rows.append(j_abs[n] < outgoing)
        c8_rows.append(j_abs[n] > outgoing)
    c6 = np.array(c6_rows)
    c8 = np.array(c8_rows)
    all_k.update(c5=bool(c5.all()), c6=bool(c6.all()),
                 c7=bool(c7.all()), c8=bool(c8.all()))
    return ConditionReport(c1=c1, c2=c2, c3=c3, c4=c4,
                           c5=c5, c6=c6, c7=c7, c8=c8, all_k=all_k)


def classify_regime(spec, profile):
    """Label each dimension R1/R2/R3/Mixed by the two players' SINRs.

    R1: both SINRs above `_THETA_HI`; R2: both below `_THETA_LO`; R3: the two
    induced impacts are within `_THETA_PROX` relative gap; Mixed otherwise.
    The thresholds are order-of-magnitude stand-ins for asymptotic regimes.
    """
    if spec.n_players != 2:
        raise InvalidSpecError("regime classification is for two-player games")
    leader = spec.leaders[0]
    fol = spec.followers[0]
    a = game.as_actions(profile)
    f = game.all_impacts(spec, a)
    sinr = np.vstack([
        spec.direct_gain(leader) * a[leader] / f[leader],
        spec.direct_gain(fol) * a[fol] / f[fol],
    ])
    h00 = spec.direct_gain(leader)
    h11 = spec.direct_gain(fol)
    h01 = spec.cross_gain[leader, fol, :]  # follower's gain at the leader
    h10 = spec.cross_gain[fol, leader, :]  # leader's gain at the follower
    labels, t1, t2 = [], [], []
    for k in range(spec.n_dims):
        gap = abs(f[fol, k] - f[leader, k]) / max(f[fol, k], f[leader, k])
        if sinr[0, k] > _THETA_HI and sinr[1, k] > _THETA_HI:
            labels.append("R1")
            t1.append(bool(h10[k] < h01[k]))
            t2.append(bool(h10[k] > h01[k]))
        elif sinr[0, k] < _THETA_LO and sinr[1, k] < _THETA_LO:
            labels.append("R2")
            t1.append(bool(h00[k] > h01[k] and h11[k] < h10[k]))
            t2.append(bool(h00[k] < h01[k] and h11[k] > h10[k]))
        elif gap < _THETA_PROX:
            labels.append("R3")
            t1.append(bool(h00[k] * h10[k] > h11[k] * h10[k]))
            t2.append(bool(h00[k] * h10[k] < h11[k] * h10[k]))
        else:
            labels.append("Mixed")
            t1.append(None)
            t2.append(None)
    return RegimeReport(labels=tuple(labels), case1_test=tuple(t1),
                        case2_test=tuple(t2), sinr=sinr)


def delta_metrics(nse, rse):
    """d_n = (w_n^rse - w_n^nse) / w_n^nse per player, and the social analog.

    A d whose nominal utility is within `ZERO_BASELINE` of zero (a player
    shut off at the NSE) is NaN; every other d is kept.
    """
    base = np.asarray(nse.utilities, dtype=float)
    new = np.asarray(rse.utilities, dtype=float)
    per_player = np.full(base.shape, np.nan)
    np.divide(new - base, base, out=per_player,
              where=np.abs(base) > ZERO_BASELINE)
    social = (float("nan") if abs(nse.social) <= ZERO_BASELINE
              else (rse.social - nse.social) / nse.social)
    return DeltaMetrics(per_player=per_player, social=social)


def _predicted(conditions, kind):
    """C1 and C2 (case 1, RSE1) or C3 and C4 (case 2) on every dimension."""
    all_k = conditions.all_k if conditions is not None else None
    names = ("c1", "c2") if kind == "RSE1" else ("c3", "c4")
    return bool(all_k and all(all_k.get(name) for name in names))


@dataclass(frozen=True)
class Grade:
    """One robust result against its NSE: case 1 (RSE1) moves the leader up
    and the follower down, case 2 (RSE2) the reverse, up to `ORDERING_SLACK`;
    `matched` is d.social >= -`PREDICTION_SLACK`, or None where the case's
    prediction makes no claim (conditions not triggered, or d.social NaN)."""

    d: object = None            # DeltaMetrics, NaN where undefined
    leader_ok: bool = None
    follower_ok: bool = None    # None in a game without a follower
    matched: bool = None


def grade(nse, result, leader, follower, conditions):
    """Grade one (nse, result) pair; the case is read off `result.kind`.
    `conditions` is the `ConditionReport` at `nse` (None: no prediction)."""
    d = delta_metrics(nse, result)
    sign = 1.0 if result.kind == "RSE1" else -1.0  # case 1: leader up
    leader_ok = bool(sign * (result.utilities[leader] - nse.utilities[leader])
                     >= -ORDERING_SLACK)
    follower_ok = None
    if follower is not None:
        follower_ok = bool(sign * (result.utilities[follower]
                                   - nse.utilities[follower]) <= ORDERING_SLACK)
    matched = None
    if _predicted(conditions, result.kind) and np.isfinite(d.social):
        matched = bool(d.social >= -PREDICTION_SLACK)
    return Grade(d=d, leader_ok=leader_ok, follower_ok=follower_ok,
                 matched=matched)


@dataclass(frozen=True)
class OrderingRow(Grade):
    """A `Grade` at one radius of `ordering_report`'s grids; a row whose
    solve raised a solver error holds only `radius` and `error`."""

    radius: float = None
    result: object = None   # EquilibriumResult
    error: str = None


@dataclass(frozen=True)
class OrderingReport:
    """Pass/fail table of the robustness orderings on one game instance."""

    nse: object
    case1: tuple    # OrderingRow per eps
    case2: tuple    # OrderingRow per delta
    prop3_ok: bool  # leader utility: case 2 <= case 1 at the matched radius
    case1_predicted: bool   # C1 and C2 held on all dimensions at the NSE
    case2_predicted: bool   # C3 and C4 held on all dimensions at the NSE
    case1_matched: bool     # social movement agreed with the prediction
    case2_matched: bool

    @property
    def all_orderings_hold(self):
        rows = [r for r in self.case1 + self.case2 if r.error is None]
        return all(r.leader_ok and r.follower_ok for r in rows)


def ordering_report(spec, eps_grid, delta_grid):
    """Solve the nominal and robust games over both grids and grade them.

    Every row is `grade`d; a case's prediction is matched on its smallest
    radius and holds where it makes no claim.  A solver error
    (`errors.SOLVER_ERRORS`) marks its row inconclusive; any other exception
    propagates.
    """
    eps_grid = [float(e) for e in eps_grid]
    delta_grid = [float(d) for d in delta_grid]
    for grid in (eps_grid, delta_grid):
        if not grid or grid[0] != 0.0 or grid != sorted(grid):
            raise InvalidSpecError("grids must be ascending and start at 0")
    leader = spec.leaders[0]
    fol = spec.followers[0]
    nse = equilibria.solve_nse(spec)
    conditions = check_conditions(spec, nse)

    def row(radius, solve):
        try:
            res = solve(radius)
        except SOLVER_ERRORS as exc:  # row marked inconclusive
            return OrderingRow(radius=radius, error=f"{type(exc).__name__}: {exc}")
        return OrderingRow(radius=radius, result=res,
                           **vars(grade(nse, res, leader, fol, conditions)))

    case1 = tuple(row(e, lambda e_: equilibria.solve_rse1(spec, e_))
                  for e in eps_grid if e > 0)
    case2 = tuple(row(dd, lambda d_: equilibria.solve_rse2(spec, 0.0, d_))
                  for dd in delta_grid if dd > 0)

    prop3_ok = True  # no claim without both radii or on an inconclusive row
    if case1 and case2 and case1[0].error is None:
        rse1 = case1[0].result
        rse2 = equilibria.solve_rse2(spec, case1[0].radius, case2[0].radius)
        prop3_ok = bool(rse2.utilities[leader]
                        <= rse1.utilities[leader] + ORDERING_SLACK)

    return OrderingReport(nse=nse, case1=case1, case2=case2, prop3_ok=prop3_ok,
                          case1_predicted=_predicted(conditions, "RSE1"),
                          case2_predicted=_predicted(conditions, "RSE2"),
                          case1_matched=not case1 or case1[0].matched is not False,
                          case2_matched=not case2 or case2[0].matched is not False)
