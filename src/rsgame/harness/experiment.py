"""Ensemble experiment pipeline: solve, report, persist CSV (and SVG).

One CSV row per (instance, equilibrium kind, radius); the column order is
fixed by the configuration's (N, K) and versioned in the schema header line,
so identical configs and seeds reproduce byte-identical bodies (only the
timestamp header line differs between runs).
"""

import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .. import analysis, budget as budget_mod, equilibria
from ..errors import (SOLVER_ERRORS, ConfigError, SchemaVersionError,
                      UndefinedBaselineError)
from . import channels, svgplot

SCHEMA = "rsgame-sweep v1"


@dataclass(frozen=True)
class EnsembleRecord:
    """Everything computed for one drawn instance."""

    instance: int
    gains: np.ndarray
    results: dict      # (kind, radius) -> EquilibriumResult
    conditions: object  # ConditionReport at the nominal equilibrium
    d_metrics: dict    # (kind, radius) -> DeltaMetrics
    overlap: dict      # (kind, radius) -> OverlapStats


@dataclass(frozen=True)
class ExperimentSummary:
    records: tuple
    csv_path: str
    svg_paths: tuple
    excluded: int
    orderings: dict    # pass-rate bookkeeping
    agreement: dict    # condition/prediction agreement


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _columns(n, k):
    cols = ["instance", "kind", "eps", "delta"]
    cols += [f"a{p}_{d}" for p in range(n) for d in range(k)]
    cols += [f"w{p}" for p in range(n)]
    cols += ["social"]
    cols += [f"d{p}" for p in range(n)]
    cols += ["d_social", "c1", "c2", "c3", "c4"]
    cols += [f"used{p}" for p in range(n)]
    cols += ["common01"]
    return cols


def _activity_threshold(spec):
    if spec.is_budgeted:
        return budget_mod.activity_threshold(
            float(np.min(spec.utility_model.budget)), spec.n_dims)
    finite = spec.action_max[np.isfinite(spec.action_max)]
    scale = float(finite.mean()) if finite.size else 1.0
    return 1e-6 * scale


def _row(spec, instance, kind, eps, delta, res, d, conds, overlap):
    n, k = spec.n_players, spec.n_dims
    a = res.profile.actions
    vals = [str(instance), kind, _fmt(eps), _fmt(delta)]
    vals += [_fmt(a[p, dd]) for p in range(n) for dd in range(k)]
    vals += [_fmt(res.utilities[p]) for p in range(n)]
    vals += [_fmt(res.social)]
    if kind == "NSE":
        vals += ["0"] * (n + 1)
    elif d is None:
        vals += [""] * (n + 1)  # undefined baseline: left blank
    else:
        vals += [_fmt(d.per_player[p]) for p in range(n)]
        vals += [_fmt(d.social)]
    for name in ("c1", "c2", "c3", "c4"):
        flag = conds.all_k.get(name) if conds is not None and conds.all_k else None
        vals.append("" if flag is None else _fmt(bool(flag)))
    vals += [str(overlap.sizes[p]) for p in range(n)]
    vals += [str(overlap.common_sizes.get((0, 1), 0))]
    return vals


def solve_instance(config, spec, instance):
    """Nominal plus robust equilibria over the configured grids, one instance."""
    kwargs = {"restarts": config.restarts, "seed": config.rng_seed}
    results = {("NSE", 0.0): equilibria.solve_nse(spec, **kwargs)}
    nse = results[("NSE", 0.0)]
    for eps in config.eps_grid:
        if eps > 0:
            results[("RSE1", eps)] = equilibria.solve_rse1(spec, eps, **kwargs)
    for delta in config.delta_grid:
        if delta > 0:
            results[("RSE2", delta)] = equilibria.solve_rse2(spec, 0.0, delta,
                                                             **kwargs)
    conds = None
    if spec.n_players >= 2 and len(spec.leaders) == 1:
        conds = analysis.check_conditions(spec, nse)
    d_metrics, overlap = {}, {}
    thr = _activity_threshold(spec)
    for key, res in results.items():
        overlap[key] = budget_mod.overlap_stats(res.profile, thr)
        if key[0] != "NSE":
            try:
                d_metrics[key] = analysis.delta_metrics(nse, res)
            except UndefinedBaselineError:
                d_metrics[key] = None  # blank in the CSV, skipped in grading
    return EnsembleRecord(instance=instance, gains=spec.cross_gain,
                          results=results, conditions=conds,
                          d_metrics=d_metrics, overlap=overlap)


def run_experiment(config, quiet=False):
    """Execute the configured sweep, write CSV (+SVG), print a summary table.

    Per-instance solver errors (`errors.SOLVER_ERRORS`) are logged and
    excluded; more than 5% exclusions fails the run.  Any other exception
    propagates.
    """
    if len(config.leaders) != 1:
        raise ConfigError(
            "run_experiment drives single-leader sweeps; use the heuristic "
            "protocol for several leaders")
    os.makedirs(config.out_dir, exist_ok=True)
    records, failures = [], []
    for i in range(config.ensemble_size):
        gains = channels.generate_channels(config, i)
        spec = config.to_spec(gains)
        try:
            records.append(solve_instance(config, spec, i))
        except SOLVER_ERRORS as exc:  # excluded and counted
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    if len(failures) > 0.05 * config.ensemble_size:
        raise RuntimeError(
            f"{len(failures)} of {config.ensemble_size} instances failed "
            f"(limit 5%): first failure {failures[0]}")

    csv_path = os.path.join(config.out_dir, "sweep.csv")
    n, k = config.n_players, config.n_dims
    lines = [f"# generated: {datetime.now(timezone.utc).isoformat()}",
             f"# schema: {SCHEMA}",
             ",".join(_columns(n, k))]
    for rec in records:
        spec = config.to_spec(rec.gains)
        for (kind, radius), res in sorted(rec.results.items(),
                                          key=lambda kv: (kv[0][0], kv[0][1])):
            eps = radius if kind == "RSE1" else 0.0
            delta = radius if kind == "RSE2" else 0.0
            d = rec.d_metrics.get((kind, radius))
            lines.append(",".join(_row(spec, rec.instance, kind, eps, delta,
                                       res, d, rec.conditions,
                                       rec.overlap[(kind, radius)])))
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    # every instance shares the config's roles: grade and plot the leader
    # against the first follower (a one-player sweep has none)
    leader = config.leaders[0]
    followers = config.to_spec(records[0].gains).followers
    orderings = {}
    svg_paths = ()
    if followers:
        orderings = _grade_orderings(records, leader, followers[0])
        if config.format == "csv+svg":
            svg_paths = _write_svgs(config, records, leader, followers[0])
    agreement = _grade_agreement(records)
    if not quiet:
        _print_summary(config, records, failures, orderings, agreement)
    return ExperimentSummary(records=tuple(records), csv_path=csv_path,
                             svg_paths=svg_paths, excluded=len(failures),
                             orderings=orderings, agreement=agreement)


def _grade_orderings(records, leader, fol, slack=1e-9):
    checks = {"case1_leader_up": [0, 0], "case1_follower_down": [0, 0],
              "case2_leader_down": [0, 0], "case2_follower_up": [0, 0]}
    for rec in records:
        nse = rec.results[("NSE", 0.0)]
        for (kind, radius), res in rec.results.items():
            if kind == "RSE1":
                checks["case1_leader_up"][0] += res.utilities[leader] >= nse.utilities[leader] - slack
                checks["case1_leader_up"][1] += 1
                checks["case1_follower_down"][0] += res.utilities[fol] <= nse.utilities[fol] + slack
                checks["case1_follower_down"][1] += 1
            elif kind == "RSE2":
                checks["case2_leader_down"][0] += res.utilities[leader] <= nse.utilities[leader] + slack
                checks["case2_leader_down"][1] += 1
                checks["case2_follower_up"][0] += res.utilities[fol] >= nse.utilities[fol] - slack
                checks["case2_follower_up"][1] += 1
    return {name: (int(ok), int(total)) for name, (ok, total) in checks.items()}


def _grade_agreement(records):
    """First-order condition/prediction agreement at the smallest radii."""
    out = {"case1": [0, 0], "case2": [0, 0]}
    for rec in records:
        if rec.conditions is None or rec.conditions.all_k is None:
            continue
        all_k = rec.conditions.all_k
        rse1 = [(r, v) for (kind, r), v in rec.results.items() if kind == "RSE1"]
        rse2 = [(r, v) for (kind, r), v in rec.results.items() if kind == "RSE2"]
        if rse1 and all_k.get("c1") and all_k.get("c2"):
            d = rec.d_metrics.get(("RSE1", min(rse1)[0]))
            if d is not None:
                out["case1"][1] += 1
                out["case1"][0] += d.social >= -1e-6
        if rse2 and all_k.get("c3") and all_k.get("c4"):
            d = rec.d_metrics.get(("RSE2", min(rse2)[0]))
            if d is not None:
                out["case2"][1] += 1
                out["case2"][0] += d.social >= -1e-6
    return {name: (int(ok), int(total)) for name, (ok, total) in out.items()}


def _write_svgs(config, records, leader, fol):
    paths = []
    rec = next((r for r in records
                if all(v is not None for v in r.d_metrics.values())),
               records[0])
    eps_nz = [e for e in config.eps_grid if e > 0
              if rec.d_metrics.get(("RSE1", e)) is not None]
    delta_nz = [d for d in config.delta_grid if d > 0
                if rec.d_metrics.get(("RSE2", d)) is not None]
    if eps_nz:
        series = {
            "leader d": (eps_nz, [rec.d_metrics[("RSE1", e)].per_player[leader]
                                  for e in eps_nz]),
            "follower d": (eps_nz, [rec.d_metrics[("RSE1", e)].per_player[fol]
                                    for e in eps_nz]),
            "social d": (eps_nz, [rec.d_metrics[("RSE1", e)].social
                                  for e in eps_nz]),
        }
        path = os.path.join(config.out_dir, "case1_d_vs_eps.svg")
        svgplot.write_svg(path, svgplot.line_plot(
            series, title="relative utility change vs observation radius",
            xlabel="eps", ylabel="d"))
        paths.append(path)
    if delta_nz:
        series = {
            "leader d": (delta_nz, [rec.d_metrics[("RSE2", d)].per_player[leader]
                                    for d in delta_nz]),
            "follower d": (delta_nz, [rec.d_metrics[("RSE2", d)].per_player[fol]
                                      for d in delta_nz]),
        }
        path = os.path.join(config.out_dir, "case2_d_vs_delta.svg")
        svgplot.write_svg(path, svgplot.line_plot(
            series, title="relative utility change vs information radius",
            xlabel="delta", ylabel="d"))
        paths.append(path)
    if eps_nz and len(records) > 1:
        d1 = [r.d_metrics[("RSE1", max(eps_nz))].per_player[fol] for r in records
              if r.d_metrics.get(("RSE1", max(eps_nz))) is not None]
        values, fractions = np.sort(d1), np.arange(1, len(d1) + 1) / len(d1)
        path = os.path.join(config.out_dir, "cdf_d1_rse1.svg")
        svgplot.write_svg(path, svgplot.cdf_plot(
            values, fractions, title="empirical cdf of follower d (case 1)",
            xlabel="d1"))
        paths.append(path)
    return tuple(paths)


def _print_summary(config, records, failures, orderings, agreement):
    print(f"instances solved: {len(records)}  excluded: {len(failures)}")
    for name, (ok, total) in orderings.items():
        if total:
            print(f"  ordering {name}: {ok}/{total}")
    for name, (ok, total) in agreement.items():
        if total:
            print(f"  condition/prediction agreement {name}: {ok}/{total}")


def load_rows(csv_path):
    """Parse a sweep CSV back into dict rows, verifying schema and d-metrics.

    Raises SchemaVersionError on a version mismatch and ValueError when a
    stored d-metric cannot be recomputed from the stored utilities.
    """
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if len(lines) < 3 or not lines[1].startswith("# schema: "):
        raise SchemaVersionError("missing schema header line")
    version = lines[1][len("# schema: "):]
    if version != SCHEMA:
        raise SchemaVersionError(f"unsupported schema {version!r}")
    header = lines[2].split(",")
    rows = []
    by_instance_nse = {}
    for ln in lines[3:]:
        if not ln:
            continue
        row = dict(zip(header, ln.split(",")))
        rows.append(row)
        if row["kind"] == "NSE":
            by_instance_nse[row["instance"]] = row
    w_cols = [c for c in header if c.startswith("w") and c != "w"]
    for row in rows:
        if row["kind"] == "NSE":
            continue
        nse = by_instance_nse.get(row["instance"])
        if nse is None:
            continue
        for c in w_cols:
            d_col = "d" + c[1:]
            if row[d_col] == "":
                continue  # undefined baseline was recorded as blank
            base, new = float(nse[c]), float(row[c])
            stored = float(row[d_col])
            if abs(base) > 1e-12 and abs((new - base) / base - stored) > 1e-12:
                raise ValueError(f"stored {d_col} disagrees with utilities "
                                 f"in row {row}")
    return rows
