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
from ..errors import SOLVER_ERRORS, ConfigError, SchemaVersionError
from . import channels, svgplot

SCHEMA = "rsgame-sweep v1"


@dataclass(frozen=True)
class EnsembleRecord:
    """Everything computed for one drawn instance.

    `grades` holds each robust result's `analysis.Grade` against the NSE:
    its d (NaN for a zero nominal utility), the leader's and the first
    follower's orderings and the prediction verdict.
    """

    instance: int
    gains: np.ndarray
    results: dict      # (kind, radius) -> EquilibriumResult
    conditions: object  # ConditionReport at the nominal equilibrium
    grades: dict       # (kind, radius) -> analysis.Grade, robust kinds only
    overlap: dict      # (kind, radius) -> OverlapStats


@dataclass(frozen=True)
class ExperimentSummary:
    records: tuple
    csv_path: str
    svg_paths: tuple
    excluded: int
    orderings: dict    # pass-rate bookkeeping
    agreement: dict    # condition/prediction agreement


def csv_value(x):
    """One CSV cell: empty for None, text as is, 1/0 for booleans, integers
    as written and floats to 17 significant digits, which read back exactly."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def csv_line(values):
    """One CSV line of `csv_value` cells."""
    return ",".join(csv_value(v) for v in values)


def write_csv(path, lines):
    """Write lines (comments, a header and `csv_line` rows) as one file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _row(n, k, instance, kind, eps, delta, res, grade, conds, overlap):
    a = res.profile.actions
    vals = [instance, kind, eps, delta]
    vals += [a[p, dd] for p in range(n) for dd in range(k)]
    vals += [res.utilities[p] for p in range(n)]
    vals += [res.social]
    if kind == "NSE":
        vals += ["0"] * (n + 1)
    else:  # an undefined (NaN) d is left blank
        vals += [x if np.isfinite(x) else None
                 for x in (*grade.d.per_player, grade.d.social)]
    for name in ("c1", "c2", "c3", "c4"):
        flag = conds.all_k.get(name) if conds is not None and conds.all_k else None
        vals.append(None if flag is None else bool(flag))
    vals += [overlap.sizes[p] for p in range(n)]
    vals += [overlap.common_sizes.get((0, 1), 0)]
    return csv_line(vals)


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
    fol = spec.followers[0] if spec.followers else None
    grades, overlap = {}, {}
    thr = _activity_threshold(spec)
    for key, res in results.items():
        overlap[key] = budget_mod.overlap_stats(res.profile, thr)
        if key[0] != "NSE":
            grades[key] = analysis.grade(nse, res, spec.leaders[0], fol, conds)
    return EnsembleRecord(instance=instance, gains=spec.cross_gain,
                          results=results, conditions=conds,
                          grades=grades, overlap=overlap)


def run_experiment(config):
    """Execute the configured sweep and write CSV (+SVG); print nothing.

    Per-instance solver errors (`errors.SOLVER_ERRORS`) exclude their
    instance and are counted in `excluded`; more than 5% exclusions fails
    the run.  Any other exception propagates.  `rsgame sweep` prints the
    summary's counts.
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
             csv_line(_columns(n, k))]
    for rec in records:
        for (kind, radius), res in sorted(rec.results.items(),
                                          key=lambda kv: (kv[0][0], kv[0][1])):
            eps = radius if kind == "RSE1" else 0.0
            delta = radius if kind == "RSE2" else 0.0
            lines.append(_row(n, k, rec.instance, kind, eps, delta, res,
                              rec.grades.get((kind, radius)), rec.conditions,
                              rec.overlap[(kind, radius)]))
    write_csv(csv_path, lines)

    # every instance shares the config's roles: count and plot the leader
    # against the first follower (a one-player sweep has none)
    leader = config.leaders[0]
    followers = [p for p in range(n) if p not in config.leaders]
    orderings = _count_orderings(records) if followers else {}
    agreement = _count_agreement(config, records)
    svg_paths = ()
    if followers and config.format == "csv+svg":
        svg_paths = _write_svgs(config, records, leader, followers[0])
    return ExperimentSummary(records=tuple(records), csv_path=csv_path,
                             svg_paths=svg_paths, excluded=len(failures),
                             orderings=orderings, agreement=agreement)


def _count_orderings(records):
    """(passed, graded) per ordering over every robust result."""
    names = {"RSE1": ("case1_leader_up", "case1_follower_down"),
             "RSE2": ("case2_leader_down", "case2_follower_up")}
    out = {name: [0, 0] for pair in names.values() for name in pair}
    for rec in records:
        for (kind, _), g in rec.grades.items():
            for name, ok in zip(names[kind], (g.leader_ok, g.follower_ok)):
                out[name][0] += ok
                out[name][1] += 1
    return {name: tuple(v) for name, v in out.items()}


def _count_agreement(config, records):
    """(matched, claimed) per case's prediction at its smallest radius."""
    out = {}
    for case, kind, grid in (("case1", "RSE1", config.eps_grid),
                             ("case2", "RSE2", config.delta_grid)):
        key = (kind, next((r for r in grid if r > 0), None))
        claims = [rec.grades[key].matched for rec in records if key in rec.grades]
        claims = [m for m in claims if m is not None]
        out[case] = (sum(claims), len(claims))
    return out


def _write_svgs(config, records, leader, fol):
    """Each case's d against its radius on the first instance whose every d
    is defined (else the first), and the CDF of the follower's d at the
    largest eps; undefined d values are left out."""
    def finite(points):
        return tuple(zip(*[(x, y) for x, y in points if np.isfinite(y)]))

    rec = next((r for r in records if all(
        np.isfinite(g.d.per_player).all() and np.isfinite(g.d.social)
        for g in r.grades.values())), records[0])
    paths = []
    for kind, grid, name, what, xlabel in (
            ("RSE1", config.eps_grid, "case1_d_vs_eps", "observation", "eps"),
            ("RSE2", config.delta_grid, "case2_d_vs_delta", "information", "delta")):
        ds = [(r, rec.grades[(kind, r)].d) for r in grid if r > 0]
        series = {"leader d": finite((r, d.per_player[leader]) for r, d in ds),
                  "follower d": finite((r, d.per_player[fol]) for r, d in ds),
                  "social d": finite((r, d.social) for r, d in ds
                                     if kind == "RSE1")}
        series = {label: xy for label, xy in series.items() if xy}
        if series:
            path = os.path.join(config.out_dir, name + ".svg")
            svgplot.write_svg(path, svgplot.line_plot(
                series, title=f"relative utility change vs {what} radius",
                xlabel=xlabel, ylabel="d"))
            paths.append(path)
    key = ("RSE1", config.eps_grid[-1])
    d1 = np.sort([r.grades[key].d.per_player[fol] for r in records
                  if key in r.grades])
    d1 = d1[np.isfinite(d1)]
    if d1.size and len(records) > 1:
        path = os.path.join(config.out_dir, "cdf_d1_rse1.svg")
        svgplot.write_svg(path, svgplot.cdf_plot(
            d1, np.arange(1, d1.size + 1) / d1.size,
            title="empirical cdf of follower d (case 1)", xlabel="d1"))
        paths.append(path)
    return tuple(paths)


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
                continue  # an undefined d was recorded as blank
            base, new = float(nse[c]), float(row[c])
            stored = float(row[d_col])
            if (abs(base) > analysis.ZERO_BASELINE
                    and abs((new - base) / base - stored) > 1e-12):
                raise ValueError(f"stored {d_col} disagrees with utilities "
                                 f"in row {row}")
    return rows
