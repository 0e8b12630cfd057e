"""Command-line front end for single instances, sweeps and Monte Carlo runs."""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, budget as budget_mod, equilibria, game
from .harness import (ExperimentConfig, generate_channels,
                      heuristic_leader_selection, monte_carlo_cdf,
                      run_experiment)
from .harness.experiment import csv_line, csv_value, write_csv
from .harness.svgplot import cdf_plot, write_svg


def _load_config(args):
    config_path = getattr(args, "config", None)
    config = (ExperimentConfig.from_json(config_path) if config_path
              else ExperimentConfig())
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["rng_seed"] = args.seed
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    if getattr(args, "format", None) is not None:
        updates["format"] = args.format
    return dataclasses.replace(config, **updates) if updates else config


def _instance_spec(config, index=0):
    return config.to_spec(generate_channels(config, index)), index


def _print_result(res, label):
    a = res.profile.actions
    print(f"{label}:")
    for n in range(a.shape[0]):
        row = " ".join(f"{v:.6g}" for v in a[n])
        print(f"  player {n}: action [{row}]  utility {res.utilities[n]:.6g}")
    print(f"  social utility: {res.social:.6g}")


def _write_result_csv(config, res, name):
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"{name}.csv")
    a = res.profile.actions
    n, k = a.shape
    header = ["player"] + [f"a_{d}" for d in range(k)] + ["utility"]
    lines = [csv_line(header)]
    lines += [csv_line([p, *a[p], res.utilities[p]]) for p in range(n)]
    write_csv(path, lines)
    print(f"wrote {path}")


def _cmd_nse(config, args):
    spec, _ = _instance_spec(config)
    res = equilibria.solve_nse(spec, restarts=config.restarts, seed=config.rng_seed)
    _print_result(res, "nominal Stackelberg equilibrium")
    _write_result_csv(config, res, "nse")


def _cmd_rse1(config, args):
    spec, _ = _instance_spec(config)
    res = equilibria.solve_rse1(spec, args.eps, restarts=config.restarts,
                                seed=config.rng_seed)
    _print_result(res, f"robust Stackelberg equilibrium, case 1 (eps={args.eps})")
    _write_result_csv(config, res, "rse1")


def _cmd_rse2(config, args):
    spec, _ = _instance_spec(config)
    res = equilibria.solve_rse2(spec, args.eps, args.delta,
                                restarts=config.restarts, seed=config.rng_seed)
    _print_result(res, f"robust Stackelberg equilibrium, case 2 "
                       f"(delta={args.delta}, eps={args.eps})")
    _write_result_csv(config, res, "rse2")


def _cmd_conditions(config, args):
    spec, _ = _instance_spec(config)
    res = equilibria.solve_nse(spec, restarts=config.restarts, seed=config.rng_seed)
    _print_result(res, "nominal Stackelberg equilibrium")
    report = analysis.check_conditions(spec, res)
    for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"):
        arr = getattr(report, name)
        if arr is None:
            continue
        flat = np.asarray(arr).ravel()
        print(f"  {name}: per-k {[bool(v) for v in flat]}  all-k "
              f"{report.all_k[name]}")
    if spec.n_players == 2:
        regime = analysis.classify_regime(spec, res.profile)
        print(f"  regimes: {list(regime.labels)}")
        print(f"  simplified case-1 tests: {list(regime.case1_test)}")
        print(f"  simplified case-2 tests: {list(regime.case2_test)}")


def _grid(text):
    return tuple(float(x) for x in text.split(","))


def _cmd_sweep(config, args):
    updates = {}
    if args.eps_grid:
        updates["eps_grid"] = _grid(args.eps_grid)
    if args.delta_grid:
        updates["delta_grid"] = _grid(args.delta_grid)
    if updates:
        config = dataclasses.replace(config, **updates)
    summary = run_experiment(config)
    print(f"instances solved: {len(summary.records)}  "
          f"excluded: {summary.excluded}")
    for name, (ok, total) in summary.orderings.items():
        if total:
            print(f"  ordering {name}: {ok}/{total}")
    for name, (ok, total) in summary.agreement.items():
        if total:
            print(f"  condition/prediction agreement {name}: {ok}/{total}")
    print(f"wrote {summary.csv_path}")
    for path in summary.svg_paths:
        print(f"wrote {path}")


def _cmd_montecarlo(config, args):
    if args.scenario:
        scenario = dataclasses.replace(
            config.scenario,
            filter=None if args.scenario == "none" else args.scenario)
        config = dataclasses.replace(config, scenario=scenario)
    cdf = monte_carlo_cdf(config)
    print(f"instances: {cdf.total}  excluded: {cdf.excluded}")
    print(f"fraction with follower d > 0: {cdf.positive_fraction:.4f}")
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "montecarlo_cdf.csv")
    lines = [f"# metric: {cdf.metric} eps: {csv_value(cdf.eps_used)} "
             f"positive_fraction: {csv_value(cdf.positive_fraction)}",
             "value,fraction"]
    lines += [csv_line(pair) for pair in zip(cdf.values, cdf.fractions)]
    write_csv(path, lines)
    print(f"wrote {path}")
    if config.format == "csv+svg":
        svg_path = os.path.join(config.out_dir, "montecarlo_cdf.svg")
        write_svg(svg_path, cdf_plot(cdf.values, cdf.fractions,
                                     title="cdf of follower d (case 1)",
                                     xlabel="d1"))
        print(f"wrote {svg_path}")


def _cmd_heuristic(config, args):
    spec, _ = _instance_spec(config)
    delta = args.delta if args.delta is not None else (
        max(config.delta_grid) if max(config.delta_grid) > 0 else 0.05)
    selection = heuristic_leader_selection(spec, delta)
    for rep in selection.reports:
        print(f"candidate {rep.candidate}: C7 {rep.c7_all}  C8 {rep.c8_all}")
    if selection.no_eligible_leader:
        print("no eligible leader (protocol terminating branch)")
        return
    print(f"selected leader: {selection.selected}")
    demoted, nse, rse2 = selection.run_plan(spec, restarts=config.restarts,
                                            seed=config.rng_seed)
    _print_result(nse, "selected-leader nominal equilibrium")
    _print_result(rse2, f"selected-leader case-2 equilibrium (delta={delta})")
    others = [n for n in range(spec.n_players) if n != selection.selected]
    before = sum(nse.utilities[n] for n in others)
    after = sum(rse2.utilities[n] for n in others)
    print(f"social utility excluding the selected leader: "
          f"{before:.6g} -> {after:.6g}")


def _cmd_waterfill_demo(config, args):
    spec, _ = _instance_spec(config)
    if not spec.is_budgeted:
        print("waterfill-demo needs a budgeted config", file=sys.stderr)
        raise SystemExit(2)
    player = spec.followers[0]
    f = game.aggregate_impact(spec, spec.action_min, player)
    budget = spec.budget(player)
    nominal = budget_mod.waterfill(spec, player, f, budget)
    robust = budget_mod.robust_waterfill(spec, player, f, args.eps, budget)
    print(f"player {player}, budget {budget:.6g}, eps {args.eps}")
    print("dim  impact      nominal     robust")
    for k in range(spec.n_dims):
        print(f"{k:3d}  {f[k]:.6g}  {nominal[k]:.6g}  {robust[k]:.6g}")
    print(f"totals: nominal {nominal.sum():.6g}  robust {robust.sum():.6g}")


def build_parser():
    # SUPPRESS keeps a subcommand's unset copy of a global flag from
    # clobbering a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON experiment configuration")
    common.add_argument("--seed", type=int, help="override rng_seed")
    common.add_argument("--out", help="override output directory")
    common.add_argument("--format", choices=["csv", "csv+svg"],
                        help="override output format")
    parser = argparse.ArgumentParser(
        prog="rsgame", parents=[common],
        description="nominal and worst-case-robust Stackelberg equilibria "
                    "for power-control games")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("nse", parents=[common],
                   help="solve the nominal equilibrium of instance 0")
    p = sub.add_parser("rse1", parents=[common], help="case-1 robust equilibrium")
    p.add_argument("--eps", type=float, required=True)
    p = sub.add_parser("rse2", parents=[common], help="case-2 robust equilibrium")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    sub.add_parser("conditions", parents=[common],
                   help="condition report at the nominal equilibrium")
    p = sub.add_parser("sweep", parents=[common],
                       help="full grid sweep over the ensemble")
    p.add_argument("--eps-grid", help="comma list, e.g. 0,0.02,0.05")
    p.add_argument("--delta-grid", help="comma list, e.g. 0,0.02,0.05")
    p = sub.add_parser("montecarlo", parents=[common],
                       help="cdf study of the follower's d")
    p.add_argument("--scenario", choices=["s1", "s2", "s3", "none"])
    p = sub.add_parser("heuristic", parents=[common],
                       help="multi-leader heuristic protocol")
    p.add_argument("--delta", type=float)
    p = sub.add_parser("waterfill-demo", parents=[common],
                       help="nominal vs robust waterfilling")
    p.add_argument("--eps", type=float, default=0.1)
    return parser


_COMMANDS = {
    "nse": _cmd_nse,
    "rse1": _cmd_rse1,
    "rse2": _cmd_rse2,
    "conditions": _cmd_conditions,
    "sweep": _cmd_sweep,
    "montecarlo": _cmd_montecarlo,
    "heuristic": _cmd_heuristic,
    "waterfill-demo": _cmd_waterfill_demo,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = _load_config(args)
    _COMMANDS[args.command](config, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
