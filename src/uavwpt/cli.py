"""Command-line front end.

Subcommands: plan (grouping + feasibility of a sensor-position file, or
of the realization solve draws), solve stm|ttm (one realization, solved
exactly as in a sweep; stm prints the structure it solved), sweep
(Monte-Carlo parameter sweep), verify (oracle suite).  Exit codes are
stable for scripting: 0 success, 2 infeasible mission, 3 numeric/domain
failure or failed verification, 4 configuration problem.  Data goes to
stdout and CSV files; error diagnostics go to stderr.
"""

import argparse
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config
from .errors import (ConfigError, InfeasiblePlanError, NumericDomainError,
                     UavWptError)
from .experiments import (SWEEP_PARAMS, SweepSpec, build_problem,
                          generate_trial, run_sweep, trial_rng,
                          write_sweep_csv)
from .geometry import (check_feasibility, load_field, plan_groups,
                       write_plan_csv)
from .stm import STM_DIAG_HEADER, solve_stm, stm_diag_row
from .ttm import TTM_DIAG_HEADER, solve_ttm, ttm_diag_row
from .verification import run_verification, write_verification_csv

_EXIT_OK = 0
_EXIT_INFEASIBLE = 2
_EXIT_NUMERIC = 3
_EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; route through the config-error
    # path instead so exit codes stay unambiguous
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub):
    sub.add_argument("--config", required=True, help="scenario INI file")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="uavwpt",
                description="hover/flight time planning for a "
                            "wireless-powered UAV data-collection network")
    sub = p.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="group sensors and check feasibility")
    _add_common(plan)
    plan.add_argument("--field", default=None,
                      help="sensor positions file (x y per line); "
                           "omitted = plan the realization solve draws")
    plan.set_defaults(func=cmd_plan)

    solve = sub.add_parser("solve", help="solve one drawn realization")
    solve.add_argument("problem", choices=("stm", "ttm"))
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="Monte-Carlo parameter sweep")
    _add_common(sweep)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for trial execution; on 2 "
                       "cores, 2 workers ran the pt_db sweep about 1.05x "
                       "as fast as 1 at 200 trials per point and 1.79x at "
                       "1,000 (see README)")
    sweep.add_argument("--param", required=True, choices=tuple(SWEEP_PARAMS))
    sweep.add_argument("--values", required=True,
                       help="comma-separated sweep values, increasing")
    sweep.add_argument("--trials", type=int, default=None,
                       help="override the config trial count")
    sweep.add_argument("--baseline", choices=("hf-eh", "none"),
                       default="hf-eh")
    defaults = ", ".join(f"{objective} for {param}"
                         for param, (_, objective) in SWEEP_PARAMS.items())
    sweep.add_argument("--objective", choices=("stm", "ttm"), default=None,
                       help=f"default: {defaults}")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the oracle suite")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)
    return p


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _versions() -> str:
    """What made an output: the interpreter, numpy and this package."""
    return (f"python {platform.python_version()}  numpy {np.__version__}  "
            f"uavwpt {__version__}")


def _fmt_vec(values) -> str:
    return " ".join(f"{v:.12g}" for v in values)


def cmd_plan(args) -> int:
    config, out = _load(args)
    if args.field:
        row_ys = [0.5 * sum(config.ytilde_range_m)]
        plan = plan_groups(load_field(args.field), config.A_m,
                           config.d_max_m, config.N, row_ys)
    else:
        # the realization `solve` solves: trial 0 of the config seed
        plan = generate_trial(config, trial_rng(config.seed, 0)).plan
    feasible, travel = check_feasibility(plan, config.v_max_mps, config.T_s)
    path = out / "plan.csv"
    write_plan_csv(plan, path)
    print(f"groups: {plan.N}  sensors: {len(plan.sensors)}")
    print(f"travel time at top speed: {travel:.12g} s "
          f"(budget {config.T_s:.12g} s)")
    print(f"plan written to {path}")
    if not feasible:
        # a left fold: from CPython 3.12 sum() of floats rounds differently
        legs = reduce(add, plan.D, 0.0)
        print("INFEASIBLE: minimum travel time exceeds the mission budget")
        print(f"  legs sum {legs:.12g} m at {config.v_max_mps:.12g} "
              f"m/s needs {travel:.12g} s > {config.T_s:.12g} s")
        return _EXIT_INFEASIBLE
    return _EXIT_OK


def cmd_solve(args) -> int:
    config, out = _load(args)
    geo = generate_trial(config, trial_rng(config.seed, 0))
    problem = build_problem(config, geo, args.problem)
    if args.problem == "stm":
        alloc, diag = solve_stm(problem)
        print("problem: stm")
        print(f"method: {diag.method}")
        print(f"tau: {_fmt_vec(alloc.tau)}")
        print(f"zeta: {_fmt_vec(alloc.zeta)}")
        print(f"objective: {diag.objective:.12g} nats/Hz")
        print(f"budget residual: {diag.budget_residual:.12g} s")
        path = out / "stm_diag.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(STM_DIAG_HEADER + "\n")
            fh.write(stm_diag_row(problem, diag) + "\n")
    else:
        alloc, total = solve_ttm(problem)
        print("problem: ttm")
        print(f"tau: {_fmt_vec(alloc.tau)}")
        print(f"zeta: {_fmt_vec(alloc.zeta)}")
        print(f"total time: {total:.12g} s")
        path = out / "ttm_diag.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TTM_DIAG_HEADER + "\n")
            fh.write(ttm_diag_row(problem, config.pt_db, alloc) + "\n")
    print(f"diagnostics written to {path}")
    return _EXIT_OK


def _parse_values(raw: str):
    try:
        return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --values list {raw!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    config, out = _load(args)
    values = _parse_values(args.values)
    objective = args.objective or SWEEP_PARAMS[args.param][1]
    trials = args.trials if args.trials is not None else config.trials
    sweep = SweepSpec(param=args.param, values=values, trials=trials,
                      objective=objective)
    results, failures = run_sweep(config, sweep, workers=args.workers,
                                  baseline=args.baseline)
    metadata = [
        f"generated {datetime.now(timezone.utc).isoformat()}",
        f"objective {objective}  baseline {args.baseline}  "
        f"seed {config.seed}  trials/point {trials}",
        f"excluded trials: {sum(r.exclusions for r in results)}",
        _versions(),
    ]
    path = out / f"sweep_{args.param}.csv"
    write_sweep_csv(path, results, metadata)
    for r in results:
        print(f"{r.param}={r.value:.12g}: ours {r.mean_ours:.6g} "
              f"baseline {r.mean_baseline:.6g} "
              f"improvement {r.improvement:.4g} ({r.trials} trials)")
    if failures:
        print(f"{len(failures)} trial(s) excluded", file=sys.stderr)
    print(f"sweep written to {path}")
    return _EXIT_OK


def cmd_verify(args) -> int:
    config, out = _load(args)
    reports, ok = run_verification(config)
    path = out / "verification.csv"
    write_verification_csv(path, reports)
    print(_versions())
    by_oracle = {}
    for r in reports:
        good, total = by_oracle.get(r.oracle, (0, 0))
        by_oracle[r.oracle] = (good + int(r.passed), total + 1)
    for oracle, (good, total) in by_oracle.items():
        print(f"{oracle}: {good}/{total} passed")
    print(f"report written to {path}")
    if not ok:
        failing = sorted({r.oracle for r in reports if not r.passed})
        print(f"verification FAILED: {', '.join(failing)}", file=sys.stderr)
        return _EXIT_NUMERIC
    return _EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except NumericDomainError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except UavWptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
