"""Command-line front end.

Subcommands: plan (grouping + feasibility), solve stm|ttm (one
realization; stm falls back to SQP outside the closed form, as in a
sweep, and prints the method it used), sweep (Monte-Carlo parameter
sweep), verify (oracle suite).  Exit codes are stable for scripting: 0 success,
2 infeasible mission, 3 numeric/domain failure or failed verification,
4 configuration problem.  Data goes to stdout and CSV files; error
diagnostics go to stderr.
"""

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from .channel import group_coefficients
from .config import load_config
from .errors import (ConfigError, InfeasiblePlanError, NumericDomainError,
                     UavWptError)
from .experiments import (SweepSpec, apply_sweep_value, array_config,
                          channel_params, generate_trial, run_sweep,
                          trial_rng, write_sweep_csv)
from .geometry import (check_feasibility, generate_field, load_field,
                       plan_groups, write_plan_csv)
from .stm import STM_DIAG_HEADER, StmProblem, solve_stm, stm_diag_row
from .ttm import (TTM_DIAG_HEADER, TtmProblem, count_clamped_legs,
                  solve_ttm, ttm_diag_row)
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
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for trial execution")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="uavwpt",
                description="hover/flight time planning for a "
                            "wireless-powered UAV data-collection network")
    sub = p.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="group sensors and check feasibility")
    _add_common(plan)
    plan.add_argument("--field", default=None,
                      help="sensor positions file (x y per line); "
                           "omitted = draw a field from the config")
    plan.set_defaults(func=cmd_plan)

    solve = sub.add_parser("solve", help="solve one drawn realization")
    solve.add_argument("problem", choices=("stm", "ttm"))
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="Monte-Carlo parameter sweep")
    _add_common(sweep)
    sweep.add_argument("--param", required=True,
                       choices=("pt_db", "N", "v_max", "I_nats"))
    sweep.add_argument("--values", required=True,
                       help="comma-separated sweep values, increasing")
    sweep.add_argument("--trials", type=int, default=None,
                       help="override the config trial count")
    sweep.add_argument("--baseline", choices=("hf-eh", "none"),
                       default="hf-eh")
    sweep.add_argument("--objective", choices=("stm", "ttm"), default=None,
                       help="default: stm for pt_db/N, ttm for v_max/I_nats")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the oracle suite")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)
    return p


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _fmt_vec(values) -> str:
    return " ".join(f"{v:.12g}" for v in values)


def cmd_plan(args) -> int:
    config, out = _load(args)
    cfg = array_config(config)
    if args.field:
        field = load_field(args.field)
    else:
        ylo, yhi = config.ytilde_range_m
        width = config.N * 0.5 * sum(config.D_range_m)
        field = generate_field(config.K, ((0.0, ylo), (width, yhi)),
                               config.seed)
    row_ys = [0.5 * sum(config.ytilde_range_m)]
    plan = plan_groups(field, cfg, config.N, row_ys)
    feasible, report = check_feasibility(plan, cfg, config.v_max_mps,
                                         config.T_s)
    path = out / "plan.csv"
    write_plan_csv(plan, path)
    print(f"groups: {plan.N}  sensors: {field.K}")
    print(f"travel time at top speed: {report.travel_time:.12g} s "
          f"(budget {report.budget:.12g} s)")
    print(f"plan written to {path}")
    if not feasible:
        print("INFEASIBLE: minimum travel time exceeds the mission budget")
        print(f"  legs sum {sum(plan.D):.12g} m at {config.v_max_mps:.12g} "
              f"m/s needs {report.travel_time:.12g} s > {report.budget:.12g} s")
        return _EXIT_INFEASIBLE
    return _EXIT_OK


def cmd_solve(args) -> int:
    config, out = _load(args)
    geo = generate_trial(config, trial_rng(config.seed, 0))
    coeffs = group_coefficients(geo.plan, array_config(config),
                                channel_params(config))
    if args.problem == "stm":
        problem = StmProblem(coeffs=coeffs, D=geo.plan.D, T=config.T_s,
                             v_max=config.v_max_mps)
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
        demands = tuple(config.I_nats * len(geo.plan.members(n))
                        for n in range(1, geo.plan.N + 1))
        problem = TtmProblem(coeffs=coeffs, D=geo.plan.D,
                             v_max=config.v_max_mps, I=demands)
        alloc, total = solve_ttm(problem)
        print("problem: ttm")
        print(f"tau: {_fmt_vec(alloc.tau)}")
        print(f"zeta: {_fmt_vec(alloc.zeta)}")
        print(f"total time: {total:.12g} s")
        path = out / "ttm_diag.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TTM_DIAG_HEADER + "\n")
            fh.write(ttm_diag_row(problem.N, config.pt_db,
                                  config.v_max_mps, sum(problem.I), total,
                                  count_clamped_legs(problem, alloc)) + "\n")
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
    objective = args.objective
    if objective is None:
        objective = "ttm" if args.param in ("v_max", "I_nats") else "stm"
    trials = args.trials if args.trials is not None else config.trials
    sweep = SweepSpec(param=args.param, values=values, trials=trials,
                      objective=objective)
    # fail fast on an invalid sweep point before spending trial time
    for v in values:
        apply_sweep_value(config, args.param, v)
    results, failures = run_sweep(config, sweep, workers=args.workers,
                                  baseline=args.baseline)
    metadata = [
        f"generated {datetime.now(timezone.utc).isoformat()}",
        f"objective {objective}  baseline {args.baseline}  "
        f"seed {config.seed}  trials/point {trials}",
        f"excluded trials: {sum(r.exclusions for r in results)}",
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
    reports, ok = run_verification(config, seed=config.seed,
                                   workers=args.workers)
    path = out / "verification.csv"
    write_verification_csv(path, reports)
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
