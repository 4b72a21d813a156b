"""Command-line front end.

Subcommands: balance, compare, robust, sweep, simulate. Exit codes: 0 on
success, 2 for input or parse problems, 3 for an infeasible seat budget,
4 for internal invariant failures or a failed --verify.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .balancer import greedy_balance, optimal_balance
from .errors import DomainError, InfeasibleError, InvariantError, ParseError
from .io import (
    emit_plot_data,
    emit_report,
    load_deviations,
    load_tasks,
)
from .metrics import compare
from .model import SECONDS_PER_HOUR, Allocation, ProcessPlan, as_fraction
from .robust import alpha_sweep, effective_intervals, robust_line_report
from .simulator import SimConfig, simulate, verify_against_static


def _plan_from_args(args) -> ProcessPlan:
    tasks = load_tasks(args.tasks)
    return ProcessPlan(tasks=tasks, seat_budget=args.seats)


def _balanced_allocation(plan: ProcessPlan) -> Allocation:
    return greedy_balance(plan).allocation


def _parse_alpha_grid(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"--alphas expects start:stop:step, got {spec!r}")
    start, stop, step = (as_fraction(p) for p in parts)
    if step <= 0:
        raise DomainError("--alphas step must be > 0")
    if start > stop:
        raise DomainError("--alphas start must not exceed stop")
    grid = []
    a = start
    while a <= stop:
        grid.append(a)
        a += step
    return grid


def cmd_balance(args) -> int:
    plan = _plan_from_args(args)
    if args.method == "optimal":
        if args.target_ct is not None:
            raise DomainError("--target-ct applies to the greedy method only")
        result = optimal_balance(plan)
    else:
        target = None if args.target_ct is None else as_fraction(args.target_ct)
        result = greedy_balance(plan, target_ct=target)
    sys.stdout.write(emit_report(result, args.format))
    return 0


def cmd_compare(args) -> int:
    plan = _plan_from_args(args)
    comparison = compare(plan, Allocation.ones(plan), _balanced_allocation(plan))
    sys.stdout.write(emit_report(comparison, "table"))
    return 0


def cmd_robust(args) -> int:
    plan = _plan_from_args(args)
    deviations = load_deviations(args.deviations)
    allocation = _balanced_allocation(plan)
    alpha = as_fraction(args.alpha)
    intervals = effective_intervals(plan, allocation, alpha, deviations)
    report = robust_line_report(plan, allocation, intervals)
    sys.stdout.write(emit_report(report, args.format))
    return 0


def cmd_sweep(args) -> int:
    plan = _plan_from_args(args)
    deviations = load_deviations(args.deviations)
    allocation = _balanced_allocation(plan)
    grid = _parse_alpha_grid(args.alphas)
    sweep = alpha_sweep(plan, allocation, deviations, grid)
    sys.stdout.write(emit_plot_data(sweep))
    return 0


def cmd_simulate(args) -> int:
    plan = _plan_from_args(args)
    allocation = _balanced_allocation(plan)
    config = SimConfig(
        horizon_s=as_fraction(args.hours) * SECONDS_PER_HOUR,
        warmup_s=as_fraction(args.warmup) * SECONDS_PER_HOUR,
        service_model=args.service,
        seed=args.seed,
        queue_capacity=args.queue_cap,
    )
    result = simulate(plan, allocation, config)
    sys.stdout.write(emit_report(result, "table"))
    if args.verify:
        verdict = verify_against_static(result, plan, allocation, as_fraction(args.tol))
        for check in verdict.checks:
            status = "ok" if check.passed else "FAIL"
            sys.stdout.write(f"verify {check.name}: {status} ({check.detail})\n")
        if not verdict.passed:
            return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hangerline",
        description="Balance a one-piece-flow sewing line, report productivity, "
        "bound it under cycle-time uncertainty, and validate it dynamically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tasks", required=True, help="task table CSV")
        p.add_argument("--seats", required=True, type=int, help="total station budget")

    p = sub.add_parser("balance", help="allocate stations under the seat budget")
    add_common(p)
    p.add_argument("--method", choices=("greedy", "optimal"), default="greedy")
    p.add_argument("--target-ct", default=None, help="stop greedy once line CT reaches this")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("compare", help="one-station baseline vs balanced line")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("robust", help="cycle-time uncertainty bounds")
    add_common(p)
    p.add_argument("--deviations", required=True, help="deviation table CSV")
    p.add_argument("--alpha", default="1", help="uncertainty level in (0, 1]")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("sweep", help="regular/best/worst series over an alpha grid")
    add_common(p)
    p.add_argument("--deviations", required=True, help="deviation table CSV")
    p.add_argument("--alphas", required=True, help="grid as start:stop:step")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="discrete-event run of the balanced line")
    add_common(p)
    p.add_argument("--hours", required=True, help="simulated horizon, hours")
    p.add_argument("--warmup", default="0", help="warmup excluded from stats, hours")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--service", choices=("deterministic", "uniform"), default="deterministic")
    p.add_argument("--queue-cap", type=int, default=None, help="per-queue piece limit")
    p.add_argument("--verify", action="store_true", help="check the run against the static figures")
    p.add_argument("--tol", default="0.02", help="relative throughput tolerance for --verify")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
