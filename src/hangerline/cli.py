"""Command-line front end.

Subcommands: balance, compare, robust, sweep, simulate. Exit codes: 0 on
success, 2 for input or parse problems, 3 for an infeasible seat budget,
4 for internal invariant failures or a failed --verify.
The subcommands that run metrics, robust or simulator import them.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .balancer import greedy_balance, optimal_balance
from .errors import DomainError, InfeasibleError, InvariantError, ParseError
from .io import emit_plot_data, emit_report, load_deviations, load_tasks
from .model import SECONDS_PER_HOUR, Allocation, ProcessPlan, as_fraction

# the largest --alphas grid sweep accepts; each point is a full robust report
MAX_ALPHA_POINTS = 10_000
# the largest --seats any subcommand accepts, about 3x the largest lines in
# view (~3000 seats); balancing time grows with every seat
MAX_SEATS = 10_000
# the most tasks x alpha points sweep takes on: ~2 s and ~150 MB (250 tasks x 800
# points at 1,000 seats ran 1.6 s wall at a 146 MB peak on one core of a 2-vCPU Xeon)
MAX_SWEEP_CELLS = 200_000


def _plan_from_args(args) -> ProcessPlan:
    if args.seats > MAX_SEATS:
        raise DomainError(f"--seats {args.seats} is above the limit of {MAX_SEATS}")
    tasks = load_tasks(args.tasks)
    return ProcessPlan(tasks=tasks, seat_budget=args.seats)


def _number(flag: str, raw: str, parse=as_fraction) -> Fraction:
    try:
        return parse(raw)
    except DomainError as exc:
        raise DomainError(f"{flag}: {exc}") from None


def _parse_alpha_grid(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"--alphas expects start:stop:step, got {spec!r}")
    start, stop, step = (_number("--alphas", p) for p in parts)
    if step <= 0:
        raise DomainError("--alphas step must be > 0")
    if start > stop:
        raise DomainError("--alphas start must not exceed stop")
    points = (stop - start) // step + 1
    if points > MAX_ALPHA_POINTS:
        raise DomainError(f"--alphas grid has {points} points, above the limit of {MAX_ALPHA_POINTS}")
    return [start + k * step for k in range(points)]


def cmd_balance(args) -> int:
    plan = _plan_from_args(args)
    if args.method == "optimal":
        if args.target_ct is not None:
            raise DomainError("--target-ct applies to the greedy method only")
        result = optimal_balance(plan)
    else:
        target = None if args.target_ct is None else _number("--target-ct", args.target_ct)
        result = greedy_balance(plan, target_ct=target)
    sys.stdout.write(emit_report(result, args.format))
    return 0


def cmd_compare(args) -> int:
    from .metrics import compare
    plan = _plan_from_args(args)
    comparison = compare(plan, Allocation.ones(plan), greedy_balance(plan).allocation)
    sys.stdout.write(emit_report(comparison, "table"))
    return 0


def cmd_robust(args) -> int:
    from .robust import effective_intervals, robust_line_report
    plan = _plan_from_args(args)
    deviations = load_deviations(args.deviations)
    allocation = greedy_balance(plan).allocation
    alpha = _number("--alpha", args.alpha)
    intervals = effective_intervals(plan, allocation, alpha, deviations)
    report = robust_line_report(plan, allocation, intervals)
    sys.stdout.write(emit_report(report, args.format))
    return 0


def cmd_sweep(args) -> int:
    from .robust import alpha_sweep
    plan = _plan_from_args(args)
    deviations = load_deviations(args.deviations)
    grid = _parse_alpha_grid(args.alphas)
    cells = len(plan.tasks) * len(grid)
    if cells > MAX_SWEEP_CELLS:
        raise DomainError(f"--alphas grid needs {cells} task x alpha cells, above the limit of {MAX_SWEEP_CELLS}")
    allocation = greedy_balance(plan).allocation
    sweep = alpha_sweep(plan, allocation, deviations, grid)
    sys.stdout.write(emit_plot_data(sweep))
    return 0


def cmd_simulate(args) -> int:
    from .simulator import SimConfig, _tolerance, simulate, verify_against_static
    plan = _plan_from_args(args)
    # checked before the run, so a bad --tol costs no simulation
    tolerance = _number("--tol", args.tol, _tolerance) if args.verify else None
    allocation = greedy_balance(plan).allocation
    config = SimConfig(
        horizon_s=_number("--hours", args.hours) * SECONDS_PER_HOUR,
        warmup_s=_number("--warmup", args.warmup) * SECONDS_PER_HOUR,
        service_model=args.service,
        seed=args.seed,
        queue_capacity=args.queue_cap,
    )
    result = simulate(plan, allocation, config)
    sys.stdout.write(emit_report(result, "table"))
    if args.verify:
        verdict = verify_against_static(result, plan, allocation, tolerance)
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
    p.add_argument("--tol", default="0.02", help="relative tolerance for --verify")
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
