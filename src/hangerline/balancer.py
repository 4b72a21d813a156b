"""Station allocation solvers.

Two routes to an allocation, on one heap loop:

* greedy_balance   - repeatedly split the current bottleneck task; the shop
                     floor procedure, provably optimal for this min-max form
                     (Ibaraki & Katoh, Resource Allocation Problems, 1988).
* optimal_balance  - the same loop, started from a proximity lower bound on
                     the optimal station counts (Hochbaum, Math. of OR 19(2),
                     1994); exact.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal

from .errors import DomainError
from .io import _REPORTS, _Kind, _render_columns, format_number, format_seconds
from .model import (
    Allocation,
    ProcessPlan,
    _effective_times,
    _require_staffable,
    as_fraction,
    line_cycle_time,
    throughput,
    work_content,
)

Method = Literal["greedy", "optimal"]


@dataclass(frozen=True)
class BalanceResult:
    """An allocation plus how it was reached.

    iterations records stations added by bottleneck splitting, as (task id,
    line cycle time after the split). For greedy that is every station beyond
    one per task; for optimal, only the stations added after the optimal line
    cycle time is first reached.
    """

    method: Method
    plan: ProcessPlan
    allocation: Allocation
    line_cycle_time: Fraction
    iterations: tuple[tuple[int, Fraction], ...] = ()

    @property
    def total_stations(self) -> int:
        return self.allocation.total


def _key(n: int, d: int, task_id: int) -> tuple[float, Fraction, int]:
    """Max-heap key (-n/d as a float, -n/d exact, id) of effective time n/d.

    Int true division rounds correctly, so the float lead is monotone in the
    exact time: it decides almost every compare, equal leads fall through to
    the Fraction, and the order is exactly (-t_i/s_i, id). A lead past the
    largest float is inf; underflow to 0.0 is monotone already.
    """
    try:
        lead = n / d
    except OverflowError:
        lead = float("inf")
    return -lead, Fraction(-n, d), task_id


def _add_seats(
    plan: ProcessPlan, allocation: Allocation, target_ct=None
) -> list[tuple[int, Fraction]]:
    """Add one station at a time to the bottleneck, in place in the allocation
    (validated once: its counts only grow by one from ints >= 1), until the
    seat budget is spent or the line cycle time is at most target_ct.

    A max-heap of _key(t_i, s_i) holds the bottleneck on top, lowest id on
    ties. Returns (task id, line cycle time after the split) per station.
    """
    stations = allocation.stations
    ratios = {task_id: (n, d) for task_id, n, d in plan._ratios}
    heap = [_key(n, d * stations[i], i) for i, n, d in plan._ratios]
    heapq.heapify(heap)
    seats = sum(stations.values())
    iterations: list[tuple[int, Fraction]] = []
    while seats < plan.seat_budget and (target_ct is None or -heap[0][1] > target_ct):
        split = heap[0][2]
        stations[split] += 1
        seats += 1
        n, d = ratios[split]
        heapq.heapreplace(heap, _key(n, d * stations[split], split))
        iterations.append((split, line_cycle_time(plan, allocation)))
    return iterations


def _result(method: Method, plan: ProcessPlan, stations: dict[int, int], iterations) -> BalanceResult:
    allocation = Allocation(stations)
    return BalanceResult(
        plan=plan,
        allocation=allocation,
        line_cycle_time=line_cycle_time(plan, allocation),
        method=method,
        iterations=tuple(iterations),
    )


def greedy_balance(plan: ProcessPlan, target_ct=None) -> BalanceResult:
    """Bottleneck-splitting iteration.

    Start with one station per task, then keep adding a station to the task
    with the highest effective cycle time (lowest id on ties). Stop when the
    seat budget is spent, or as soon as the line cycle time reaches target_ct
    when a target is given.
    """
    if target_ct is not None:
        target_ct = as_fraction(target_ct)
        if target_ct <= 0:
            raise DomainError(f"target_ct must be > 0, got {target_ct}")

    allocation = Allocation.ones(plan)
    return _result("greedy", plan, allocation.stations, _add_seats(plan, allocation, target_ct))


def optimal_balance(plan: ProcessPlan) -> BalanceResult:
    """Minimal achievable line cycle time under the seat budget.

    Greedy splitting is optimal for this min-max allocation, so this is the
    greedy loop started from a lower bound on the optimal station counts,
    s_i = max(1, floor(t_i * (B - n) / W)) for budget B, n tasks and work
    content W. Giving every task 1 + floor(t_i * (B - n) / W) stations fits
    the budget and runs below W / (B - n), so the optimum CT* does too, and
    ceil(t_i / CT*) > t_i * (B - n) / W. From that bound the loop reaches the
    counts ceil(t_i / CT*) exactly, then spends the leftover seats on the
    bottleneck so the reported total matches the budget. iterations lists
    only those leftover seats.
    """
    spare = plan.seat_budget - len(plan.tasks)
    work = work_content(plan)
    allocation = Allocation({t.id: max(1, t.cycle_time * spare // work) for t in plan.tasks})
    start_ct = line_cycle_time(plan, allocation)
    iterations = _add_seats(plan, allocation)
    cts = [start_ct, *(ct for _, ct in iterations)]
    return _result("optimal", plan, allocation.stations, iterations[cts.index(cts[-1]):])


# ----------------------- balance report: table and rebuild, registered with io

def _balance_table(result: BalanceResult) -> str:
    times = _effective_times(result.plan, result.allocation)
    seats = result.allocation.stations
    rows = [
        (str(t.id), t.description, format_seconds(t.cycle_time), str(seats[t.id]), format_seconds(ct))
        for t, ct in zip(result.plan.tasks, times.values())
    ]
    table = _render_columns(("task", "description", "cycle_time_sec", "stations", "effective_ct_sec"), rows)
    totals = (
        f"total: {result.total_stations} seats; line cycle time "
        f"{format_seconds(result.line_cycle_time)} sec/pc (output pace); "
        f"{format_number(throughput(result.line_cycle_time, result.plan.period))} pc "
        f"per {format_number(result.plan.period)} s; method {result.method}"
    )
    return f"{table}\n{totals}\n"


def _rebuild_balance(r: BalanceResult) -> BalanceResult:
    """A balance document is a rerun of the solver it names: optimal_balance on
    its plan, or greedy_balance at its allocation's seat total, since a greedy
    run that a target CT stops after k splits is the run with k seats beyond
    one per task. A greedy document must first fit its plan and budget and list
    one split per station beyond the first, which bounds the rerun by its size."""
    if r.method == "optimal":
        return optimal_balance(r.plan)
    _require_staffable(r.plan, r.allocation)
    spare = r.allocation.total - len(r.plan.tasks)
    if len(r.iterations) != spare:
        raise ValueError(f"iterations: {len(r.iterations)} splits listed for {spare} stations beyond one per task")
    return replace(greedy_balance(replace(r.plan, seat_budget=r.allocation.total)), plan=r.plan)


_REPORTS[BalanceResult] = _Kind("balance", _balance_table, _rebuild_balance, lambda r: {
    "total_stations": r.total_stations,
    "throughput_per_period": str(throughput(r.line_cycle_time, r.plan.period)),
})
