"""Station allocation solvers.

Three routes to an allocation:

* greedy_balance   - repeatedly split the current bottleneck task; the shop
                     floor procedure, provably optimal for this min-max form.
* optimal_balance  - parametric search over candidate cycle times; exact.
* exhaustive_balance - brute-force enumeration for small instances; the
                     oracle the other two are tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

from .errors import DomainError, InstanceTooLargeError
from .model import (
    Allocation,
    ProcessPlan,
    as_fraction,
    effective_cycle_time,
    line_cycle_time,
)

Method = Literal["greedy", "optimal", "exhaustive"]

EXHAUSTIVE_MAX_TASKS = 10
EXHAUSTIVE_MAX_SEATS = 16


@dataclass(frozen=True)
class BalanceResult:
    """An allocation plus how it was reached.

    iterations records each station added beyond the initial one-per-task
    layout, as (task id, line cycle time after the split).
    """

    method: Method
    plan: ProcessPlan
    allocation: Allocation
    line_cycle_time: Fraction
    iterations: tuple[tuple[int, Fraction], ...] = ()

    @property
    def total_stations(self) -> int:
        return self.allocation.total


def _bottleneck_id(plan: ProcessPlan, stations: dict[int, int]) -> int:
    """Task with the maximum effective cycle time; ties go to the lowest id."""
    best_id = None
    best_ct = None
    for t in plan.tasks:
        ct = effective_cycle_time(t.cycle_time, stations[t.id])
        if best_ct is None or ct > best_ct or (ct == best_ct and t.id < best_id):
            best_id, best_ct = t.id, ct
    return best_id


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

    stations = {t.id: 1 for t in plan.tasks}
    iterations: list[tuple[int, Fraction]] = []
    while sum(stations.values()) < plan.seat_budget:
        allocation = Allocation(stations)
        if target_ct is not None and line_cycle_time(plan, allocation) <= target_ct:
            break
        split = _bottleneck_id(plan, stations)
        stations[split] += 1
        iterations.append((split, line_cycle_time(plan, Allocation(stations))))

    allocation = Allocation(stations)
    return BalanceResult(
        plan=plan,
        allocation=allocation,
        line_cycle_time=line_cycle_time(plan, allocation),
        method="greedy",
        iterations=tuple(iterations),
    )


def _seats_needed(plan: ProcessPlan, ct: Fraction) -> int:
    return sum(math.ceil(t.cycle_time / ct) for t in plan.tasks)


def optimal_balance(plan: ProcessPlan) -> BalanceResult:
    """Minimal achievable line cycle time under the seat budget.

    The optimum is always of the form t_i / k, so it suffices to test the
    finite candidate set {t_i / k : k = 1..budget}. Feasibility of a candidate
    CT is sum(ceil(t_i / CT)) <= budget, monotone in CT, so a binary search
    over the sorted candidates finds the smallest feasible one. Leftover
    seats are then spent on the current bottleneck so the reported total
    matches the budget.
    """
    budget = plan.seat_budget
    candidates = sorted({t.cycle_time / k for t in plan.tasks for k in range(1, budget + 1)})

    lo, hi = 0, len(candidates) - 1
    # the largest candidate (max t_i, all s_i = 1) is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if _seats_needed(plan, candidates[mid]) <= budget:
            hi = mid
        else:
            lo = mid + 1
    best_ct = candidates[lo]

    stations = {t.id: math.ceil(t.cycle_time / best_ct) for t in plan.tasks}
    iterations: list[tuple[int, Fraction]] = []
    while sum(stations.values()) < budget:
        split = _bottleneck_id(plan, stations)
        stations[split] += 1
        iterations.append((split, line_cycle_time(plan, Allocation(stations))))

    allocation = Allocation(stations)
    return BalanceResult(
        plan=plan,
        allocation=allocation,
        line_cycle_time=line_cycle_time(plan, allocation),
        method="optimal",
        iterations=tuple(iterations),
    )


def _vectors(extra: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ways to hand out up to `extra` additional seats across `slots` tasks."""
    if slots == 0:
        yield ()
        return
    for first in range(extra + 1):
        for rest in _vectors(extra - first, slots - 1):
            yield (first, *rest)


def exhaustive_balance(plan: ProcessPlan) -> BalanceResult:
    """Brute-force oracle: try every allocation with total stations within the
    budget and return the best one.

    Ties on line cycle time break toward fewer total stations, then toward
    the lexicographically smallest station vector in plan order. Refuses
    instances above 10 tasks or 16 seats.
    """
    n = len(plan.tasks)
    if n > EXHAUSTIVE_MAX_TASKS or plan.seat_budget > EXHAUSTIVE_MAX_SEATS:
        raise InstanceTooLargeError(
            f"exhaustive enumeration is limited to {EXHAUSTIVE_MAX_TASKS} tasks "
            f"and {EXHAUSTIVE_MAX_SEATS} seats; got {n} tasks, budget {plan.seat_budget}"
        )

    best_key = None
    best_vector = None
    for extras in _vectors(plan.seat_budget - n, n):
        vector = tuple(1 + e for e in extras)
        ct = max(
            effective_cycle_time(t.cycle_time, s) for t, s in zip(plan.tasks, vector)
        )
        key = (ct, sum(vector), vector)
        if best_key is None or key < best_key:
            best_key, best_vector = key, vector

    stations = {t.id: s for t, s in zip(plan.tasks, best_vector)}
    allocation = Allocation(stations)
    return BalanceResult(
        plan=plan,
        allocation=allocation,
        line_cycle_time=best_key[0],
        method="exhaustive",
        iterations=(),
    )
