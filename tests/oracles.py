"""Reference implementations the library is checked against (not collected).

exhaustive_balance is the brute-force balancing oracle: it enumerates every
allocation within the seat budget and computes each t_i / s_i itself, so it
shares no code with the heap loop of greedy_balance and optimal_balance.
"""
from fractions import Fraction
from typing import Iterator, NamedTuple

import hangerline as hl


class Best(NamedTuple):
    allocation: hl.Allocation
    line_cycle_time: Fraction


def _vectors(extra: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ways to hand out up to `extra` additional seats across `slots` tasks."""
    if slots == 0:
        yield ()
        return
    for first in range(extra + 1):
        for rest in _vectors(extra - first, slots - 1):
            yield (first, *rest)


def exhaustive_balance(plan: hl.ProcessPlan) -> Best:
    """Try every allocation with total stations within the budget and return
    the best one.

    Ties on line cycle time break toward fewer total stations, then toward
    the lexicographically smallest station vector in plan order. The work
    grows as C(budget, tasks): keep instances small.
    """
    n = len(plan.tasks)
    best_key = None
    best_vector = None
    for extras in _vectors(plan.seat_budget - n, n):
        vector = tuple(1 + e for e in extras)
        ct = max(t.cycle_time / s for t, s in zip(plan.tasks, vector))
        key = (ct, sum(vector), vector)
        if best_key is None or key < best_key:
            best_key, best_vector = key, vector

    stations = {t.id: s for t, s in zip(plan.tasks, best_vector)}
    return Best(hl.Allocation(stations), best_key[0])
