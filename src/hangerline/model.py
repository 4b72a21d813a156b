"""Domain types and the static arithmetic of a one-piece-flow sewing line.

All quantities are kept as exact rationals (`fractions.Fraction`) so that
cycle times like 110/3 never pick up binary rounding error; rounding happens
only when a value is formatted for display.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, InfeasibleError

SECONDS_PER_HOUR = 3600


def as_fraction(value) -> Fraction:
    """Coerce ints, strings, Decimals, floats and Fractions to an exact Fraction.

    Strings must be plain decimal literals ("36.7"); floats are taken at their
    shortest decimal representation, which is what a user typing 36.7 means.
    """
    if isinstance(value, bool):
        raise DomainError(f"expected a number, got {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    try:
        if isinstance(value, Decimal):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(Decimal(repr(value)))
        if isinstance(value, str):
            return Fraction(Decimal(value.strip()))
    except InvalidOperation:
        raise DomainError(f"not a decimal number: {value!r}") from None
    except (ValueError, OverflowError):  # NaN and the infinities
        raise DomainError(f"not a finite number: {value!r}") from None
    raise DomainError(f"cannot interpret {value!r} as a number")


@dataclass(frozen=True)
class Task:
    """One sewing operation.

    cycle_time is the seconds one station needs per piece. dev_plus/dev_minus
    are optional upward/downward deviations of the task's effective cycle
    time, in seconds, used by the robustness analysis and the stochastic
    service model.
    """

    id: int
    description: str
    cycle_time: Fraction
    dev_plus: Fraction = Fraction(0)
    dev_minus: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.id, int) or isinstance(self.id, bool) or self.id <= 0:
            raise DomainError(f"task id must be a positive integer, got {self.id!r}")
        object.__setattr__(self, "cycle_time", as_fraction(self.cycle_time))
        object.__setattr__(self, "dev_plus", as_fraction(self.dev_plus))
        object.__setattr__(self, "dev_minus", as_fraction(self.dev_minus))
        if self.cycle_time <= 0:
            raise DomainError(f"task {self.id}: cycle_time must be > 0")
        if self.dev_plus < 0 or self.dev_minus < 0:
            raise DomainError(f"task {self.id}: deviations must be >= 0")
        if self.dev_minus >= self.cycle_time:
            raise DomainError(
                f"task {self.id}: dev_minus must stay below cycle_time so the "
                "lower-bounded effective time remains positive"
            )


@dataclass(frozen=True)
class ProcessPlan:
    """A balancing problem instance: the line's tasks, in processing order,
    plus the seat budget and the reporting period."""

    tasks: tuple[Task, ...]
    seat_budget: int
    period: Fraction = Fraction(SECONDS_PER_HOUR)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "period", as_fraction(self.period))
        if type(self.seat_budget) is not int or self.seat_budget <= 0:
            raise DomainError(f"seat_budget must be a positive integer, got {self.seat_budget!r}")
        if self.period <= 0:
            raise DomainError("period must be > 0")
        if not self.tasks:
            raise DomainError("a plan needs at least one task")
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DomainError(f"duplicate task ids: {dupes}")
        if self.seat_budget < len(self.tasks):
            raise InfeasibleError(
                f"seat budget {self.seat_budget} cannot cover {len(self.tasks)} tasks "
                "(every task needs at least one station)"
            )

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self.tasks)

    def task(self, task_id: int) -> Task:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise DomainError(f"plan has no task {task_id}")


@dataclass(frozen=True)
class Allocation:
    """Per-task parallel workstation counts, keyed by task id."""

    stations: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "stations", dict(self.stations))
        for task_id, count in self.stations.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise DomainError(
                    f"task {task_id}: station count must be an integer >= 1, got {count!r} "
                    "(fractional staffing is not allowed)"
                )

    @property
    def total(self) -> int:
        return sum(self.stations.values())

    def count(self, task_id: int) -> int:
        try:
            return self.stations[task_id]
        except KeyError:
            raise DomainError(f"allocation has no entry for task {task_id}") from None

    @classmethod
    def ones(cls, plan: ProcessPlan) -> "Allocation":
        """The unbalanced line: one station per task."""
        return cls({t.id: 1 for t in plan.tasks})


@dataclass(frozen=True)
class LineStats:
    """Static summary of a plan under a given allocation."""

    line_cycle_time: Fraction
    throughput: Fraction  # pieces per plan.period
    work_content: Fraction
    parallel_lower_bound: Fraction
    classic_lower_bound: Fraction
    bottlenecks: tuple[int, ...] = field(default=())


def effective_cycle_time(t, s: int) -> Fraction:
    """Seconds per piece of a task duplicated across s parallel stations: t / s."""
    t = as_fraction(t)
    if t <= 0:
        raise DomainError(f"cycle time must be > 0, got {t}")
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise DomainError(f"station count must be an integer >= 1, got {s!r}")
    return t / s


def _require_coverage(plan: ProcessPlan, allocation: Allocation) -> None:
    missing = [t.id for t in plan.tasks if t.id not in allocation.stations]
    if missing:
        raise DomainError(f"allocation missing tasks: {missing}")


def line_cycle_time(plan: ProcessPlan, allocation: Allocation) -> Fraction:
    """The line's pace: the maximum effective cycle time over all tasks."""
    _require_coverage(plan, allocation)
    return max(effective_cycle_time(t.cycle_time, allocation.count(t.id)) for t in plan.tasks)


def bottleneck_tasks(plan: ProcessPlan, allocation: Allocation) -> tuple[int, ...]:
    """Ids of the tasks whose effective cycle time equals the line cycle time."""
    ct = line_cycle_time(plan, allocation)
    return tuple(
        t.id
        for t in plan.tasks
        if effective_cycle_time(t.cycle_time, allocation.count(t.id)) == ct
    )


def throughput(ct, period=SECONDS_PER_HOUR) -> Fraction:
    """Pieces per period at a given line cycle time, unrounded."""
    ct = as_fraction(ct)
    period = as_fraction(period)
    if ct <= 0:
        raise DomainError(f"cycle time must be > 0, got {ct}")
    if period <= 0:
        raise DomainError(f"period must be > 0, got {period}")
    return period / ct


def work_content(plan: ProcessPlan) -> Fraction:
    """Total seconds of work in one piece: the sum of all task times."""
    return sum((t.cycle_time for t in plan.tasks), Fraction(0))


def classic_lower_bound(plan: ProcessPlan, stations: int) -> Fraction:
    """Cycle-time lower bound for lines where tasks may NOT be duplicated:
    max(mean station load, largest single task time).

    Caveat: duplicating a task across parallel stations beats the max-task
    term, so a balanced line with duplication may legitimately run below
    this bound. Use parallel_lower_bound for the duplication model.
    """
    if not isinstance(stations, int) or stations < 1:
        raise DomainError(f"station count must be an integer >= 1, got {stations!r}")
    mean_load = work_content(plan) / stations
    longest = max(t.cycle_time for t in plan.tasks)
    return max(mean_load, longest)


def parallel_lower_bound(plan: ProcessPlan, stations: int) -> Fraction:
    """Cycle-time lower bound when tasks may be duplicated: total work content
    spread perfectly over all stations."""
    if not isinstance(stations, int) or stations < len(plan.tasks):
        raise DomainError(
            f"need at least one station per task ({len(plan.tasks)}), got {stations!r}"
        )
    return work_content(plan) / stations


def line_stats(plan: ProcessPlan, allocation: Allocation) -> LineStats:
    """Bundle the static figures for a plan under an allocation."""
    _require_coverage(plan, allocation)
    total = sum(allocation.count(t.id) for t in plan.tasks)
    ct = line_cycle_time(plan, allocation)
    return LineStats(
        line_cycle_time=ct,
        throughput=throughput(ct, plan.period),
        work_content=work_content(plan),
        parallel_lower_bound=parallel_lower_bound(plan, total),
        classic_lower_bound=classic_lower_bound(plan, total),
        bottlenecks=bottleneck_tasks(plan, allocation),
    )
