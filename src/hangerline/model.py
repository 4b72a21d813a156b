"""Domain types and the static arithmetic of a one-piece-flow sewing line.

All quantities are kept as exact rationals (`fractions.Fraction`) so that
cycle times like 110/3 never pick up binary rounding error; rounding happens
only when a value is formatted for display.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, InfeasibleError

SECONDS_PER_HOUR = 3600
# Decimal inputs must have |exponent| and |adjusted exponent| at most this, so
# "1e999999999" is rejected instead of expanded into a billion-digit integer;
# it also bounds the decimal denominators the simulator's tick clock must hold.
MAX_DECIMAL_EXPONENT = 100


def as_fraction(value) -> Fraction:
    """Coerce ints, strings, Decimals, floats and Fractions to an exact Fraction.

    Strings must be plain decimal literals ("36.7"); floats are taken at their
    shortest decimal representation, which is what a user typing 36.7 means.
    Decimals, strings and floats must keep their exponent within
    +/-MAX_DECIMAL_EXPONENT (1e100 and 1e-100 pass, 1e101 does not). A
    Fraction is returned as it is. An unsigned ASCII "digits[.digits]" string of
    at most MAX_DECIMAL_EXPONENT digits is read as digits / 10^k, with no Decimal.
    """
    if type(value) is Fraction:
        return value
    if type(value) is str:
        whole, dot, part = value.strip().partition(".")
        digits = whole + part
        if whole.isdigit() and (part.isdigit() or not dot) and digits.isascii() and len(digits) <= MAX_DECIMAL_EXPONENT:
            return Fraction(int(digits), 10 ** len(part))
    if isinstance(value, bool):
        raise DomainError(f"expected a number, got {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    try:
        if isinstance(value, float):
            number = Decimal(repr(value))
        elif isinstance(value, str):
            number = Decimal(value.strip())
        elif isinstance(value, Decimal):
            number = value
        else:
            raise DomainError(f"cannot interpret {value!r} as a number")
        if not number.is_finite():
            raise DomainError(f"not a finite number: {value!r}")
    except InvalidOperation:
        raise DomainError(f"not a decimal number: {value!r}") from None
    exponent = number.as_tuple().exponent
    if max(abs(exponent), abs(number.adjusted())) > MAX_DECIMAL_EXPONENT:
        raise DomainError(f"exponent of {value!r} is outside +/-{MAX_DECIMAL_EXPONENT}")
    return Fraction(number)


def _alpha(alpha) -> Fraction:
    """An uncertainty level as a Fraction, checked to lie in (0, 1]."""
    alpha = as_fraction(alpha)
    if not 0 < alpha.numerator <= alpha.denominator:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


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
        (ct_n, ct_d), (minus_n, minus_d) = self.cycle_time.as_integer_ratio(), self.dev_minus.as_integer_ratio()
        if ct_n <= 0:  # signs and the last test on integers: Fraction comparisons cost four times more
            raise DomainError(f"task {self.id}: cycle_time must be > 0")
        if self.dev_plus.numerator < 0 or minus_n < 0:
            raise DomainError(f"task {self.id}: deviations must be >= 0")
        if minus_n * ct_d >= ct_n * minus_d:
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
        # the id set, for _require_coverage, and (id, numerator, denominator) of each cycle time,
        # for line_cycle_time and the solvers; not fields, so eq, hash, repr and JSON miss them
        object.__setattr__(self, "_ids", frozenset(ids))
        object.__setattr__(self, "_ratios", tuple((t.id, *t.cycle_time.as_integer_ratio()) for t in self.tasks))

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self.tasks)


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


def _require_coverage(plan: ProcessPlan, entries: Allocation | dict) -> None:
    """Every plan task, and no other, has an entry: in an Allocation, or in a
    dict keyed by task id (a robust report's intervals)."""
    if isinstance(entries, Allocation):
        keys, what, verb = entries.stations, "allocation", "has"
    else:
        keys, what, verb = entries, "intervals", "have"
    if keys.keys() == plan._ids:  # one set compare; only a failure builds its lists
        return
    missing = [t.id for t in plan.tasks if t.id not in keys]
    if missing:
        raise DomainError(f"{what} missing tasks: {missing}")
    raise DomainError(f"{what} {verb} tasks the plan does not: {[i for i in keys if i not in plan._ids]}")


def _require_staffable(plan: ProcessPlan, allocation: Allocation) -> None:
    """Coverage plus the seat budget, for callers that run or report the
    allocation as a real line (static what-if figures may exceed the budget)."""
    _require_coverage(plan, allocation)
    if allocation.total > plan.seat_budget:
        raise DomainError(
            f"allocation uses {allocation.total} stations, above the seat budget {plan.seat_budget}"
        )


def _effective_times(plan: ProcessPlan, allocation: Allocation) -> dict[int, Fraction]:
    """Each task's effective cycle time t_i / s_i, keyed by id in plan order:
    one Fraction(n, d * s_i) from the task's integer pair n/d, the quotient
    that line_cycle_time compares by cross multiplication."""
    _require_coverage(plan, allocation)
    stations = allocation.stations
    return {task_id: Fraction(n, d * stations[task_id]) for task_id, n, d in plan._ratios}


def line_cycle_time(plan: ProcessPlan, allocation: Allocation) -> Fraction:
    """The line's pace: the maximum effective cycle time over all tasks.

    t_i / s_i is compared as the integer pair (numerator, denominator * s_i)
    by cross multiplication, which is exact and builds one Fraction in all.
    """
    return Fraction(*_line_ct_pair(plan, allocation))


def _line_ct_pair(plan: ProcessPlan, allocation: Allocation) -> tuple[int, int]:
    """The line cycle time as the integer pair (n, d * s_i) of its bottleneck."""
    _require_coverage(plan, allocation)
    stations = allocation.stations
    top_n, top_d = 0, 1
    for task_id, n, d in plan._ratios:
        d *= stations[task_id]
        if n * top_d > top_n * d:
            top_n, top_d = n, d
    return top_n, top_d


def bottleneck_tasks(plan: ProcessPlan, allocation: Allocation) -> tuple[int, ...]:
    """Ids of the tasks whose effective cycle time equals the line cycle time."""
    times = _effective_times(plan, allocation)
    ct = max(times.values())
    return tuple(task_id for task_id, time in times.items() if time == ct)


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


def parallel_lower_bound(plan: ProcessPlan, stations: int) -> Fraction:
    """Cycle-time lower bound when tasks may be duplicated: total work content
    spread perfectly over all stations."""
    if not isinstance(stations, int) or stations < len(plan.tasks):
        raise DomainError(
            f"need at least one station per task ({len(plan.tasks)}), got {stations!r}"
        )
    return work_content(plan) / stations
