"""Interval analysis of cycle-time uncertainty.

Each task's effective cycle time (after station allocation) is widened to
[nominal - alpha*d_minus, nominal + alpha*d_plus]. The line then has three
paces: regular (nominal), best (every task at its lower bound) and worst
(every task at its upper bound). Throughput bounds round outward to whole
pieces, which is the conservative reading of an hourly count.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import DomainError
from .metrics import _improvements, productivity_report, upph
from .model import Allocation, ProcessPlan, _effective_times, _require_coverage, as_fraction


@dataclass(frozen=True)
class CtInterval:
    """An uncertain cycle time: nominal value with scaled deviation bounds."""

    nominal: Fraction
    lo: Fraction
    hi: Fraction
    alpha: Fraction
    d_plus: Fraction
    d_minus: Fraction

    def __post_init__(self):
        for name in ("nominal", "lo", "hi", "alpha", "d_plus", "d_minus"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not self.lo <= self.nominal <= self.hi:
            raise DomainError(
                f"interval bounds out of order: lo={self.lo} nominal={self.nominal} hi={self.hi}"
            )
        if self.lo <= 0:
            raise DomainError(f"lower cycle-time bound must stay positive, got {self.lo}")


def _alpha(alpha) -> Fraction:
    """An uncertainty level as a Fraction, checked to lie in (0, 1]."""
    alpha = as_fraction(alpha)
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def ct_interval(nominal, d_plus, d_minus, alpha) -> CtInterval:
    """Widen a nominal cycle time by alpha-scaled deviations."""
    nominal = as_fraction(nominal)
    d_plus = as_fraction(d_plus)
    d_minus = as_fraction(d_minus)
    alpha = _alpha(alpha)
    if d_plus < 0 or d_minus < 0:
        raise DomainError("deviations must be >= 0")
    lo = nominal - alpha * d_minus
    if lo <= 0:
        raise DomainError(
            f"alpha*d_minus = {alpha * d_minus} swallows the nominal cycle time {nominal}"
        )
    return CtInterval(
        nominal=nominal,
        lo=lo,
        hi=nominal + alpha * d_plus,
        alpha=alpha,
        d_plus=d_plus,
        d_minus=d_minus,
    )


Deviations = dict[int, tuple[Fraction, Fraction]]


def effective_intervals(
    plan: ProcessPlan,
    allocation: Allocation,
    alpha=1,
    deviations: Deviations | None = None,
) -> dict[int, CtInterval]:
    """Per-task intervals on post-allocation effective cycle times.

    Deviations apply to the effective (split) cycle time, not the raw task
    time: a task duplicated across three stations still drifts by the same
    few seconds per piece at each station. The optional `deviations` map
    (task id -> (d_plus, d_minus)) overrides the deviations stored on the
    tasks themselves. An interval that cannot be formed names its task.
    """
    return _intervals(plan, _effective_times(plan, allocation), _alpha(alpha), deviations)


def _intervals(
    plan: ProcessPlan, times: dict[int, Fraction], alpha: Fraction, deviations: Deviations | None
) -> dict[int, CtInterval]:
    """effective_intervals on effective times already computed, at a checked
    alpha."""
    out: dict[int, CtInterval] = {}
    for t in plan.tasks:
        if deviations is not None:
            try:
                d_plus, d_minus = deviations[t.id]
            except KeyError:
                raise DomainError(f"no deviation entry for task {t.id}") from None
        else:
            d_plus, d_minus = t.dev_plus, t.dev_minus
        try:
            out[t.id] = ct_interval(times[t.id], d_plus, d_minus, alpha)
        except DomainError as exc:
            raise DomainError(f"task {t.id}: {exc}") from None
    return out


@dataclass(frozen=True)
class RobustReport:
    """Line-level consequences of the per-task intervals.

    Throughput bounds are whole pieces per period, rounded outward (floor at
    the worst pace, ceil at the best). UPPH bounds divide those integer
    counts by the allocation's total stations. eff_max/eff_min compare the
    UPPH bounds against the unbalanced one-station-per-task baseline; the
    *_displayed twins recompute from two-decimal truncated figures, the way
    the numbers land on printed reports.
    """

    plan: ProcessPlan
    allocation: Allocation
    intervals: dict[int, CtInterval]
    alpha: Fraction | None
    line_ct_regular: Fraction
    line_ct_best: Fraction
    line_ct_worst: Fraction
    throughput_regular: Fraction
    throughput_best: int
    throughput_worst: int
    upph_regular: Fraction
    upph_max: Fraction
    upph_min: Fraction
    eff_max: Fraction
    eff_min: Fraction
    eff_max_displayed: Fraction
    eff_min_displayed: Fraction


def robust_line_report(
    plan: ProcessPlan,
    allocation: Allocation,
    intervals: dict[int, CtInterval],
) -> RobustReport:
    """Aggregate per-task intervals into line cycle-time and UPPH bounds."""
    _require_coverage(plan, allocation)
    missing = [t.id for t in plan.tasks if t.id not in intervals]
    if missing:
        raise DomainError(f"intervals missing tasks: {missing}")
    return _line_report(plan, allocation, intervals, _baseline_upph(plan))


def _baseline_upph(plan: ProcessPlan) -> Fraction:
    """UPPH of the unbalanced one-station-per-task line."""
    return productivity_report(plan, Allocation.ones(plan)).upph


def _line_report(
    plan: ProcessPlan,
    allocation: Allocation,
    intervals: dict[int, CtInterval],
    baseline: Fraction,
) -> RobustReport:
    """robust_line_report on checked intervals, against a given baseline UPPH."""
    regular = max(intervals[t.id].nominal for t in plan.tasks)
    best = max(intervals[t.id].lo for t in plan.tasks)
    worst = max(intervals[t.id].hi for t in plan.tasks)

    workers = allocation.total
    throughput_regular = plan.period / regular
    throughput_worst = floor(plan.period / worst)
    throughput_best = ceil(plan.period / best)
    upph_regular = upph(throughput_regular, workers)
    upph_min = upph(Fraction(throughput_worst), workers)
    upph_max = upph(Fraction(throughput_best), workers)

    eff_max, eff_max_displayed = _improvements(upph_max, baseline)
    eff_min, eff_min_displayed = _improvements(upph_min, baseline)

    # equality, not a set: hashing a Fraction costs more than comparing two
    alpha = intervals[plan.tasks[0].id].alpha
    return RobustReport(
        plan=plan,
        allocation=allocation,
        intervals=dict(intervals),
        alpha=alpha if all(iv.alpha == alpha for iv in intervals.values()) else None,
        line_ct_regular=regular,
        line_ct_best=best,
        line_ct_worst=worst,
        throughput_regular=throughput_regular,
        throughput_best=throughput_best,
        throughput_worst=throughput_worst,
        upph_regular=upph_regular,
        upph_max=upph_max,
        upph_min=upph_min,
        eff_max=eff_max,
        eff_min=eff_min,
        eff_max_displayed=eff_max_displayed,
        eff_min_displayed=eff_min_displayed,
    )


def alpha_sweep(
    plan: ProcessPlan,
    allocation: Allocation,
    deviations: Deviations | None,
    alpha_grid,
) -> tuple[tuple[Fraction, RobustReport], ...]:
    """One RobustReport per alpha: the regular/best/worst overlay series.

    The regular series is constant; best falls and worst rises as alpha
    grows. `deviations` as in effective_intervals (None = task-stored).
    The effective times and the baseline UPPH do not depend on alpha, so they
    are computed once; errors come in grid order, as one effective_intervals
    call per alpha would raise them.
    """
    alphas = [as_fraction(a) for a in alpha_grid]
    if not alphas:
        raise DomainError("alpha grid is empty")
    times = _effective_times(plan, allocation)
    baseline = _baseline_upph(plan)
    return tuple(
        (a, _line_report(plan, allocation, _intervals(plan, times, _alpha(a), deviations), baseline))
        for a in alphas
    )
