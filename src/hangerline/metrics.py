"""Workforce productivity metrics: UPPH, improvement, utilization.

Everything is computed at full precision. Shop reports habitually quote UPPH
truncated to two decimals, and improvement percentages recomputed from those
printed figures differ from the full-precision value; compare() returns both
views side by side so neither number looks like a typo.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .io import _REPORTS, _Kind, format_number, format_percent, format_seconds, format_upph
from .model import Allocation, ProcessPlan, _require_staffable, as_fraction, line_cycle_time, throughput


def truncate_decimals(value, places: int = 2) -> Fraction:
    """Cut a nonnegative value to `places` decimals without rounding.

    This is how the printed figures in shop paperwork are produced
    (30/19 = 1.5789... appears as 1.57, not 1.58).
    """
    value = as_fraction(value)
    if value < 0:
        raise DomainError(f"truncation is defined for nonnegative values, got {value}")
    if places < 0:
        raise DomainError(f"places must be >= 0, got {places}")
    scale = 10**places
    return Fraction(value.numerator * scale // value.denominator, scale)


def upph(output_per_hour, workers: int) -> Fraction:
    """Units per person-hour: hourly output divided by headcount."""
    output_per_hour = as_fraction(output_per_hour)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    if output_per_hour < 0:
        raise DomainError(f"output must be >= 0, got {output_per_hour}")
    return output_per_hour / workers


def eff_improvement(upph_new, upph_base) -> Fraction:
    """Relative UPPH gain: (new - base) / base."""
    upph_new = as_fraction(upph_new)
    upph_base = as_fraction(upph_base)
    if upph_base <= 0:
        raise DomainError(f"baseline UPPH must be > 0, got {upph_base}")
    return (upph_new - upph_base) / upph_base


def _prints_as_zero(upph_base) -> bool:
    """Whether a baseline UPPH truncates to 0.00, leaving the printed figures
    no ratio to recompute a gain from."""
    return truncate_decimals(upph_base, 2) == 0


def _improvement_rule(upph_base: Fraction):
    """The UPPH gains over a positive baseline, as a function of the new UPPH's
    integer pair (new_n, new_d): the exact gain, and the gain recomputed from
    both figures truncated to two decimals (the exact one again when the
    baseline prints as 0.00). The baseline's cut is taken once, here."""
    base_n, base_d = upph_base.as_integer_ratio()
    cut = 100 * base_n // base_d  # the baseline cut to two decimals, times 100

    def gains(new_n: int, new_d: int) -> tuple[Fraction, Fraction]:
        exact = Fraction(new_n * base_d - base_n * new_d, base_n * new_d)
        return exact, Fraction(100 * new_n // new_d - cut, cut) if cut else exact

    return gains


@dataclass(frozen=True)
class ProductivityReport:
    """Productivity snapshot of one allocation.

    Workers equals total stations (one operator per seat). Utilization is
    effective cycle time over line cycle time per task; the bottleneck sits
    at exactly 1.
    """

    line_cycle_time: Fraction
    output_per_hour: Fraction
    workers: int
    upph: Fraction
    utilization: dict[int, Fraction]
    idle_fraction: dict[int, Fraction]


@dataclass(frozen=True)
class Comparison:
    """Before/after productivity pair.

    improvement is the full-precision UPPH gain. improvement_displayed
    recomputes the gain from both UPPH values truncated to two decimals
    first, matching what a reader of the printed report would calculate.
    output_ratio is the plain throughput multiple, kept separate so a 3x
    output jump is not conflated with the (smaller) UPPH improvement.
    """

    before: ProductivityReport
    after: ProductivityReport
    improvement: Fraction
    improvement_displayed: Fraction
    output_ratio: Fraction


def productivity_report(plan: ProcessPlan, allocation: Allocation) -> ProductivityReport:
    """Compute throughput, UPPH and per-task utilization for an allocation.

    Output is per plan.period (an hour by default). With t_i/s_i as the pair
    n/(d*s_i) and the line CT as c_n/c_d, utilization is one Fraction(n*c_d, d*s_i*c_n).
    """
    ct = line_cycle_time(plan, allocation)
    ct_n, ct_d = ct.as_integer_ratio()
    stations = allocation.stations
    utilization = {task_id: Fraction(n * ct_d, d * stations[task_id] * ct_n) for task_id, n, d in plan._ratios}
    return _productivity(ct, throughput(ct, plan.period), allocation.total, utilization)


def _productivity(ct: Fraction, output: Fraction, workers: int, utilization: dict) -> ProductivityReport:
    """The report of a line's figures: its UPPH, and each idle share 1 - u as
    one Fraction from u's integer pair."""
    idle = {}
    for task_id, u in utilization.items():
        n, d = u.as_integer_ratio()
        idle[task_id] = Fraction(d - n, d)
    return ProductivityReport(ct, output, workers, upph(output, workers), utilization, idle)


def _comparison(before: ProductivityReport, after: ProductivityReport) -> Comparison:
    """The pair with the improvements and output ratio its two sides give."""
    ratio = after.output_per_hour / before.output_per_hour
    gains = _improvement_rule(before.upph)(*after.upph.as_integer_ratio())
    return Comparison(before, after, *gains, ratio)


def compare(
    plan: ProcessPlan,
    baseline_allocation: Allocation,
    new_allocation: Allocation,
) -> Comparison:
    """Before/after report pair with both improvement views. Both allocations
    must fit the plan's seat budget."""
    _require_staffable(plan, baseline_allocation)
    _require_staffable(plan, new_allocation)
    before, after = productivity_report(plan, baseline_allocation), productivity_report(plan, new_allocation)
    return _comparison(before, after)


# --- productivity and comparison reports: table and rebuild, registered with io

def _productivity_line(label: str, r: ProductivityReport) -> str:
    return (
        f"{label}: {format_number(r.output_per_hour)} pc/hr with {r.workers} workers; "
        f"line CT {format_seconds(r.line_cycle_time)} sec/pc; "
        f"UPPH {format_upph(r.upph)} ({format_number(r.upph)} exact)\n"
    )


def _comparison_table(c: Comparison) -> str:
    source = (
        "exact again, since the two-decimal printed figures start from zero"
        if _prints_as_zero(c.before.upph)
        else "from the two-decimal printed figures"
    )
    return (
        _productivity_line("before", c.before)
        + _productivity_line("after", c.after)
        + f"UPPH improvement: {format_percent(c.improvement)} at full precision; "
        f"{format_percent(c.improvement_displayed)} {source} "
        f"({format_upph(c.before.upph)} -> {format_upph(c.after.upph)})\n"
        f"output ratio: {format_number(c.output_ratio)}x\n"
    )


def _rebuild_productivity(r: ProductivityReport) -> ProductivityReport:
    """The report its stored figures give (no period is stored, so the line
    cycle time, output and workers are taken as given, the cycle time if
    positive); each utilization must be a share in (0, 1], the bottleneck's
    exactly 1. The decoded report's figures become exact first, in place, so a
    JSON number reads as its decimal (as a Task's does) on both sides of the
    comparison with the document."""
    for name in ("line_cycle_time", "output_per_hour", "upph"):
        object.__setattr__(r, name, as_fraction(getattr(r, name)))
    for name in ("utilization", "idle_fraction"):
        object.__setattr__(r, name, {k: as_fraction(v) for k, v in getattr(r, name).items()})
    if r.line_cycle_time <= 0:
        raise ValueError(f"line_cycle_time must be > 0, got {r.line_cycle_time}")
    shares = r.utilization.values()
    if not shares or max(shares) != 1 or min(shares) <= 0:
        raise ValueError("utilization must give each task a share in (0, 1], the largest exactly 1")
    return _productivity(r.line_cycle_time, r.output_per_hour, r.workers, r.utilization)


def _rebuild_comparison(c: Comparison) -> Comparison:
    return _comparison(_rebuild_productivity(c.before), _rebuild_productivity(c.after))


_REPORTS[ProductivityReport] = _Kind("productivity", lambda r: _productivity_line("line", r), _rebuild_productivity)
_REPORTS[Comparison] = _Kind("comparison", _comparison_table, _rebuild_comparison)
