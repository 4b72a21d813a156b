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

from .errors import DomainError
from .io import _REPORTS, _Kind, _render_columns, format_number, format_percent, format_seconds, format_upph
from .metrics import _improvement_rule, _prints_as_zero, upph
from .model import Allocation, ProcessPlan, _alpha, _effective_times, _require_coverage, as_fraction


@dataclass(frozen=True)
class CtInterval:
    """An uncertain cycle time: lo = nominal - alpha*d_minus > 0 and hi =
    nominal + alpha*d_plus, with alpha in (0, 1] and d_plus, d_minus >= 0. A
    plain record: _row/_widen build every interval under that rule, and
    robust_line_report rebuilds through them any interval it is given."""

    nominal: Fraction
    lo: Fraction
    hi: Fraction
    alpha: Fraction
    d_plus: Fraction
    d_minus: Fraction


def ct_interval(nominal, d_plus, d_minus, alpha) -> CtInterval:
    """Widen a nominal cycle time by alpha-scaled deviations."""
    alpha = _alpha(alpha)
    return _widen([_row(None, as_fraction(nominal), d_plus, d_minus)], alpha)[0][None]


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
    times = _effective_times(plan, allocation)
    return _widen(_rows(plan, times, deviations, []), _alpha(alpha))[0]


def _row(task_id, nominal: Fraction, d_plus, d_minus) -> tuple:
    """One task's interval inputs. With nominal = a/b and d+- = c/e, the
    integers a*e, c*b and b*e of each side do not depend on alpha."""
    d_plus, d_minus = as_fraction(d_plus), as_fraction(d_minus)
    a, b = nominal.as_integer_ratio()
    cp, ep = d_plus.as_integer_ratio()
    cm, em = d_minus.as_integer_ratio()
    if cp < 0 or cm < 0:
        raise DomainError("deviations must be >= 0")
    return task_id, nominal, d_plus, d_minus, a * em, cm * b, b * em, a * ep, cp * b, b * ep


def _rows(plan: ProcessPlan, times: dict[int, Fraction], deviations: Deviations | None, into: list):
    """Each task's _row in plan order, also appended to `into` as it is
    yielded: read while the first alpha is widened, so errors keep plan order."""
    for t in plan.tasks:
        if deviations is not None:
            try:
                d_plus, d_minus = deviations[t.id]
            except KeyError:
                raise DomainError(f"no deviation entry for task {t.id}") from None
        else:
            d_plus, d_minus = t.dev_plus, t.dev_minus
        try:
            row = _row(t.id, times[t.id], d_plus, d_minus)
        except DomainError as exc:
            raise DomainError(f"task {t.id}: {exc}") from None
        into.append(row)
        yield row


def _widen(rows, alpha: Fraction) -> tuple[dict, Fraction, Fraction]:
    """The deviation-interval rule at one alpha = p/q: each task's interval,
    lo = (a*e*q - p*c*b) / (b*e*q) and hi alike, and the line's best and worst
    paces by cross multiplication. Tasks share no common denominator, which
    coprime ones would grow without bound. A band must keep lo > 0."""
    p, q = alpha.as_integer_ratio()
    out = {}
    best_n, best_d, worst_n, worst_d = 0, 1, 0, 1
    for task_id, nominal, d_plus, d_minus, ae_m, cb_m, be_m, ae_p, cb_p, be_p in rows:
        lo_n, lo_d = ae_m * q - p * cb_m, be_m * q
        hi_n, hi_d = ae_p * q + p * cb_p, be_p * q
        if lo_n <= 0:
            swallowed = f"alpha*d_minus = {alpha * d_minus} swallows the nominal cycle time {nominal}"
            raise DomainError(f"task {task_id}: {swallowed}" if task_id else swallowed)
        out[task_id] = CtInterval(nominal, Fraction(lo_n, lo_d), Fraction(hi_n, hi_d), alpha, d_plus, d_minus)
        if lo_n * best_d > best_n * lo_d:
            best_n, best_d = lo_n, lo_d
        if hi_n * worst_d > worst_n * hi_d:
            worst_n, worst_d = hi_n, hi_d
    return out, Fraction(best_n, best_d), Fraction(worst_n, worst_d)


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
    """Aggregate per-task intervals into line cycle-time and UPPH bounds. Each
    interval is rebuilt under the deviation-interval rule, and rejected unless
    it matches the rebuilt band and its nominal is t_i/s_i; the report keeps the
    rebuilt intervals. An error names the first failing task in plan order."""
    times = _effective_times(plan, allocation)
    _require_coverage(plan, intervals)
    try:
        rebuilt = _rebuilt(plan.tasks, times, intervals)
    except Exception:
        for t in plan.tasks:  # one task at a time, so that the first failing one raises
            _rebuilt((t,), times, intervals)
        raise
    return _reports(plan, allocation, max(times.values()))(*rebuilt)


def _rebuilt(tasks, times: dict, intervals: dict) -> tuple:
    """The given intervals of `tasks` checked and rebuilt, one _widen per distinct alpha:
    (their alpha, or None where they differ, the intervals, the best and the worst pace)."""
    groups: dict = {}  # alpha -> its tasks' rows
    for t in tasks:
        given = intervals[t.id]
        try:
            alpha = _alpha(given.alpha)
            groups.setdefault(alpha, []).append(_row(t.id, as_fraction(given.nominal), given.d_plus, given.d_minus))
        except DomainError as exc:
            raise DomainError(f"task {t.id}: {exc}") from None
    parts = [_widen(rows, alpha) for alpha, rows in groups.items()]
    widened = {task_id: iv for ivs, _, _ in parts for task_id, iv in ivs.items()}
    out = {}
    for t in tasks:
        given, iv = intervals[t.id], widened[t.id]
        try:
            lo, hi = as_fraction(given.lo), as_fraction(given.hi)
            if lo != iv.lo or hi != iv.hi:
                raise DomainError(f"interval [{lo}, {hi}] is not {iv.nominal} -/+ alpha*deviations")
            if iv.nominal != times[t.id]:
                raise DomainError(f"nominal {iv.nominal} is not the effective cycle time {times[t.id]}")
        except DomainError as exc:
            raise DomainError(f"task {t.id}: {exc}") from None
        out[t.id] = iv
    alpha = next(iter(groups)) if len(groups) == 1 else None
    return alpha, out, max(best for _, best, _ in parts), max(worst for _, _, worst in parts)


def _baseline_upph(plan: ProcessPlan) -> Fraction:
    """UPPH of the unbalanced one-station-per-task line: the period over the
    longest task time, per worker."""
    return plan.period / max(t.cycle_time for t in plan.tasks) / len(plan.tasks)


def _reports(plan: ProcessPlan, allocation: Allocation, regular: Fraction):
    """RobustReports of one line at a regular pace: the fields that do not
    depend on alpha are computed once, here, and the others from integer
    pairs, one Fraction per figure."""
    workers = allocation.total
    throughput_regular = plan.period / regular
    upph_regular = upph(throughput_regular, workers)
    p, q = plan.period.as_integer_ratio()
    gains = _improvement_rule(_baseline_upph(plan))

    def report(alpha, intervals: dict, best: Fraction, worst: Fraction) -> RobustReport:
        (best_n, best_d), (worst_n, worst_d) = best.as_integer_ratio(), worst.as_integer_ratio()
        throughput_worst = p * worst_d // (q * worst_n)
        throughput_best = -(-p * best_d // (q * best_n))
        eff_max, eff_max_displayed = gains(throughput_best, workers)
        eff_min, eff_min_displayed = gains(throughput_worst, workers)
        return RobustReport(
            plan=plan,
            allocation=allocation,
            intervals=intervals,
            alpha=alpha,
            line_ct_regular=regular,
            line_ct_best=best,
            line_ct_worst=worst,
            throughput_regular=throughput_regular,
            throughput_best=throughput_best,
            throughput_worst=throughput_worst,
            upph_regular=upph_regular,
            upph_max=Fraction(throughput_best, workers),
            upph_min=Fraction(throughput_worst, workers),
            eff_max=eff_max,
            eff_min=eff_min,
            eff_max_displayed=eff_max_displayed,
            eff_min_displayed=eff_min_displayed,
        )

    return report


def alpha_sweep(
    plan: ProcessPlan,
    allocation: Allocation,
    deviations: Deviations | None,
    alpha_grid,
) -> tuple[tuple[Fraction, RobustReport], ...]:
    """One RobustReport per alpha: the regular/best/worst overlay series.

    The regular series is constant; best falls and worst rises as alpha
    grows. `deviations` as in effective_intervals (None = task-stored).
    The effective times, each task's integer pairs and the alpha-free report
    fields are computed once; errors come in grid order, as one
    effective_intervals call per alpha would raise them.
    """
    alphas = [as_fraction(a) for a in alpha_grid]
    if not alphas:
        raise DomainError("alpha grid is empty")
    times = _effective_times(plan, allocation)
    report = _reports(plan, allocation, max(times.values()))
    rows: list = []
    source = _rows(plan, times, deviations, rows)
    return tuple((a, report(a, *_widen(rows or source, _alpha(a)))) for a in alphas)


# ------------------------ robust report: table and rebuild, registered with io

def _robust_table(r: RobustReport) -> str:
    rows = []
    for t in r.plan.tasks:
        iv = r.intervals[t.id]
        rows.append((str(t.id), t.description, *map(format_seconds, (iv.nominal, iv.lo, iv.hi))))
    table = _render_columns(("task", "description", "effective_ct", "ct_minus_dev", "ct_plus_dev"), rows)
    alpha = "per-interval" if r.alpha is None else format_number(r.alpha)
    source = (
        "exact again, since the two-decimal printed baseline is 0.00"
        if _prints_as_zero(_baseline_upph(r.plan))
        else "from two-decimal printed figures"
    )
    lines = [
        table,
        f"alpha: {alpha}",
        f"line cycle time: regular {format_seconds(r.line_ct_regular)}, "
        f"best {format_seconds(r.line_ct_best)}, worst {format_seconds(r.line_ct_worst)} sec/pc",
        f"throughput bounds: {r.throughput_worst}..{r.throughput_best} pc per period "
        f"(regular {format_number(r.throughput_regular)})",
        f"UPPH: regular {format_upph(r.upph_regular)}; "
        f"min {format_upph(r.upph_min)} ({format_number(r.upph_min)} exact); "
        f"max {format_upph(r.upph_max)} ({format_number(r.upph_max)} exact)",
        f"improvement over one-station baseline: "
        f"{format_percent(r.eff_min)}..{format_percent(r.eff_max)} exact; "
        f"{format_percent(r.eff_min_displayed)}..{format_percent(r.eff_max_displayed)} {source}",
    ]
    return "\n".join(lines) + "\n"


_REPORTS[RobustReport] = _Kind(
    "robust", _robust_table, lambda r: robust_line_report(r.plan, r.allocation, r.intervals)
)
