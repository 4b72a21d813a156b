"""Interval uncertainty: per-task CT bands, line-level bounds, alpha sweeps."""
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hangerline as hl
from hangerline import DomainError, ParseError

from .test_model import make_plan


class TestCtInterval:
    def test_basic(self):
        iv = hl.ct_interval(Fraction(30), Fraction(2), Fraction(1), Fraction(1))
        assert (iv.lo, iv.nominal, iv.hi) == (Fraction(29), Fraction(30), Fraction(32))

    def test_fractional_nominal(self):
        iv = hl.ct_interval(
            Fraction(367, 10), Fraction(23, 10), Fraction(17, 10), Fraction(1)
        )
        assert iv.lo == Fraction(35)
        assert iv.hi == Fraction(39)

    def test_alpha_shrinks_the_band(self):
        full = hl.ct_interval(Fraction(30), Fraction(2), Fraction(1), Fraction(1))
        half = hl.ct_interval(Fraction(30), Fraction(2), Fraction(1), Fraction(1, 2))
        assert half.lo == Fraction(59, 2)
        assert half.hi == Fraction(31)
        assert full.lo <= half.lo and half.hi <= full.hi

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (Fraction(0), Fraction(-1), Fraction(3, 2)):
            with pytest.raises(DomainError):
                hl.ct_interval(Fraction(30), Fraction(2), Fraction(1), alpha)

    def test_rejects_band_reaching_zero(self):
        with pytest.raises(DomainError):
            hl.ct_interval(Fraction(10), Fraction(0), Fraction(10), Fraction(1))


# The interval rule is checked where an interval enters from outside: by
# robust_line_report, which rebuilds each interval it is given, and so by
# decoding, which goes through it. Each tamper breaks one interval of a
# one-task line; the message is the rule's, prefixed with the task.
_GOOD = dict(nominal=30, lo=29, hi=32, alpha=1, d_plus=2, d_minus=1)
_TAMPERS = [
    ("alpha", "7", r"alpha must lie in \(0, 1\], got 7"),
    ("d_plus", "-3", "deviations must be >= 0"),
    ("hi", "41", r"interval \[29, 41\] is not 30 -/\+ alpha\*deviations"),
    ("lo", "28", r"interval \[28, 32\] is not 30 -/\+ alpha\*deviations"),
    ("nominal", "31", r"interval \[29, 32\] is not 31 -/\+ alpha\*deviations"),
    ("d_minus", "2", r"interval \[29, 32\] is not 30 -/\+ alpha\*deviations"),
]
_ZERO_BAND = dict(nominal=10, lo=0, hi=10, alpha=1, d_plus=0, d_minus=10)
_ZERO_MESSAGE = r"alpha\*d_minus = 10 swallows the nominal cycle time 10$"


def _one_task_line():
    plan = make_plan([30], 1)
    return plan, hl.Allocation.ones(plan)


def _report_document(tamper):
    plan, alloc = _one_task_line()
    report = hl.robust_line_report(plan, alloc, {1: hl.CtInterval(**_GOOD)})
    data = json.loads(hl.emit_report(report, "json"))
    assert hl.parse_report(json.dumps(data)) == report
    data["intervals"]["1"].update(tamper)
    return json.dumps(data)


class TestIntervalsFromOutside:
    @pytest.mark.parametrize("field, value, message", _TAMPERS, ids=[t[0] for t in _TAMPERS])
    def test_report_rebuilds_a_given_interval(self, field, value, message):
        plan, alloc = _one_task_line()
        hl.robust_line_report(plan, alloc, {1: hl.CtInterval(**_GOOD)})
        with pytest.raises(DomainError, match=f"^task 1: {message}"):
            hl.robust_line_report(plan, alloc, {1: hl.CtInterval(**{**_GOOD, field: Fraction(value)})})

    @pytest.mark.parametrize("field, value, message", _TAMPERS, ids=[t[0] for t in _TAMPERS])
    def test_decoding_rebuilds_each_interval(self, field, value, message):
        with pytest.raises(ParseError, match=f"^malformed robust report: task 1: {message}"):
            hl.parse_report(_report_document({field: value}))

    def test_report_rejects_a_band_reaching_zero(self):
        plan, alloc = _one_task_line()
        with pytest.raises(DomainError, match=f"^task 1: {_ZERO_MESSAGE}"):
            hl.robust_line_report(plan, alloc, {1: hl.CtInterval(**_ZERO_BAND)})

    def test_decoding_rejects_a_band_reaching_zero(self):
        tamper = {k: str(v) for k, v in _ZERO_BAND.items()}
        with pytest.raises(ParseError, match=f"^malformed robust report: task 1: {_ZERO_MESSAGE}"):
            hl.parse_report(_report_document(tamper))

    def test_string_fields_are_read_as_numbers(self):
        # a hand-built record is not coerced on construction; the report's
        # rebuilt intervals are exact Fractions all the same
        plan, alloc = _one_task_line()
        given = hl.CtInterval(**{k: str(v) for k, v in _GOOD.items()})
        report = hl.robust_line_report(plan, alloc, {1: given})
        assert report.intervals[1] == hl.ct_interval(30, 2, 1, 1)
        assert all(type(v) is Fraction for v in vars(report.intervals[1]).values())
        assert report == hl.robust_line_report(plan, alloc, {1: hl.CtInterval(**_GOOD)})


    def test_nominal_must_be_the_allocation_pace(self, shirt_plan, balanced, deviations):
        # every band rebuilt around ten times its t_i/s_i is consistent in
        # itself, but the allocation paces the line at 40 s, not 400 s
        alloc = balanced.allocation
        scaled = {
            tid: hl.ct_interval(10 * iv.nominal, iv.d_plus, iv.d_minus, iv.alpha)
            for tid, iv in hl.effective_intervals(shirt_plan, alloc, 1, deviations).items()
        }
        message = "task 19: nominal 300 is not the effective cycle time 30"
        with pytest.raises(DomainError, match=f"^{message}$"):
            hl.robust_line_report(shirt_plan, alloc, scaled)
        # the document a report built on those bands would write, figures from the reference
        fields = {**_ref_report(shirt_plan, alloc, _as_tuples(scaled)), "intervals": scaled}
        forged = hl.RobustReport(plan=shirt_plan, allocation=alloc, **fields)
        assert "regular 400," in hl.emit_report(forged)
        with pytest.raises(ParseError, match=f"^malformed robust report: {message}$"):
            hl.parse_report(hl.emit_report(forged, "json"))


class TestEffectiveIntervals:
    def test_deviations_apply_after_allocation(self, shirt_plan, balanced, deviations):
        intervals = hl.effective_intervals(
            shirt_plan, balanced.allocation, 1, deviations
        )
        assert set(intervals) == set(shirt_plan.task_ids)
        # task 40 runs on 3 stations: nominal 110/3 with the printed-band
        # deltas +2.3/-1.7 around it
        iv = intervals[40]
        assert iv.nominal == Fraction(110, 3)
        assert iv.hi == iv.nominal + Fraction(23, 10)
        assert iv.lo == iv.nominal - Fraction(17, 10)
        # task 19 keeps one station: plain 30 +2/-1
        assert (intervals[19].lo, intervals[19].hi) == (Fraction(29), Fraction(32))

    def test_task_stored_deviations_are_the_default(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        from_tasks = hl.effective_intervals(devs_plan, alloc, 1)
        assert from_tasks[19].hi == Fraction(32)
        assert from_tasks[46].lo == Fraction(34)

    def test_missing_deviation_entry_is_an_error(self, shirt_plan, balanced):
        with pytest.raises(DomainError):
            hl.effective_intervals(
                shirt_plan, balanced.allocation, 1, {19: (Fraction(2), Fraction(1))}
            )

    def test_foreign_task_ids_rejected(self):
        plan = make_plan([30, 60], 3)
        foreign = hl.Allocation({1: 1, 2: 2, 99: 5})
        with pytest.raises(DomainError, match=r"\[99\]"):
            hl.effective_intervals(plan, foreign)
        intervals = hl.effective_intervals(plan, hl.Allocation({1: 1, 2: 2}))
        with pytest.raises(DomainError, match=r"\[99\]"):
            hl.robust_line_report(plan, foreign, intervals)

    def test_foreign_interval_ids_rejected(self):
        plan = make_plan([30, 60], 3)
        alloc = hl.Allocation({1: 1, 2: 2})
        intervals = hl.effective_intervals(plan, alloc)
        extra = {**intervals, 99: hl.ct_interval(1000, 0, 0, Fraction(1, 2))}
        with pytest.raises(DomainError, match=r"^intervals have tasks the plan does not: \[99\]$"):
            hl.robust_line_report(plan, alloc, extra)

    def test_swallowed_deviation_names_its_task(self):
        # task 2 runs at 60/2 = 30 s, which a 30 s downward deviation swallows
        plan = make_plan([30, 60], 3)
        alloc = hl.Allocation({1: 1, 2: 2})
        devs = {1: (Fraction(0), Fraction(29)), 2: (Fraction(0), Fraction(30))}
        with pytest.raises(DomainError, match=r"^task 2: alpha\*d_minus = 30 swallows"):
            hl.effective_intervals(plan, alloc, 1, devs)
        assert hl.effective_intervals(plan, alloc, Fraction(1, 2), devs)[2].lo == 15


    @pytest.mark.parametrize("task_2, message", [
        (dict(d_minus=60, lo=0), r"alpha\*d_minus = 60 swallows the nominal cycle time 60$"),
        (dict(d_minus=0, lo=59), r"interval \[59, 60\] is not 60 -/\+ alpha\*deviations$"),
    ], ids=["swallowed", "wrong_lo"])
    def test_first_failing_task_in_plan_order_is_named_across_alphas(self, task_2, message):
        # tasks 1 and 3 sit at alpha 1/2, task 2 at alpha 1: the first failing
        # task in plan order, 2, is not in the first alpha's group, and task 3's
        # band is swallowed as well
        plan = make_plan([30, 60, 90], 3)
        alloc = hl.Allocation.ones(plan)
        half = dict(alpha=Fraction(1, 2), d_plus=0, d_minus=0)
        intervals = {
            1: hl.CtInterval(nominal=30, lo=30, hi=30, **half),
            2: hl.CtInterval(**{**dict(nominal=60, hi=60, alpha=1, d_plus=0), **task_2}),
            3: hl.CtInterval(**{**half, "nominal": 90, "lo": 0, "hi": 90, "d_minus": 200}),
        }
        with pytest.raises(DomainError, match=f"^task 2: {message}"):
            hl.robust_line_report(plan, alloc, intervals)
        del intervals[2]
        fixed = {**intervals, 2: hl.ct_interval(60, 0, 0, 1)}
        with pytest.raises(DomainError, match=r"^task 3: alpha\*d_minus = 100 swallows the nominal cycle time 90$"):
            hl.robust_line_report(plan, alloc, fixed)


@pytest.fixture(scope="module")
def report(shirt_plan, balanced, deviations):
    intervals = hl.effective_intervals(shirt_plan, balanced.allocation, 1, deviations)
    return hl.robust_line_report(shirt_plan, balanced.allocation, intervals)


class TestRobustReport:
    def test_line_ct_band(self, report):
        assert report.line_ct_regular == Fraction(40)
        assert report.line_ct_best == Fraction(38)
        assert report.line_ct_worst == Fraction(42)

    def test_integer_throughput_bounds(self, report):
        # bounds round outward to whole pieces
        assert report.throughput_worst == 85
        assert report.throughput_best == 95
        assert report.throughput_regular == Fraction(90)

    def test_upph_band(self, report):
        assert report.upph_regular == Fraction(45, 16)
        assert report.upph_min == Fraction(85, 32)
        assert report.upph_max == Fraction(95, 32)

    def test_improvement_band_against_single_station_baseline(self, report):
        # exact band
        assert report.eff_min == Fraction(85, 32) / Fraction(30, 19) - 1
        assert report.eff_max == Fraction(95, 32) / Fraction(30, 19) - 1
        # band recomputed from the two-decimal truncated figures
        assert report.eff_min_displayed == Fraction(108, 157)
        assert report.eff_max_displayed == Fraction(139, 157)
        assert abs(report.eff_min_displayed - Fraction(69, 100)) < Fraction(1, 100)
        assert abs(report.eff_max_displayed - Fraction(89, 100)) < Fraction(1, 100)

    def test_alpha_recorded(self, report):
        assert report.alpha == Fraction(1)

    def test_zero_deviations_collapse_the_band(self, shirt_plan, balanced):
        zero = {tid: (Fraction(0), Fraction(0)) for tid in shirt_plan.task_ids}
        intervals = hl.effective_intervals(shirt_plan, balanced.allocation, 1, zero)
        report = hl.robust_line_report(shirt_plan, balanced.allocation, intervals)
        assert report.line_ct_best == report.line_ct_worst == Fraction(40)
        assert report.throughput_best == report.throughput_worst == 90
        assert report.upph_min == report.upph_max == Fraction(45, 16)

    def test_tiny_baseline_falls_back_to_exact_view(self):
        # the one-station baseline runs at 0.004 UPPH, which truncates to zero:
        # the displayed band is then the exact one, as in compare
        plan = make_plan([450_000, 1], 3)
        alloc = hl.Allocation({1: 2, 2: 1})
        report = hl.robust_line_report(plan, alloc, hl.effective_intervals(plan, alloc, 1))
        assert hl.truncate_decimals(report.upph_max) > 0
        assert report.eff_max_displayed == report.eff_max
        assert report.eff_min_displayed == report.eff_min
        # and the table says so instead of citing the printed figures
        table = hl.emit_report(report, "table")
        assert table.endswith(
            "exact again, since the two-decimal printed baseline is 0.00\n"
        )
        assert "from two-decimal printed figures" not in table


class TestAlphaSweep:
    def test_grid_of_three(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        grid = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        sweep = hl.alpha_sweep(devs_plan, alloc, None, grid)
        assert [alpha for alpha, _ in sweep] == grid
        full = sweep[-1][1]
        assert (full.line_ct_best, full.line_ct_worst) == (Fraction(38), Fraction(42))

    def test_band_widens_with_alpha(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        grid = [Fraction(i, 10) for i in range(1, 11)]
        sweep = hl.alpha_sweep(devs_plan, alloc, None, grid)
        worsts = [r.line_ct_worst for _, r in sweep]
        bests = [r.line_ct_best for _, r in sweep]
        assert all(a <= b for a, b in zip(worsts, worsts[1:]))
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        # more uncertainty helps the best case and hurts the worst case
        tp_best = [r.throughput_best for _, r in sweep]
        tp_worst = [r.throughput_worst for _, r in sweep]
        assert all(a <= b for a, b in zip(tp_best, tp_best[1:]))
        assert all(a >= b for a, b in zip(tp_worst, tp_worst[1:]))

    def test_intervals_nest(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        sweep = hl.alpha_sweep(
            devs_plan, alloc, None, [Fraction(1, 2), Fraction(1)]
        )
        inner = sweep[0][1].intervals
        outer = sweep[1][1].intervals
        for tid in devs_plan.task_ids:
            assert outer[tid].lo <= inner[tid].lo
            assert inner[tid].hi <= outer[tid].hi

    def test_empty_grid_rejected(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        with pytest.raises(DomainError):
            hl.alpha_sweep(devs_plan, alloc, None, [])

    def test_out_of_range_alpha_rejected(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\], got 2$"):
            hl.alpha_sweep(devs_plan, alloc, None, [Fraction(2)])


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldens:
    """Report and plot text pinned to what the per-interval Fraction code
    produced, before the sweep built its intervals from integer pairs."""

    @pytest.mark.parametrize("alpha, fmt, digest", [
        (Fraction(1), "json", "cb86e0318886ae4644fb40181043ef324781c914289c453c285acd38773648bc"),
        (Fraction(1), "table", "5daf8e56af124c4bf9bc51b0aa76b59db75841a73f29998ae8ec0aec9df05d4a"),
        (Fraction(1, 2), "json", "9dba3bbddbb0469820f6fc754cf8ec9850af61b3578b42de4643e02f7b854380"),
        (Fraction(1, 2), "table", "f9f476aa09f45d212c21ef28cdfb0aa7f7ff158dd6d4cc2915ecac91f640fb1f"),
        (Fraction(13, 100), "json", "8355c9913d1d8dc2994be56b45502e2961748527514c1902331ac04973e4c3de"),
        (Fraction(13, 100), "table", "906b52598a0b196ce8b0ad1cafcdd07b181a9b7ba99389fdef5b5394fdcd0d7a"),
    ])
    def test_shirt_report_is_pinned(self, shirt_plan, balanced, deviations, alpha, fmt, digest):
        intervals = hl.effective_intervals(shirt_plan, balanced.allocation, alpha, deviations)
        report = hl.robust_line_report(shirt_plan, balanced.allocation, intervals)
        assert _sha256(hl.emit_report(report, fmt)) == digest

    def test_mixed_denominator_plot_is_pinned(self):
        # decimal task times, station counts 1/2/3/7 and a deviation map of
        # ints, decimal strings, a float and a sevenths Fraction
        plan = hl.ProcessPlan(tasks=(
            hl.Task(1, "collar", "36.7"), hl.Task(2, "cuff", "12.35"), hl.Task(3, "yoke", 110),
            hl.Task(4, "label", "0.125"), hl.Task(5, "hem", 45),
        ), seat_budget=14)
        alloc = hl.Allocation({1: 3, 2: 1, 3: 7, 4: 1, 5: 2})
        devs = {1: ("2.3", "1.7"), 2: (1, "0.05"), 3: (Fraction(1, 7), 3), 4: ("0.01", 0.1), 5: (2, 2)}
        grid = [Fraction(k, 10) for k in range(1, 11)] + [Fraction(1, 20)]
        text = hl.emit_plot_data(hl.alpha_sweep(plan, alloc, devs, grid))
        assert _sha256(text) == "870a4854a9de9e457db4ac6c7bf56330c0b09ebc1536de9136dc957d496d2fc1"


@given(
    nominal=st.fractions(min_value=Fraction(5), max_value=Fraction(200)),
    d_plus=st.fractions(min_value=Fraction(0), max_value=Fraction(4)),
    d_minus=st.fractions(min_value=Fraction(0), max_value=Fraction(4)),
    alpha=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1)),
)
def test_interval_always_brackets_the_nominal(nominal, d_plus, d_minus, alpha):
    iv = hl.ct_interval(nominal, d_plus, d_minus, alpha)
    assert iv.lo <= iv.nominal <= iv.hi
    assert iv.hi - iv.nominal == alpha * d_plus
    assert iv.nominal - iv.lo == alpha * d_minus


@given(
    times=st.lists(st.integers(min_value=10, max_value=120), min_size=1, max_size=5),
    extra=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_line_bounds_bracket_the_nominal_ct(times, extra, data):
    plan = make_plan(times, len(times) + extra)
    alloc = hl.greedy_balance(plan).allocation
    devs = {}
    for task in plan.tasks:
        eff = task.cycle_time / alloc.count(task.id)
        # keep the lower edge strictly positive
        devs[task.id] = (
            data.draw(st.fractions(min_value=Fraction(0), max_value=Fraction(3))),
            data.draw(
                st.fractions(min_value=Fraction(0), max_value=eff * Fraction(9, 10))
            ),
        )
    intervals = hl.effective_intervals(plan, alloc, 1, devs)
    report = hl.robust_line_report(plan, alloc, intervals)
    assert report.line_ct_best <= report.line_ct_regular <= report.line_ct_worst
    assert report.throughput_worst <= report.throughput_regular <= report.throughput_best
    assert report.upph_min <= report.upph_regular <= report.upph_max


_rarely = st.sampled_from([False] * 7 + [True])


@st.composite
def _sweep_cases(draw):
    """A small line with task-stored deviations, a greedy allocation (now and
    then missing a task), an optional deviation map (now and then missing an
    entry) and a grid that may hold out-of-range alphas. Deviations reach up
    to twice a task's effective time, so larger alphas can swallow it."""
    n = draw(st.integers(1, 6))
    times = draw(st.lists(st.integers(5, 120), min_size=n, max_size=n))
    fracs = st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=20)
    tasks = tuple(
        hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t,
                dev_plus=draw(fracs) * t, dev_minus=draw(fracs) * t)
        for i, t in enumerate(times)
    )
    plan = hl.ProcessPlan(tasks=tasks, seat_budget=n + draw(st.integers(0, 8)))
    stations = dict(hl.greedy_balance(plan).allocation.stations)
    if draw(_rarely):
        del stations[draw(st.sampled_from(plan.task_ids))]
    alloc = hl.Allocation(stations)
    deviations = None
    if draw(st.booleans()):
        ratio = st.fractions(min_value=0, max_value=2, max_denominator=20)
        deviations = {
            t.id: (draw(ratio) * t.cycle_time / stations.get(t.id, 1),
                   draw(ratio) * t.cycle_time / stations.get(t.id, 1))
            for t in tasks
        }
        if draw(_rarely):
            del deviations[draw(st.sampled_from(plan.task_ids))]
    alpha = st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100)
    grid = draw(st.lists(alpha, min_size=1, max_size=8))
    if draw(_rarely):
        bad = draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(3, 2)]))
        grid.insert(draw(st.integers(0, len(grid))), bad)
    return plan, alloc, deviations, grid


def _outcome(call):
    try:
        return call()
    except DomainError as exc:
        return f"DomainError: {exc}"


@given(case=_sweep_cases())
def test_sweep_equals_one_report_per_alpha(case):
    # the sweep computes the per-line values once; its reports, and its first
    # error in grid order, are those of one effective_intervals call per alpha
    plan, alloc, deviations, grid = case
    expected = _outcome(lambda: tuple(
        (a, hl.robust_line_report(plan, alloc, hl.effective_intervals(plan, alloc, a, deviations)))
        for a in grid
    ))
    assert _outcome(lambda: hl.alpha_sweep(plan, alloc, deviations, grid)) == expected


# The per-interval Fraction code that the integer kernel replaced, kept as an
# independent reference: every interval, report field and first error of the
# kernel must match it.

def _ref_alpha(alpha):
    alpha = hl.as_fraction(alpha)
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _ref_ct_interval(nominal, d_plus, d_minus, alpha):
    nominal = hl.as_fraction(nominal)
    d_plus = hl.as_fraction(d_plus)
    d_minus = hl.as_fraction(d_minus)
    alpha = _ref_alpha(alpha)
    if d_plus < 0 or d_minus < 0:
        raise DomainError("deviations must be >= 0")
    lo = nominal - alpha * d_minus
    if lo <= 0:
        raise DomainError(
            f"alpha*d_minus = {alpha * d_minus} swallows the nominal cycle time {nominal}"
        )
    return nominal, lo, nominal + alpha * d_plus, alpha, d_plus, d_minus


def _ref_intervals(plan, allocation, alpha, deviations):
    hl.line_cycle_time(plan, allocation)  # the coverage check, with its messages
    times = {t.id: t.cycle_time / allocation.stations[t.id] for t in plan.tasks}
    alpha = _ref_alpha(alpha)
    out = {}
    for t in plan.tasks:
        if deviations is not None:
            try:
                d_plus, d_minus = deviations[t.id]
            except KeyError:
                raise DomainError(f"no deviation entry for task {t.id}") from None
        else:
            d_plus, d_minus = t.dev_plus, t.dev_minus
        try:
            out[t.id] = _ref_ct_interval(times[t.id], d_plus, d_minus, alpha)
        except DomainError as exc:
            raise DomainError(f"task {t.id}: {exc}") from None
    return out


def _ref_truncate(x):
    return Fraction(x.numerator * 100 // x.denominator, 100)


def _ref_report(plan, allocation, intervals):
    """Report fields from intervals given as (nominal, lo, hi, alpha, d_plus, d_minus)."""
    regular, best, worst = (max(iv[k] for iv in intervals.values()) for k in range(3))
    workers = sum(allocation.stations.values())
    throughput_regular = plan.period / regular
    throughput_best = math.ceil(plan.period / best)
    throughput_worst = math.floor(plan.period / worst)
    base = plan.period / max(t.cycle_time for t in plan.tasks) / len(plan.tasks)

    def gains(upph):
        exact = (upph - base) / base
        if _ref_truncate(base) == 0:
            return exact, exact
        return exact, (_ref_truncate(upph) - _ref_truncate(base)) / _ref_truncate(base)

    upph_max = Fraction(throughput_best, workers)
    upph_min = Fraction(throughput_worst, workers)
    alphas = [iv[3] for iv in intervals.values()]
    return dict(
        intervals=intervals,
        alpha=alphas[0] if all(a == alphas[0] for a in alphas) else None,
        line_ct_regular=regular,
        line_ct_best=best,
        line_ct_worst=worst,
        throughput_regular=throughput_regular,
        throughput_best=throughput_best,
        throughput_worst=throughput_worst,
        upph_regular=throughput_regular / workers,
        upph_max=upph_max,
        upph_min=upph_min,
        eff_max=gains(upph_max)[0],
        eff_min=gains(upph_min)[0],
        eff_max_displayed=gains(upph_max)[1],
        eff_min_displayed=gains(upph_min)[1],
    )


def _ref_sweep(plan, allocation, deviations, grid):
    alphas = [hl.as_fraction(a) for a in grid]
    if not alphas:
        raise DomainError("alpha grid is empty")
    hl.line_cycle_time(plan, allocation)
    return [
        (a, _ref_report(plan, allocation, _ref_intervals(plan, allocation, a, deviations)))
        for a in alphas
    ]


def _as_tuples(intervals):
    return {
        tid: (iv.nominal, iv.lo, iv.hi, iv.alpha, iv.d_plus, iv.d_minus)
        for tid, iv in intervals.items()
    }


def _fields(report):
    fields = {
        name: getattr(report, name)
        for name in (
            "alpha", "line_ct_regular", "line_ct_best", "line_ct_worst", "throughput_regular",
            "throughput_best", "throughput_worst", "upph_regular", "upph_max", "upph_min",
            "eff_max", "eff_min", "eff_max_displayed", "eff_min_displayed",
        )
    }
    fields["intervals"] = _as_tuples(report.intervals)
    return fields


_DENOMINATORS = st.sampled_from([1, 7, 11, 13, 10, 10**100])


@st.composite
def _rational(draw, low, high):
    """A Fraction in [low, high] whose denominator is 1, 7, 11, 13, 10 or 10^100."""
    den = draw(_DENOMINATORS)
    return Fraction(draw(st.integers(low * den, high * den)), den)


def _deviation_value(draw, value):
    """`value` as an int, a decimal string, a float or a Fraction, now and then
    negative or junk."""
    if draw(_rarely):
        return draw(st.sampled_from([-1, "-0.5", Fraction(-1, 7), "junk"]))
    form = draw(st.sampled_from(["fraction", "int", "str", "float"]))
    if form == "int":
        return int(value)
    if form == "str":
        return format(float(value), ".3f")
    return float(value) if form == "float" else value


_GRID_POINTS = st.one_of(
    st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
    st.sampled_from([
        Fraction(1, 7), Fraction(1, 11), Fraction(1, 13), Fraction(1, 10**100), 1, "0.5", 0.25,
    ]),
)


@st.composite
def _kernel_cases(draw):
    """A line of 1-6 tasks with coprime-denominator times and task-stored
    deviations, a greedy allocation (now and then missing a task or holding a
    foreign one), an optional deviation map of ints, decimal strings, floats
    and Fractions reaching twice a task's effective time (so larger alphas
    can swallow a band), and a grid that may hold bad alphas."""
    n = draw(st.integers(1, 6))
    tasks = []
    for i in range(n):
        ct = draw(_rational(1, 120))
        share = st.integers(0, 19).map(lambda k: Fraction(k, 20))
        tasks.append(hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=ct,
                             dev_plus=draw(_rational(0, 4)), dev_minus=draw(share) * ct))
    plan = hl.ProcessPlan(tasks=tasks, seat_budget=n + draw(st.integers(0, 8)))
    stations = dict(hl.greedy_balance(plan).allocation.stations)
    if draw(_rarely):
        del stations[draw(st.sampled_from(plan.task_ids))]
    elif draw(_rarely):
        stations[99] = 1
    alloc = hl.Allocation(stations)
    deviations = None
    if draw(st.booleans()):
        ratio = st.fractions(min_value=0, max_value=2, max_denominator=20)
        deviations = {
            t.id: tuple(
                _deviation_value(draw, draw(ratio) * t.cycle_time / stations.get(t.id, 1))
                for _ in "+-"
            )
            for t in tasks
        }
        if draw(_rarely):
            del deviations[draw(st.sampled_from(plan.task_ids))]
    grid = draw(st.lists(_GRID_POINTS, min_size=1, max_size=6))
    if draw(_rarely):
        bad = draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(3, 2), "1.5"]))
        grid.insert(draw(st.integers(0, len(grid))), bad)
    return plan, alloc, deviations, grid


@settings(max_examples=200, deadline=None)
@given(case=_kernel_cases())
def test_kernel_matches_the_fraction_reference(case):
    plan, alloc, deviations, grid = case
    sweep = _outcome(lambda: [(a, _fields(r)) for a, r in hl.alpha_sweep(plan, alloc, deviations, grid)])
    assert sweep == _outcome(lambda: _ref_sweep(plan, alloc, deviations, grid))
    first, last = (
        _outcome(lambda: hl.effective_intervals(plan, alloc, a, deviations)) for a in (grid[0], grid[-1])
    )
    assert (_as_tuples(first) if isinstance(first, dict) else first) == _outcome(
        lambda: _ref_intervals(plan, alloc, grid[0], deviations)
    )
    if isinstance(first, dict) and isinstance(last, dict):
        # every other task from the last alpha: a report whose alpha is None
        mixed = {tid: (last if k % 2 else first)[tid] for k, tid in enumerate(plan.task_ids)}
        for intervals in (first, mixed):
            assert _fields(hl.robust_line_report(plan, alloc, intervals)) == _ref_report(
                plan, alloc, _as_tuples(intervals)
            )
