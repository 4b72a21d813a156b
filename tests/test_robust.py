"""Interval uncertainty: per-task CT bands, line-level bounds, alpha sweeps."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hangerline as hl
from hangerline import DomainError

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

    def test_swallowed_deviation_names_its_task(self):
        # task 2 runs at 60/2 = 30 s, which a 30 s downward deviation swallows
        plan = make_plan([30, 60], 3)
        alloc = hl.Allocation({1: 1, 2: 2})
        devs = {1: (Fraction(0), Fraction(29)), 2: (Fraction(0), Fraction(30))}
        with pytest.raises(DomainError, match=r"^task 2: alpha\*d_minus = 30 swallows"):
            hl.effective_intervals(plan, alloc, 1, devs)
        assert hl.effective_intervals(plan, alloc, Fraction(1, 2), devs)[2].lo == 15


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
