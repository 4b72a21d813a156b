"""Core model types: tasks, plans, allocations, and the cycle-time algebra."""
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hangerline as hl
from hangerline import DomainError, InfeasibleError


def make_plan(times, budget):
    tasks = tuple(
        hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t)
        for i, t in enumerate(times)
    )
    return hl.ProcessPlan(tasks=tasks, seat_budget=budget)


class TestAsFraction:
    def test_int_and_fraction_pass_through(self):
        assert hl.as_fraction(7) == Fraction(7)
        assert hl.as_fraction(Fraction(3, 2)) == Fraction(3, 2)

    def test_float_uses_shortest_repr(self):
        # 36.7 must become exactly 367/10, not the binary expansion
        assert hl.as_fraction(36.7) == Fraction(367, 10)
        assert hl.as_fraction(0.1) == Fraction(1, 10)

    def test_string_decimal(self):
        assert hl.as_fraction("2.5") == Fraction(5, 2)
        assert hl.as_fraction("120") == Fraction(120)

    def test_rejects_bool_and_junk(self):
        with pytest.raises(DomainError):
            hl.as_fraction(True)
        with pytest.raises(DomainError):
            hl.as_fraction("not a number")
        with pytest.raises(DomainError):
            hl.as_fraction(None)

    @pytest.mark.parametrize(
        "value",
        ["nan", "NaN", "sNaN", "Infinity", "-inf", Decimal("NaN"), Decimal("-Infinity"),
         float("nan"), float("inf")],
    )
    def test_rejects_non_finite(self, value):
        with pytest.raises(DomainError):
            hl.as_fraction(value)


class TestTask:
    def test_valid(self):
        t = hl.Task(id=3, description="hem", cycle_time=40, dev_plus=2, dev_minus=1)
        assert t.cycle_time == Fraction(40)
        assert t.dev_plus == Fraction(2)

    def test_rejects_nonpositive_cycle_time(self):
        with pytest.raises(DomainError):
            hl.Task(id=1, description="x", cycle_time=0)

    def test_rejects_bad_id(self):
        with pytest.raises(DomainError):
            hl.Task(id=0, description="x", cycle_time=1)
        with pytest.raises(DomainError):
            hl.Task(id=-2, description="x", cycle_time=1)

    def test_rejects_negative_deviation(self):
        with pytest.raises(DomainError):
            hl.Task(id=1, description="x", cycle_time=10, dev_plus=-1)

    def test_rejects_dev_minus_at_or_above_cycle_time(self):
        # a zero or negative lower bound would make the interval meaningless
        with pytest.raises(DomainError):
            hl.Task(id=1, description="x", cycle_time=10, dev_minus=10)


class TestProcessPlan:
    def test_duplicate_ids_rejected(self):
        tasks = (
            hl.Task(id=1, description="a", cycle_time=5),
            hl.Task(id=1, description="b", cycle_time=6),
        )
        with pytest.raises(DomainError):
            hl.ProcessPlan(tasks=tasks, seat_budget=4)

    def test_budget_below_task_count_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            make_plan([5, 6, 7], 2)

    def test_bool_seat_budget_rejected(self):
        task = hl.Task(id=1, description="a", cycle_time=5)
        with pytest.raises(DomainError):
            hl.ProcessPlan(tasks=(task,), seat_budget=True)

    def test_empty_plan_rejected(self):
        with pytest.raises(DomainError):
            hl.ProcessPlan(tasks=(), seat_budget=1)

    def test_lookup(self):
        plan = make_plan([5, 6], 2)
        assert plan.task(2).cycle_time == 6
        assert plan.task_ids == (1, 2)
        with pytest.raises(DomainError):
            plan.task(99)


class TestAllocation:
    def test_ones(self):
        plan = make_plan([5, 6, 7], 3)
        ones = hl.Allocation.ones(plan)
        assert ones.stations == {1: 1, 2: 1, 3: 1}
        assert ones.total == 3

    def test_rejects_zero_count(self):
        with pytest.raises(DomainError):
            hl.Allocation({1: 0})

    def test_unknown_task_count_lookup(self):
        a = hl.Allocation({1: 2})
        with pytest.raises(DomainError):
            a.count(5)


class TestCycleTimeAlgebra:
    def test_effective_cycle_time(self):
        assert hl.effective_cycle_time(Fraction(120), 3) == Fraction(40)
        assert hl.effective_cycle_time(Fraction(110), 3) == Fraction(110, 3)

    def test_line_cycle_time_is_max_effective(self):
        plan = make_plan([30, 120, 45], 5)
        alloc = hl.Allocation({1: 1, 2: 3, 3: 1})
        assert hl.line_cycle_time(plan, alloc) == Fraction(45)

    def test_bottleneck_tasks(self):
        plan = make_plan([30, 120, 45], 5)
        alloc = hl.Allocation({1: 1, 2: 3, 3: 1})
        assert hl.bottleneck_tasks(plan, alloc) == (3,)
        tied = hl.Allocation({1: 1, 2: 4, 3: 1})
        # 30, 30, 45 -> still task 3
        assert hl.bottleneck_tasks(plan, tied) == (3,)

    def test_throughput(self):
        assert hl.throughput(Fraction(40)) == Fraction(90)
        assert hl.throughput(Fraction(120)) == Fraction(30)
        assert hl.throughput(Fraction(40), period=Fraction(1800)) == Fraction(45)

    def test_work_content(self, shirt_plan):
        assert hl.work_content(shirt_plan) == Fraction(1090)

    def test_lower_bounds(self):
        plan = make_plan([60, 30, 30], 4)
        # classic bound keeps whole tasks: max(sum/S, max t)
        assert hl.classic_lower_bound(plan, 4) == Fraction(60)
        # duplication bound only spreads work: sum/S
        assert hl.parallel_lower_bound(plan, 4) == Fraction(30)

    def test_line_stats(self, shirt_plan, balanced):
        stats = hl.line_stats(shirt_plan, balanced.allocation)
        assert stats.line_cycle_time == Fraction(40)
        assert stats.throughput == Fraction(90)
        assert stats.work_content == Fraction(1090)
        assert stats.parallel_lower_bound == Fraction(1090, 32)
        assert set(stats.bottlenecks) == {20, 22, 37, 38, 39, 43, 44}


@given(
    times=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8),
    extra=st.integers(min_value=0, max_value=8),
)
def test_line_ct_never_below_parallel_bound(times, extra):
    budget = len(times) + extra
    plan = make_plan(times, budget)
    alloc = hl.Allocation.ones(plan)
    ct = hl.line_cycle_time(plan, alloc)
    assert ct >= hl.parallel_lower_bound(plan, alloc.total)
    assert ct == max(Fraction(t) for t in times)


@given(
    t=st.integers(min_value=1, max_value=10_000),
    s=st.integers(min_value=1, max_value=32),
)
def test_effective_ct_scaling(t, s):
    eff = hl.effective_cycle_time(Fraction(t), s)
    assert eff * s == Fraction(t)
    assert eff <= Fraction(t)


@given(
    times=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6),
)
def test_adding_a_station_never_slows_the_line(times):
    plan = make_plan(times, len(times) + 1)
    base = hl.Allocation.ones(plan)
    before = hl.line_cycle_time(plan, base)
    for tid in plan.task_ids:
        bumped = dict(base.stations)
        bumped[tid] += 1
        after = hl.line_cycle_time(plan, hl.Allocation(bumped))
        assert after <= before


@given(
    ct=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(1000)),
)
def test_throughput_times_ct_is_the_period(ct):
    assert hl.throughput(ct) * ct == Fraction(3600)
