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

    def test_fraction_is_returned_unchanged(self):
        x = Fraction(110, 3)
        assert hl.as_fraction(x) is x

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

    @pytest.mark.parametrize(
        "value",
        ["1e101", "1e-101", "1e999999999", "1e-999999999", "0e-200", "1" + "0" * 101,
         Decimal("1e1000000"), 1e300],
    )
    def test_rejects_exponent_outside_limit(self, value):
        # an unbounded exponent would expand into an integer of that many digits
        with pytest.raises(DomainError, match="exponent"):
            hl.as_fraction(value)

    def test_exponent_limit_is_inclusive(self):
        assert hl.MAX_DECIMAL_EXPONENT == 100
        assert hl.as_fraction("1e100") == 10**100
        assert hl.as_fraction("1e-100") == Fraction(1, 10**100)


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

    @pytest.mark.parametrize("period", [0, -60])
    def test_nonpositive_period_rejected(self, period):
        task = hl.Task(id=1, description="a", cycle_time=5)
        with pytest.raises(DomainError, match="^period must be > 0$"):
            hl.ProcessPlan(tasks=(task,), seat_budget=1, period=period)

    def test_lookup(self):
        plan = make_plan([5, 6], 2)
        assert plan.task_ids == (1, 2)


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
    def test_line_cycle_time_is_max_effective(self):
        plan = make_plan([30, 120, 45], 5)
        alloc = hl.Allocation({1: 1, 2: 3, 3: 1})
        assert hl.line_cycle_time(plan, alloc) == Fraction(45)

    def test_foreign_task_ids_rejected(self):
        plan = make_plan([30, 60], 3)
        with pytest.raises(DomainError, match=r"\[99\]"):
            hl.line_cycle_time(plan, hl.Allocation({1: 1, 2: 2, 99: 5}))

    @pytest.mark.parametrize("stations, message", [
        ({1: 1, 2: 1}, "allocation missing tasks: [3]"),
        ({1: 1, 2: 1, 3: 1, 99: 1}, "allocation has tasks the plan does not: [99]"),
        ({1: 1, 2: 1, 99: 1}, "allocation missing tasks: [3]"),  # missing is reported first
    ], ids=["missing", "foreign", "both"])
    def test_coverage_messages(self, stations, message):
        plan = make_plan([30, 60, 45], 4)
        with pytest.raises(DomainError) as caught:
            hl.line_cycle_time(plan, hl.Allocation(stations))
        assert str(caught.value) == message

    def test_bottleneck_tasks(self, shirt_plan, balanced):
        assert hl.bottleneck_tasks(shirt_plan, balanced.allocation) == (20, 22, 37, 38, 39, 43, 44)
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

    def test_throughput_needs_positive_cycle_time_and_period(self):
        with pytest.raises(DomainError, match="^cycle time must be > 0, got 0$"):
            hl.throughput(0)
        with pytest.raises(DomainError, match="^period must be > 0, got -1$"):
            hl.throughput(40, period=-1)

    def test_work_content(self, shirt_plan):
        assert hl.work_content(shirt_plan) == Fraction(1090)

    def test_lower_bounds(self, shirt_plan):
        plan = make_plan([60, 30, 30], 4)
        # duplication bound only spreads work: sum/S
        assert hl.parallel_lower_bound(plan, 4) == Fraction(30)
        assert hl.parallel_lower_bound(shirt_plan, 32) == Fraction(1090, 32)

    @pytest.mark.parametrize("stations", [2, 4.0, "4"])
    def test_lower_bound_needs_a_station_per_task(self, stations):
        plan = make_plan([60, 30, 30], 4)
        with pytest.raises(DomainError, match=rf"^need at least one station per task \(3\), got {stations!r}$"):
            hl.parallel_lower_bound(plan, stations)


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
    eff = hl.line_cycle_time(make_plan([t], s), hl.Allocation({1: s}))
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


# denominators 1, 3, 7 and powers of ten up to the decimal exponent bound
_DENOMINATORS = st.one_of(
    st.sampled_from([1, 3, 7]), st.integers(0, hl.MAX_DECIMAL_EXPONENT).map(lambda k: 10**k)
)


@st.composite
def _task_times(draw):
    """Exact task times from about 1e-100 s to 1e106 s."""
    exponent = draw(st.sampled_from([-100, -99, -1, 0, 1, 99, 100]))
    return Fraction(draw(st.integers(1, 10**6)), draw(_DENOMINATORS)) * Fraction(10) ** exponent


@st.composite
def _allocated_lines(draw):
    """A plan whose task times come from a small palette (so ties are common)
    and a random allocation of it."""
    palette = draw(st.lists(_task_times(), min_size=1, max_size=4))
    if draw(st.booleans()):  # a near tie, closer than any float can tell
        palette.append(palette[0] + Fraction(1, 10**hl.MAX_DECIMAL_EXPONENT))
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(1, 10**6), unique=True, min_size=n, max_size=n))
    tasks = tuple(
        hl.Task(id=i, description=f"op {i}", cycle_time=draw(st.sampled_from(palette))) for i in ids
    )
    stations = {i: draw(st.integers(1, 12)) for i in ids}
    return hl.ProcessPlan(tasks=tasks, seat_budget=sum(stations.values())), hl.Allocation(stations)


@given(line=_allocated_lines())
def test_line_cycle_time_matches_a_fraction_oracle(line):
    plan, alloc = line
    effective = {t.id: t.cycle_time / alloc.stations[t.id] for t in plan.tasks}
    ct = hl.line_cycle_time(plan, alloc)
    assert type(ct) is Fraction
    assert ct == max(effective.values())
    necks = hl.bottleneck_tasks(plan, alloc)
    assert necks and all(effective[i] == ct for i in necks)
    assert set(necks) == {i for i, time in effective.items() if time == ct}
