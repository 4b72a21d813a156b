"""Productivity metrics: UPPH, improvement ratios, display truncation."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hangerline as hl
from hangerline import DomainError

from .test_model import make_plan


class TestTruncateDecimals:
    def test_cuts_instead_of_rounding(self):
        assert hl.truncate_decimals(Fraction(30, 19)) == Fraction(157, 100)
        assert hl.truncate_decimals(Fraction(45, 16)) == Fraction(281, 100)
        # x.xx5 and up still truncate down
        assert hl.truncate_decimals(Fraction(95, 32)) == Fraction(296, 100)
        assert hl.truncate_decimals(Fraction(85, 32)) == Fraction(265, 100)

    def test_exact_values_pass_through(self):
        assert hl.truncate_decimals(Fraction(5, 2)) == Fraction(5, 2)
        assert hl.truncate_decimals(Fraction(3)) == Fraction(3)

    def test_places(self):
        assert hl.truncate_decimals(Fraction(1234, 1000), places=1) == Fraction(12, 10)
        assert hl.truncate_decimals(Fraction(1234, 1000), places=0) == Fraction(1)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            hl.truncate_decimals(Fraction(-1, 2))

    def test_rejects_negative_places(self):
        with pytest.raises(DomainError, match="^places must be >= 0, got -1$"):
            hl.truncate_decimals(Fraction(1, 2), places=-1)


class TestUpph:
    def test_examples(self):
        assert hl.upph(Fraction(30), 19) == Fraction(30, 19)
        assert hl.upph(Fraction(90), 32) == Fraction(45, 16)

    def test_rejects_no_workers(self):
        with pytest.raises(DomainError):
            hl.upph(Fraction(30), 0)

    def test_rejects_negative_output(self):
        with pytest.raises(DomainError, match="^output must be >= 0, got -1/2$"):
            hl.upph(Fraction(-1, 2), 3)


class TestEffImprovement:
    def test_example(self):
        improvement = hl.eff_improvement(Fraction(45, 16), Fraction(30, 19))
        assert improvement == Fraction(25, 32)

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            hl.eff_improvement(Fraction(5), Fraction(0))


class TestProductivityReport:
    def test_baseline_line(self, baseline_plan):
        report = hl.productivity_report(
            baseline_plan, hl.Allocation.ones(baseline_plan)
        )
        assert report.line_cycle_time == Fraction(120)
        assert report.output_per_hour == Fraction(30)
        assert report.workers == 19
        assert report.upph == Fraction(30, 19)

    def test_balanced_line(self, shirt_plan, balanced):
        report = hl.productivity_report(shirt_plan, balanced.allocation)
        assert report.output_per_hour == Fraction(90)
        assert report.workers == 32
        assert report.upph == Fraction(45, 16)

    def test_utilization_peaks_at_one(self, shirt_plan, balanced):
        report = hl.productivity_report(shirt_plan, balanced.allocation)
        assert max(report.utilization.values()) == Fraction(1)
        assert all(Fraction(0) < u <= Fraction(1) for u in report.utilization.values())
        # tasks whose effective CT equals the line CT run fully busy
        assert report.utilization[20] == Fraction(1)
        assert report.utilization[37] == Fraction(1)
        assert report.utilization[40] == Fraction(11, 12)

    def test_idle_fraction(self):
        plan = make_plan([10, 5], 2)
        report = hl.productivity_report(plan, hl.Allocation.ones(plan))
        # task 2 sits idle half of every cycle
        assert report.utilization[2] == Fraction(1, 2)
        assert report.idle_fraction == {1: Fraction(0), 2: Fraction(1, 2)}

    def test_custom_period(self):
        plan = hl.ProcessPlan(
            tasks=(hl.Task(id=1, description="x", cycle_time=60),),
            seat_budget=1,
            period=Fraction(1800),
        )
        report = hl.productivity_report(plan, hl.Allocation.ones(plan))
        assert report.output_per_hour == Fraction(30)


class TestCompare:
    def test_shirt_line_improvement(self, shirt_plan, balanced):
        cmp = hl.compare(
            shirt_plan, hl.Allocation.ones(shirt_plan), balanced.allocation
        )
        assert cmp.improvement == Fraction(25, 32)
        # recomputed from the two-decimal truncated UPPH figures
        assert cmp.improvement_displayed == Fraction(124, 157)
        assert cmp.output_ratio == Fraction(3)

    def test_displayed_view_differs_from_exact(self, shirt_plan, balanced):
        cmp = hl.compare(
            shirt_plan, hl.Allocation.ones(shirt_plan), balanced.allocation
        )
        assert cmp.improvement != cmp.improvement_displayed
        assert abs(cmp.improvement_displayed - Fraction(7898, 10000)) < Fraction(1, 10000)

    def test_identical_allocations_show_no_change(self, shirt_plan):
        ones = hl.Allocation.ones(shirt_plan)
        cmp = hl.compare(shirt_plan, ones, ones)
        assert cmp.improvement == 0
        assert cmp.output_ratio == 1

    def test_allocation_above_the_seat_budget_rejected(self):
        plan = make_plan([30, 60, 45], 3)
        ones = hl.Allocation.ones(plan)
        with pytest.raises(DomainError, match="13 stations"):
            hl.compare(plan, ones, hl.Allocation({1: 4, 2: 5, 3: 4}))
        with pytest.raises(DomainError, match="seat budget"):
            hl.compare(plan, hl.Allocation({1: 1, 2: 2, 3: 1}), ones)

    def test_tiny_baseline_falls_back_to_exact_view(self):
        # a UPPH below 0.01 truncates to zero, so the displayed ratio
        # silently switches to the full precision value instead of dividing
        # by zero
        plan = make_plan([450_000, 1], 3)
        ones = hl.Allocation.ones(plan)
        better = hl.Allocation({1: 2, 2: 1})
        cmp = hl.compare(plan, ones, better)
        assert cmp.improvement_displayed == cmp.improvement


@given(
    output=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(10_000)),
    workers=st.integers(min_value=1, max_value=500),
    scale=st.integers(min_value=2, max_value=9),
)
def test_upph_scales_with_output(output, workers, scale):
    base = hl.upph(output, workers)
    assert hl.upph(output * scale, workers) == base * scale
    assert hl.upph(output, workers * scale) == base / scale


@given(
    a=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(100)),
    b=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(100)),
)
def test_improvement_sign_tracks_direction(a, b):
    forward = hl.eff_improvement(b, a)
    if b > a:
        assert forward > 0
    elif b < a:
        assert forward < 0
    else:
        assert forward == 0


@given(x=st.fractions(min_value=Fraction(0), max_value=Fraction(10_000)))
def test_truncation_never_exceeds_the_value(x):
    t = hl.truncate_decimals(x)
    assert t <= x
    assert x - t < Fraction(1, 100)
    assert t.denominator in (1, 2, 4, 5, 10, 20, 25, 50, 100)
