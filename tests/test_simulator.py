"""Discrete-event simulation: throughput, WIP behavior, verification checks."""
from fractions import Fraction

import pytest

import hangerline as hl
from hangerline import DomainError, SimConfig

from .test_model import make_plan


def hours(h):
    return Fraction(3600) * h


class TestSingleStage:
    def test_exact_completion_count(self):
        plan = make_plan([60], 1)
        result = hl.simulate(plan, hl.Allocation.ones(plan), SimConfig(horizon_s=hours(1)))
        assert result.completed == 60
        assert result.completed_total == 60
        assert result.throughput == Fraction(60)
        assert result.utilization == {1: Fraction(1)}

    def test_two_parallel_stations_double_the_pace(self):
        plan = make_plan([60], 2)
        alloc = hl.Allocation({1: 2})
        result = hl.simulate(plan, alloc, SimConfig(horizon_s=hours(1)))
        assert result.completed == 120
        assert result.utilization == {1: Fraction(1)}

    def test_warmup_discards_early_output(self):
        plan = make_plan([60], 1)
        result = hl.simulate(
            plan, hl.Allocation.ones(plan),
            SimConfig(horizon_s=hours(2), warmup_s=hours(1)),
        )
        assert result.completed == 60
        assert result.completed_total == 120


@pytest.fixture(scope="module")
def balanced_run(shirt_plan, balanced):
    cfg = SimConfig(horizon_s=hours(9), warmup_s=hours(1))
    return hl.simulate(shirt_plan, balanced.allocation, cfg)


@pytest.fixture(scope="module")
def unbalanced_run(baseline_plan):
    cfg = SimConfig(horizon_s=hours(9), warmup_s=hours(1))
    return hl.simulate(baseline_plan, hl.Allocation.ones(baseline_plan), cfg)


class TestShirtLineDeterministic:
    def test_balanced_throughput_matches_static(self, balanced_run):
        assert balanced_run.throughput == Fraction(90)

    def test_balanced_queues_stay_bounded(self, balanced_run):
        for tid in balanced_run.wip_timeseries[0].queue_lengths:
            slope, _ = hl.queue_trend(balanced_run, tid)
            assert abs(slope) < 1e-4

    def test_balanced_bottlenecks_run_flat_out(self, balanced_run):
        util = balanced_run.utilization
        for tid in (20, 22, 37, 38, 39, 43, 44):
            assert util[tid] == Fraction(1)
        assert util[40] == Fraction(11, 12)

    def test_verify_passes(self, balanced_run, shirt_plan, balanced):
        verdict = hl.verify_against_static(balanced_run, shirt_plan, balanced.allocation)
        assert verdict.passed
        assert [c.name for c in verdict.checks] == [
            "throughput_matches_static",
            "bottleneck_dominates_utilization",
        ]
        assert all(c.passed for c in verdict.checks)

    def test_unbalanced_throughput(self, unbalanced_run):
        assert unbalanced_run.throughput == Fraction(30)

    def test_wip_piles_up_before_the_slowest_task(self, unbalanced_run):
        slope, r2 = hl.queue_trend(unbalanced_run, 37)
        assert slope > 0
        assert r2 > 0.9
        # task 37 takes 120 s while its feeder finishes every 60 s
        assert abs(slope - 1 / 120) < 1e-6

    def test_unbalanced_verify_still_consistent(self, unbalanced_run, baseline_plan):
        verdict = hl.verify_against_static(
            unbalanced_run, baseline_plan, hl.Allocation.ones(baseline_plan)
        )
        assert verdict.passed

    def test_conservation_holds_at_every_sample(self, balanced_run, unbalanced_run):
        for run in (balanced_run, unbalanced_run):
            for sample in run.wip_timeseries:
                in_queues = sum(sample.queue_lengths.values())
                assert sample.released == sample.completed + sample.in_flight
                assert in_queues <= sample.in_flight
            released, completed_total, in_flight = run.conservation
            assert released == completed_total + in_flight

    def test_samples_arrive_every_minute(self, balanced_run):
        times = [s.time for s in balanced_run.wip_timeseries]
        assert times[0] == 0
        assert times[-1] == hours(9)
        assert all(b - a == 60 for a, b in zip(times, times[1:]))


class TestReplay:
    def test_deterministic_replay_is_bit_identical(self, shirt_plan, balanced):
        cfg = SimConfig(horizon_s=hours(2), warmup_s=hours(1))
        a = hl.simulate(shirt_plan, balanced.allocation, cfg)
        b = hl.simulate(shirt_plan, balanced.allocation, cfg)
        assert a == b

    def test_uniform_replay_is_bit_identical(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        cfg = SimConfig(
            horizon_s=hours(2), warmup_s=hours(1), service_model="uniform", seed=7
        )
        a = hl.simulate(devs_plan, alloc, cfg)
        b = hl.simulate(devs_plan, alloc, cfg)
        assert a == b

    def test_different_seeds_differ(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        runs = [
            hl.simulate(
                devs_plan,
                alloc,
                SimConfig(
                    horizon_s=hours(2), warmup_s=hours(1),
                    service_model="uniform", seed=seed,
                ),
            )
            for seed in (1, 2)
        ]
        assert runs[0].wip_timeseries != runs[1].wip_timeseries

    def test_uniform_interval_alias(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        cfg = SimConfig(horizon_s=hours(1), service_model="uniform-interval", seed=3)
        assert cfg.service_model == "uniform"
        alias = hl.simulate(devs_plan, alloc, cfg)
        direct = hl.simulate(
            devs_plan, alloc,
            SimConfig(horizon_s=hours(1), service_model="uniform", seed=3),
        )
        assert alias == direct

    def test_uniform_throughput_lands_in_the_static_band(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        cfg = SimConfig(
            horizon_s=hours(3), warmup_s=hours(1), service_model="uniform", seed=11
        )
        result = hl.simulate(devs_plan, alloc, cfg)
        assert Fraction(80) < result.throughput < Fraction(100)


class TestBlockingAndCapacity:
    def test_bounded_queues_cap_total_wip(self, shirt_plan, balanced):
        cfg = SimConfig(horizon_s=hours(2), queue_capacity=2)
        result = hl.simulate(shirt_plan, balanced.allocation, cfg)
        stations = balanced.allocation.total
        n_queues = len(result.wip_timeseries[0].queue_lengths)
        for sample in result.wip_timeseries:
            assert all(q <= 2 for q in sample.queue_lengths.values())
            # pieces live in queues or on stations (plus at most one
            # finished piece held per station while blocked)
            assert sample.in_flight <= 2 * n_queues + 2 * stations

    def test_downstream_blocking_throttles_a_fast_feeder(self):
        # stage 1 takes 10 s, stage 2 takes 50 s, one slot between them:
        # the feeder must hold finished pieces, so it cannot run at 10 s pace
        plan = make_plan([10, 50], 2)
        cfg = SimConfig(horizon_s=hours(1), queue_capacity=1)
        result = hl.simulate(plan, hl.Allocation.ones(plan), cfg)
        assert result.throughput <= Fraction(3600, 50)
        # near 10/50 busy, slightly above because of the pipeline fill
        assert Fraction(1, 5) <= result.utilization[1] < Fraction(1, 4)
        assert result.utilization[2] > Fraction(9, 10)
        for sample in result.wip_timeseries:
            assert sample.queue_lengths[2] <= 1

    def test_blocking_does_not_deadlock(self):
        plan = make_plan([30, 30, 30], 3)
        cfg = SimConfig(horizon_s=hours(1), queue_capacity=1)
        result = hl.simulate(plan, hl.Allocation.ones(plan), cfg)
        # steady state: one piece every 30 s minus the pipeline fill
        assert result.completed >= 115

    def test_transfer_delay_paces_admissions(self):
        # the admission gate counts pieces still in transit toward the
        # second stage, so a 30 s hop stretches the 60 s cycle to 90 s:
        # completions land at 150, 240, ..., 3570
        plan = make_plan([60, 60], 2)
        none = hl.simulate(
            plan, hl.Allocation.ones(plan), SimConfig(horizon_s=hours(1))
        )
        delayed = hl.simulate(
            plan, hl.Allocation.ones(plan),
            SimConfig(horizon_s=hours(1), transfer_delay_s=30),
        )
        assert none.completed == 59
        assert delayed.completed == 39


class TestQueueTrend:
    def test_constant_series_has_zero_slope(self, shirt_plan, balanced):
        result = hl.simulate(
            shirt_plan, balanced.allocation, SimConfig(horizon_s=hours(1))
        )
        slope, r2 = hl.queue_trend(result, 21)
        assert abs(slope) < 1e-9
        assert r2 == 0.0

    def test_after_filter(self, baseline_plan):
        result = hl.simulate(
            baseline_plan, hl.Allocation.ones(baseline_plan),
            SimConfig(horizon_s=hours(2)),
        )
        slope_all, _ = hl.queue_trend(result, 37)
        slope_late, r2_late = hl.queue_trend(result, 37, after=hours(1))
        assert slope_all > 0
        assert slope_late > 0
        assert r2_late > 0.9

    def test_unknown_task_rejected(self, shirt_plan, balanced):
        result = hl.simulate(
            shirt_plan, balanced.allocation, SimConfig(horizon_s=hours(1))
        )
        with pytest.raises(DomainError):
            hl.queue_trend(result, 999)
        # stage 0 has no upstream queue to measure
        with pytest.raises(DomainError):
            hl.queue_trend(result, 19)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(horizon_s=0)
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, warmup_s=100)
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, warmup_s=-1)
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, service_model="gaussian")
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, seed=-1)
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, queue_capacity=0)
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, queue_capacity=True)
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, alpha=Fraction(3, 2))
        with pytest.raises(DomainError):
            SimConfig(horizon_s=100, sample_interval_s=0)

    def test_uniform_band_must_stay_positive(self):
        # one task, two stations: raw band 10 +/- 2*6 dips below zero
        plan = hl.ProcessPlan(
            tasks=(hl.Task(id=1, description="x", cycle_time=10, dev_minus=6),),
            seat_budget=2,
        )
        cfg = SimConfig(horizon_s=hours(1), service_model="uniform")
        with pytest.raises(DomainError):
            hl.simulate(plan, hl.Allocation({1: 2}), cfg)

    def test_allocation_must_cover_the_plan(self, shirt_plan):
        with pytest.raises(DomainError):
            hl.simulate(
                shirt_plan, hl.Allocation({19: 1}), SimConfig(horizon_s=hours(1))
            )


class TestVerifyAgainstStatic:
    def test_rejects_mismatched_inputs(self, shirt_plan, balanced, baseline_plan):
        run = hl.simulate(
            shirt_plan, balanced.allocation, SimConfig(horizon_s=hours(1))
        )
        with pytest.raises(DomainError):
            hl.verify_against_static(run, baseline_plan, hl.Allocation.ones(baseline_plan))
        with pytest.raises(DomainError):
            hl.verify_against_static(run, shirt_plan, hl.Allocation.ones(shirt_plan))

    def test_rejects_stochastic_runs(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        run = hl.simulate(
            devs_plan, alloc,
            SimConfig(horizon_s=hours(1), service_model="uniform"),
        )
        with pytest.raises(DomainError):
            hl.verify_against_static(run, devs_plan, alloc)

    def test_ramp_up_gap_fails_a_tight_tolerance(self):
        # two 60 s stages with no warmup: the first completion lands at
        # t=120, so one piece of the hour is lost to pipeline fill
        plan = make_plan([60, 60], 2)
        alloc = hl.Allocation.ones(plan)
        run = hl.simulate(plan, alloc, SimConfig(horizon_s=hours(1)))
        assert run.completed == 59
        verdict = hl.verify_against_static(
            run, plan, alloc, tolerance=Fraction(1, 10_000)
        )
        assert not verdict.passed
        failed = [c for c in verdict.checks if not c.passed]
        assert [c.name for c in failed] == ["throughput_matches_static"]

    def test_loose_tolerance_accepts_the_same_run(self):
        plan = make_plan([60, 60], 2)
        alloc = hl.Allocation.ones(plan)
        run = hl.simulate(plan, alloc, SimConfig(horizon_s=hours(1)))
        verdict = hl.verify_against_static(run, plan, alloc, tolerance=Fraction(2, 100))
        assert verdict.passed
