"""Discrete-event simulation: throughput, WIP behavior, verification checks."""
import collections
import dataclasses
import hashlib
import heapq
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hangerline as hl
from hangerline import DomainError, SimConfig, simulator

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
        # the fit starts at the warmup; the queue itself does not depend on it
        ones = hl.Allocation.ones(baseline_plan)
        whole = hl.simulate(baseline_plan, ones, SimConfig(horizon_s=hours(2)))
        late = hl.simulate(baseline_plan, ones, SimConfig(horizon_s=hours(2), warmup_s=hours(1)))
        assert late.wip_timeseries == whole.wip_timeseries
        slope_all, _ = hl.queue_trend(whole, 37)
        slope_late, r2_late = hl.queue_trend(late, 37)
        assert slope_all > 0
        assert slope_late > 0
        assert slope_late != slope_all
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

    def test_one_sample_after_the_warmup_rejected(self):
        # samples every 60 s: only the one at 600 s falls after a 590 s warmup
        plan = make_plan([30, 40], 2)
        result = hl.simulate(plan, hl.Allocation.ones(plan), SimConfig(horizon_s=600, warmup_s=590))
        with pytest.raises(DomainError, match="^need at least two samples after the warmup"):
            hl.queue_trend(result, 2)


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
        with pytest.raises(DomainError, match="^transfer delay must be >= 0$"):
            SimConfig(horizon_s=100, transfer_delay_s=-1)

    def test_uniform_band_must_stay_positive(self):
        # one task, two stations: raw band 10 +/- 2*6 dips below zero
        plan = hl.ProcessPlan(
            tasks=(hl.Task(id=1, description="x", cycle_time=10, dev_minus=6),),
            seat_budget=2,
        )
        cfg = SimConfig(horizon_s=hours(1), service_model="uniform")
        with pytest.raises(DomainError, match=r"^task 1: alpha\*d_minus = 6 swallows"):
            hl.simulate(plan, hl.Allocation({1: 2}), cfg)

    def test_allocation_must_cover_the_plan(self, shirt_plan):
        with pytest.raises(DomainError):
            hl.simulate(
                shirt_plan, hl.Allocation({19: 1}), SimConfig(horizon_s=hours(1))
            )

    @pytest.mark.parametrize("service, interval, needs", [
        ("deterministic", Fraction(1, 1000), 3_600_000 + 19 * 90),
        ("uniform", Fraction(1, 1000), 3_600_000 + 19 * 95),
        ("uniform", Fraction(1, 3**700), "over 10^100"),
        ("deterministic", Fraction(1, 3**700), "over 10^100"),
        ("deterministic", Fraction(1, 10**5000), "over 10^100"),
    ], ids=["deterministic_1_1000", "uniform_1_1000", "uniform_1_3^700", "deterministic_1_3^700",
            "deterministic_1_10^5000"])
    def test_a_run_past_the_event_bound_is_refused_before_it_starts(
        self, monkeypatch, devs_plan, service, interval, needs
    ):
        # counted at the fastest pace: 90 pieces an hour at the 40 s line CT,
        # 95 at the 38 s low end of its band, through 19 stages, plus one sample
        # per interval. A heap without functions fails the test, not the machine,
        # should the run start
        class NoHeap:
            def __getattr__(self, name):
                raise AssertionError("the run started")

        monkeypatch.setattr(simulator, "heapq", NoHeap())
        alloc = hl.greedy_balance(devs_plan).allocation
        cfg = SimConfig(horizon_s=hours(1), service_model=service, sample_interval_s=interval)
        start = time.process_time()
        with pytest.raises(DomainError) as refused:
            hl.simulate(devs_plan, alloc, cfg)
        assert time.process_time() - start < 1
        assert str(refused.value) == f"the run needs {needs} events, above the limit of 2000000"

    def test_allocation_with_foreign_tasks_rejected(self):
        plan = make_plan([30, 60], 3)
        with pytest.raises(DomainError, match=r"\[99\]"):
            hl.simulate(plan, hl.Allocation({1: 1, 2: 2, 99: 5}), SimConfig(horizon_s=hours(1)))

    def test_allocation_above_the_seat_budget_rejected(self):
        plan = make_plan([30, 60], 3)
        with pytest.raises(DomainError, match="seat budget 3"):
            hl.simulate(plan, hl.Allocation({1: 2, 2: 2}), SimConfig(horizon_s=hours(1)))


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

    def test_negative_tolerance_rejected(self):
        plan = make_plan([60, 60], 2)
        alloc = hl.Allocation.ones(plan)
        run = hl.simulate(plan, alloc, SimConfig(horizon_s=hours(1)))
        with pytest.raises(DomainError, match=r"tolerance must be >= 0, got -1/2$"):
            hl.verify_against_static(run, plan, alloc, tolerance=Fraction(-1, 2))
        # zero asks for an exact match, which pipeline fill denies this run
        assert not hl.verify_against_static(run, plan, alloc, tolerance=0).passed

    def test_bottleneck_a_hair_below_a_saturated_stage_passes(self):
        # the warmup (the 113 s work content) ends while the 5-station
        # bottleneck is still filling; the never-blocked first stage reads 1
        plan = make_plan([33, 16, 64], 10)
        alloc = hl.greedy_balance(plan).allocation
        assert alloc.stations == {1: 3, 2: 2, 3: 5}
        config = SimConfig(horizon_s=hours(1), warmup_s=hours(Fraction(314, 10_000)))
        run = hl.simulate(plan, alloc, config)
        assert run.utilization[1] == 1 > run.utilization[3]
        verdict = hl.verify_against_static(run, plan, alloc)
        assert verdict.passed
        assert verdict.checks[1].detail == "bottleneck utilization 0.9998 vs best other 1.0000"

    def test_bottleneck_well_below_another_stage_fails(self):
        plan = make_plan([33, 16, 64], 10)
        alloc = hl.greedy_balance(plan).allocation
        run = hl.simulate(plan, alloc, SimConfig(horizon_s=hours(1), warmup_s=hours(Fraction(1, 10))))
        utilization = {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(9, 10)}
        verdict = hl.verify_against_static(dataclasses.replace(run, utilization=utilization), plan, alloc)
        failed = [c.name for c in verdict.checks if not c.passed]
        assert failed == ["bottleneck_dominates_utilization"]
        assert verdict.checks[1].detail == "bottleneck utilization 0.9000 vs best other 1.0000"


def odd_plan():
    """Cycle times with denominators 3 and 7 and a 9-seat budget."""
    times = [Fraction(12), Fraction(110, 3), Fraction(73, 7), Fraction(45, 2), Fraction(20)]
    return make_plan(times, 9)


ODD_TIMES = dict(
    horizon_s=Fraction(10000, 3),
    warmup_s=Fraction(3601, 3),
    transfer_delay_s=Fraction(1, 3),
    sample_interval_s=Fraction(7, 3),
)


class TestExactClock:
    """Runs whose times share no common integer unit, pinned to the JSON the
    Fraction-clock simulator produced for them (sha256 of emit_report)."""

    @pytest.mark.parametrize(
        "shape, config, digest",
        [
            ("balanced", dict(horizon_s=3600),
             "c4533659fde22390a237e60c5883bc7118602cdb8a6e584bf19d10ca174d1f7f"),
            ("balanced", ODD_TIMES,
             "9de8acb2d58f803177a7c9c1eb8ed1c2f91c26a9be23a95fbd36d87df5053caf"),
            ("balanced", dict(ODD_TIMES, queue_capacity=2),
             "b8045423c52fec84cc1b479d7ca4e6711114b5754f9ff26e3289be9822765b2c"),
            ("ones", ODD_TIMES,
             "591fd859b260f7fca36d4e71f12e4dfc085452b0811220b7984e9487e678198e"),
        ],
        ids=["plain", "odd_times", "odd_times_cap2", "odd_times_unbalanced"],
    )
    def test_deterministic_json_is_pinned(self, shape, config, digest):
        plan = odd_plan()
        alloc = hl.greedy_balance(plan).allocation if shape == "balanced" else hl.Allocation.ones(plan)
        text = hl.emit_report(hl.simulate(plan, alloc, SimConfig(**config)), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_uniform_json_is_pinned(self, devs_plan):
        # every service time is a draw, so the digest also pins the order of
        # the draws: blocking and transfers must start pieces in the same order
        alloc = hl.greedy_balance(devs_plan).allocation
        cfg = SimConfig(
            horizon_s=hours(2), warmup_s=hours(1), service_model="uniform", seed=7,
            queue_capacity=2, transfer_delay_s=Fraction(3, 2),
        )
        text = hl.emit_report(hl.simulate(devs_plan, alloc, cfg), "json")
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "ab0bb58f7cac3e336fcb9aee28727021557e32e7d13e7b5403c161ec07c7f60c")

    def test_uniform_samples_sit_on_the_exact_grid(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        cfg = SimConfig(
            horizon_s=hours(2), service_model="uniform", seed=7,
            sample_interval_s=Fraction(7, 3), transfer_delay_s=Fraction(1, 3),
        )
        times = [s.time for s in hl.simulate(devs_plan, alloc, cfg).wip_timeseries]
        assert times == [k * Fraction(7, 3) for k in range(len(times))]
        assert times[-1] == Fraction(21595, 3)


def seeded_line(seed, n, shape):
    """A seeded n-task line and its allocation: one station per task, greedy
    at two seats per task, or greedy with a first task twice the slowest, so
    its stage is split."""
    rng = random.Random(seed)
    times = [Fraction(rng.randint(10 * d, 60 * d), d) for d in rng.choices((1, 3, 4, 10), k=n)]
    if shape == "split_first":
        times[0] = 2 * max(times)
    tasks = tuple(
        hl.Task(id=40 + 3 * k, description=f"op {k}", cycle_time=t,
                dev_plus=Fraction(rng.randint(0, 40), 10), dev_minus=Fraction(rng.randint(0, 10), 10))
        for k, t in enumerate(times)
    )
    if shape == "ones":
        plan = hl.ProcessPlan(tasks=tasks, seat_budget=n)
        return plan, hl.Allocation.ones(plan)
    plan = hl.ProcessPlan(tasks=tasks, seat_budget=2 * n)
    return plan, hl.greedy_balance(plan).allocation


@pytest.mark.parametrize(
    "seed, n, shape, config, digest",
    [
        (1, 6, "ones", dict(),
         "73828b01106f6044007c7b80b0f72981ffe142b3ec9bcad0ee299e099d071a38"),
        (2, 8, "balanced", dict(queue_capacity=2, transfer_delay_s=Fraction(3, 2)),
         "57e6d54e7d4f10d1a370949da17dfecc0d90bc713e56743c77b73954645b194f"),
        (3, 5, "split_first", dict(),
         "dd15ec1cc7db5387fa420a8adbd7b11dfdf1b9620b50133857496fe397f93437"),
        (4, 7, "balanced", dict(queue_capacity=1, transfer_delay_s=Fraction(7, 3)),
         "a3be27fc347f800e1b18981ef96a8885b7d404774d495af3211c030b028d4fa6"),
        (5, 6, "balanced", dict(service_model="uniform", seed=11),
         "043e4f928d72b8d95d81bcded1a3a0786fb439e148be873f70396865b340abe1"),
        (6, 8, "split_first", dict(service_model="uniform", seed=12, queue_capacity=2,
                                   transfer_delay_s=Fraction(3, 2)),
         "3e2f982cd792f2a72128dfa08ac95139e42cc6c832dc71748d04e41d6e476fa4"),
        (7, 5, "ones", dict(service_model="uniform", seed=13, alpha=Fraction(1, 2), queue_capacity=3,
                            transfer_delay_s=Fraction(1, 3)),
         "09bf0bb62f3d40bfcd3caa982d5da2fc1dbb97fcdc33ad1f6ad0f2c978cfa621"),
        (8, 3, "split_first", dict(service_model="uniform", seed=14, transfer_delay_s=Fraction(5, 4),
                                   sample_interval_s=45),
         "a41dd7430608c55a6ad98a3bd234bfca7c71107c46e3785d253fd3228e264b18"),
    ],
    ids=["det_ones", "det_cap2_delay", "det_split_first", "det_cap1_delay_7_3",
         "uni_balanced", "uni_split_first_cap2_delay", "uni_ones_cap3_delay_1_3", "uni_split_first_delay"],
)
def test_seeded_synthetic_runs_are_pinned(seed, n, shape, config, digest):
    # digests of emit_report taken from the simulator before its event loop was
    # folded into one loop: the heap order, the draws and the samples are fixed
    plan, alloc = seeded_line(seed, n, shape)
    cfg = SimConfig(horizon_s=hours(2), warmup_s=hours(Fraction(1, 2)), **config)
    text = hl.emit_report(hl.simulate(plan, alloc, cfg), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_heap_pushes_are_pinned(monkeypatch, shirt_plan, balanced):
    # a service start runs in the step that frees its server or fills its
    # queue; a START event is pushed only for the first release and where a
    # queue slot opens, to wake the stage upstream and the loader. The ARRIVE
    # an END schedules is held out of the heap and enters it by heappushpop.
    # Every function the stub does not count is the real heapq's, so a new heap
    # call in the loop moves a pinned count rather than raising AttributeError
    kinds = collections.Counter()

    class CountingHeap:
        def __getattr__(self, name):
            return getattr(heapq, name)

        @staticmethod
        def heappush(heap, item):
            kinds[item[3]] += 1
            heapq.heappush(heap, item)

        @staticmethod
        def heappushpop(heap, item):
            kinds[item[3]] += 1
            return heapq.heappushpop(heap, item)

    monkeypatch.setattr(simulator, "heapq", CountingHeap())
    hl.simulate(shirt_plan, balanced.allocation, SimConfig(horizon_s=hours(9), warmup_s=hours(1)))
    assert kinds == {
        simulator._ARRIVE: 14_371, simulator._END: 15_182, simulator._START: 811, simulator._SAMPLE: 541,
    }
    assert kinds.total() == 30_905


@st.composite
def small_runs(draw):
    n = draw(st.integers(1, 5))
    times = [
        Fraction(draw(st.integers(5 * den, 60 * den)), den)
        for den in draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    ]
    tasks = tuple(
        hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t, dev_plus=t / 4, dev_minus=t / 5)
        for i, t in enumerate(times)
    )
    extra = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    plan = hl.ProcessPlan(tasks=tasks, seat_budget=n + sum(extra))
    alloc = hl.Allocation({t.id: draw(st.integers(1, 1 + e)) for t, e in zip(tasks, extra)})
    horizon = Fraction(draw(st.integers(60, 7200 * 4)), 4)
    config = SimConfig(
        horizon_s=horizon,
        warmup_s=horizon * Fraction(draw(st.integers(0, 9)), 10),
        service_model=draw(st.sampled_from(["deterministic", "uniform"])),
        seed=draw(st.integers(0, 2**32)),
        alpha=Fraction(1, draw(st.integers(1, 4))),
        queue_capacity=draw(st.none() | st.integers(1, 3)),
        transfer_delay_s=Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 12))),
        sample_interval_s=Fraction(draw(st.integers(1, 600)), draw(st.integers(1, 12))),
    )
    return plan, alloc, config


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_small_runs_replay_conserve_and_sample_on_the_grid(run):
    plan, alloc, config = run
    result = hl.simulate(plan, alloc, config)
    assert result == hl.simulate(plan, alloc, config)
    for sample in result.wip_timeseries:
        assert sample.released == sample.completed + sample.in_flight
    released, completed_total, in_flight = result.conservation
    assert released == completed_total + in_flight
    for u in result.utilization.values():
        assert 0 <= u <= 1
    times = [s.time for s in result.wip_timeseries]
    assert times == [k * config.sample_interval_s for k in range(len(times))]
    assert times[-1] <= config.horizon_s < times[-1] + config.sample_interval_s


def test_uniform_utilization_of_a_flat_out_stage_is_one():
    # on a float clock the sum of this stage's busy spans rounded a few ulps
    # above its capacity in the window; on the tick clock the share is exactly 1
    task = hl.Task(id=1, description="op", cycle_time=Fraction(49, 8), dev_plus=0, dev_minus=1)
    plan = hl.ProcessPlan(tasks=(task,), seat_budget=2)
    cfg = SimConfig(horizon_s=Fraction(5158, 11), warmup_s=0, service_model="uniform", seed=23)
    [share] = hl.simulate(plan, hl.Allocation({1: 2}), cfg).utilization.values()
    assert (type(share), share) == (Fraction, 1)


@st.composite
def greedy_lines(draw):
    """Up to 8 one-decimal task times and a budget of at most 4 seats per task."""
    times = draw(st.lists(st.integers(10, 1200).map(lambda x: Fraction(x, 10)), min_size=1, max_size=8))
    return times, draw(st.integers(len(times), 4 * len(times)))


@settings(max_examples=40, deadline=None)
@given(line=greedy_lines(), slack=st.integers(0, 600))
@example(line=([60, 30, 40], 5), slack=0)  # 2/1/2 stations: the first stage is split
def test_greedy_balanced_lines_run_at_their_static_pace(line, slack):
    # the loader gate must keep every station of a split first stage busy.
    # The warmup covers the fill time, the time one piece would take to visit
    # every station in turn; the window of 50 * seats line cycle times keeps a
    # count that is off by up to one piece per station inside the 2% tolerance
    plan = make_plan(*line)
    balanced = hl.greedy_balance(plan)
    fill = sum(balanced.allocation.count(t.id) * t.cycle_time for t in plan.tasks)
    window = 50 * plan.seat_budget * balanced.line_cycle_time
    cfg = SimConfig(horizon_s=fill + slack + window, warmup_s=fill + slack)
    run = hl.simulate(plan, balanced.allocation, cfg)
    verdict = hl.verify_against_static(run, plan, balanced.allocation)
    assert verdict.passed, [check.detail for check in verdict.checks]
