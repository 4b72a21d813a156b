"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single line
"ACCEPTANCE n: PASS/FAIL - detail" (run with -s to see them live).
The numbers and tolerances match the shipped defaults; every scenario
uses only the bundled fixtures and the public API.
"""
import json
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import hangerline as hl
from hangerline.cli import main

from .conftest import EXPECTED_COUNTS_32
from .oracles import exhaustive_balance


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


@contextmanager
def criterion(n):
    """Guarantee the pass/fail line even when a scenario blows up."""
    try:
        yield
    except AssertionError:
        raise
    except BaseException as exc:
        print(f"ACCEPTANCE {n}: FAIL - crashed: {exc!r}", flush=True)
        raise


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"exit {code}"
    return json.loads(out)


def test_criterion_1_golden_station_counts(capsys, tasks_csv_path):
    with criterion(1):
        start = time.perf_counter()
        data = cli_json(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--method", "greedy", "--format", "json",
        )
        elapsed = time.perf_counter() - start
        counts = {int(k): v for k, v in data["allocation"].items()}
        ok = (
            counts == EXPECTED_COUNTS_32
            and data["total_stations"] == 32
            and data["line_cycle_time"] == "40"
            and elapsed < 1.0
        )
        report(
            1, ok,
            f"greedy at 32 seats: per-task counts exact, total 32, "
            f"line CT 40 sec/pc, {elapsed:.3f} s",
        )


def test_criterion_2_optimal_agrees(capsys, tasks_csv_path):
    with criterion(2):
        start = time.perf_counter()
        optimal32 = cli_json(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--method", "optimal", "--format", "json",
        )
        greedy19 = cli_json(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "19",
            "--method", "greedy", "--format", "json",
        )
        optimal19 = cli_json(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "19",
            "--method", "optimal", "--format", "json",
        )
        elapsed = time.perf_counter() - start
        ok = (
            optimal32["line_cycle_time"] == "40"
            and greedy19["line_cycle_time"] == "120"
            and optimal19["line_cycle_time"] == "120"
            and elapsed < 1.0
        )
        report(
            2, ok,
            f"optimal CT 40 at 32 seats; both methods CT 120 at 19 seats, "
            f"{elapsed:.3f} s",
        )


def test_criterion_3_method_equivalence_on_random_instances():
    with criterion(3):
        rng = random.Random(13)
        start = time.perf_counter()
        instances = 0
        for _ in range(1000):
            n = rng.randint(1, 8)
            times = [rng.randint(1, 120) for _ in range(n)]
            budget = rng.randint(n, 12)
            plan = hl.ProcessPlan(
                tasks=tuple(
                    hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t)
                    for i, t in enumerate(times)
                ),
                seat_budget=budget,
            )
            g = hl.greedy_balance(plan).line_cycle_time
            o = hl.optimal_balance(plan).line_cycle_time
            e = exhaustive_balance(plan).line_cycle_time
            assert g == o == e, f"methods disagree on times={times} budget={budget}"
            assert hl.parallel_lower_bound(plan, budget) <= g <= max(
                Fraction(t) for t in times
            ), f"bounds violated on times={times} budget={budget}"
            instances += 1
        elapsed = time.perf_counter() - start
        ok = instances == 1000 and elapsed < 60.0
        report(
            3, ok,
            f"greedy, optimal and exhaustive agree on {instances} random "
            f"instances inside the lower/upper bounds, {elapsed:.1f} s",
        )


def test_criterion_4_productivity_metrics(shirt_plan, balanced):
    with criterion(4):
        ones = hl.Allocation.ones(shirt_plan)
        cmp = hl.compare(shirt_plan, ones, balanced.allocation)
        table = hl.emit_report(cmp, format="table")
        checks = [
            hl.work_content(shirt_plan) == Fraction(1090),
            cmp.before.output_per_hour == Fraction(30),
            cmp.after.output_per_hour == Fraction(90),
            abs(cmp.before.upph - Fraction(15789, 10000)) <= Fraction(1, 10000),
            abs(cmp.after.upph - Fraction(28125, 10000)) <= Fraction(1, 10000),
            abs(cmp.improvement * 100 - Fraction(7813, 100)) <= Fraction(1, 100),
            abs(cmp.improvement_displayed * 100 - Fraction(7898, 100))
            <= Fraction(1, 100),
            # both views appear side by side in the rendered report
            "78.13%" in table and "78.98%" in table,
        ]
        report(
            4, all(checks),
            "work content 1090 s; 30 and 90 pc/hr; UPPH 1.5789 and 2.8125; "
            "gain 78.13% exact and 78.98% from the two-decimal figures, "
            "both shown in the report",
        )


def test_criterion_5_robust_bounds(shirt_plan, balanced, deviations):
    with criterion(5):
        intervals = hl.effective_intervals(
            shirt_plan, balanced.allocation, 1, deviations
        )
        rep = hl.robust_line_report(shirt_plan, balanced.allocation, intervals)
        checks = [
            rep.line_ct_worst == Fraction(42),
            rep.line_ct_best == Fraction(38),
            rep.throughput_worst == 85,
            rep.throughput_best == 95,
            abs(rep.upph_min - Fraction(2656, 1000)) <= Fraction(5, 1000),
            abs(rep.upph_max - Fraction(2969, 1000)) <= Fraction(5, 1000),
            abs(rep.eff_min_displayed * 100 - 69) <= 1,
            abs(rep.eff_max_displayed * 100 - 89) <= 1,
        ]
        report(
            5, all(checks),
            "alpha 1 band: line CT 38..42, throughput 85..95 pc/hr, "
            "UPPH 2.656..2.969, gain 69%..89% from the printed figures",
        )


def test_criterion_6_simulation_matches_static(shirt_plan, balanced, baseline_plan):
    with criterion(6):
        cfg = hl.SimConfig(horizon_s=Fraction(3600 * 9), warmup_s=Fraction(3600))

        start = time.perf_counter()
        run_balanced = hl.simulate(shirt_plan, balanced.allocation, cfg)
        t_balanced = time.perf_counter() - start

        start = time.perf_counter()
        run_ones = hl.simulate(baseline_plan, hl.Allocation.ones(baseline_plan), cfg)
        t_ones = time.perf_counter() - start

        balanced_gap = abs(run_balanced.throughput - 90) / Fraction(90)
        ones_gap = abs(run_ones.throughput - 30) / Fraction(30)
        trends = [
            hl.queue_trend(run_balanced, tid)[0]
            for tid in run_balanced.wip_timeseries[0].queue_lengths
        ]
        slope37, r2_37 = hl.queue_trend(run_ones, 37)
        checks = [
            balanced_gap <= Fraction(2, 100),
            all(slope <= 1e-4 for slope in trends),
            ones_gap <= Fraction(2, 100),
            slope37 > 0 and r2_37 > 0.9,
            t_balanced < 10.0 and t_ones < 10.0,
        ]
        report(
            6, all(checks),
            f"balanced run {float(run_balanced.throughput):.1f} pc/hr with flat "
            f"queues in {t_balanced:.1f} s; single-station run "
            f"{float(run_ones.throughput):.1f} pc/hr with the queue before "
            f"task 37 growing (slope {slope37:.4f}/s, R2 {r2_37:.3f}) "
            f"in {t_ones:.1f} s",
        )


def test_criterion_7_simulator_properties(shirt_plan, balanced, devs_plan):
    with criterion(7):
        det_cfg = hl.SimConfig(horizon_s=Fraction(3600 * 3), warmup_s=Fraction(3600))
        det_a = hl.simulate(shirt_plan, balanced.allocation, det_cfg)
        det_b = hl.simulate(shirt_plan, balanced.allocation, det_cfg)

        alloc = hl.greedy_balance(devs_plan).allocation
        uni_cfg = hl.SimConfig(
            horizon_s=Fraction(3600 * 3), warmup_s=Fraction(3600),
            service_model="uniform", seed=2024,
        )
        uni_a = hl.simulate(devs_plan, alloc, uni_cfg)
        uni_b = hl.simulate(devs_plan, alloc, uni_cfg)

        conserved = all(
            sample.released == sample.completed + sample.in_flight
            for run in (det_a, uni_a)
            for sample in run.wip_timeseries
        )

        throughputs = []
        for seed in range(10):
            cfg = hl.SimConfig(
                horizon_s=Fraction(3600 * 3), warmup_s=Fraction(3600),
                service_model="uniform", seed=seed,
            )
            throughputs.append(
                float(hl.simulate(devs_plan, alloc, cfg).throughput)
            )
        mean_tp = statistics.mean(throughputs)

        checks = [
            conserved,
            det_a == det_b,
            uni_a == uni_b,
            85 * 0.95 <= mean_tp <= 95 * 1.05,
        ]
        report(
            7, all(checks),
            f"piece conservation at every sample; replays bit-identical; "
            f"mean throughput over 10 seeds {mean_tp:.1f} pc/hr inside "
            f"[80.75, 99.75]",
        )


def test_criterion_8_round_trip_and_exit_codes(
    capsys, main_tasks, tasks_csv_path, tmp_path
):
    with criterion(8):
        round_trip = hl.parse_tasks(hl.emit_tasks(main_tasks)) == main_tasks

        bad = tmp_path / "bad.csv"
        bad.write_text("task_id,description,cycle_time_sec\n1,x,soon\n")
        code_malformed = main(["balance", "--tasks", str(bad), "--seats", "4"])
        code_infeasible = main(
            ["balance", "--tasks", tasks_csv_path, "--seats", "5"]
        )
        capsys.readouterr()

        ok = round_trip and code_malformed == 2 and code_infeasible == 3
        report(
            8, ok,
            f"load/emit round trip exact; malformed input exits "
            f"{code_malformed}; infeasible budget exits {code_infeasible}",
        )
