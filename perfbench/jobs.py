"""The four workloads: their jobs and the checks on each job's output.

A job is a callable that runs the program and returns a check; the check
returns the list of problems found in the output (empty when correct). The
harness times the job, not the check.
"""
from __future__ import annotations

import json
import math
import re
import subprocess
from fractions import Fraction
from pathlib import Path

import hangerline as hl

import gen

# Station counts at a 32-seat budget (the suite's EXPECTED_COUNTS_32).
SHIRT_COUNTS_32 = {
    19: 1, 20: 1, 21: 2, 22: 1, 23: 1, 24: 1, 25: 2,
    35: 2, 36: 2, 37: 3, 38: 1, 39: 2, 40: 3, 41: 1,
    42: 2, 43: 2, 44: 2, 45: 2, 46: 1,
}
ALPHA_GRID = [Fraction(k, 10) for k in range(1, 11)] + [Fraction(1, 20)]
SECONDS_PER_HOUR = 3600


# ------------------------------------------------------------------ shirt_cli

def _expect_all(text: str, *needles: str) -> list[str]:
    return [f"missing {n!r}" for n in needles if n not in text]


def _table_counts(stdout: str) -> dict[int, int]:
    counts = {}
    for row in stdout.splitlines():
        cells = row.split()
        if cells and cells[0].isdigit() and len(cells) >= 4:
            counts[int(cells[0])] = int(cells[-2])
    return counts


def _check_balance_table(out: str) -> list[str]:
    problems = _expect_all(out, "total: 32 seats; line cycle time 40 sec/pc", "90 pc per 3600 s")
    if _table_counts(out) != SHIRT_COUNTS_32:
        problems.append(f"station counts {_table_counts(out)}")
    return problems


def _check_optimal_json(out: str) -> list[str]:
    doc = json.loads(out)
    problems = []
    if {int(k): v for k, v in doc["allocation"].items()} != SHIRT_COUNTS_32:
        problems.append(f"allocation {doc['allocation']}")
    if doc["line_cycle_time"] != "40" or doc["total_stations"] != 32:
        problems.append(f"CT {doc['line_cycle_time']} with {doc['total_stations']} seats")
    return problems


def _check_target_ct(out: str) -> list[str]:
    problems = _expect_all(out, "total: 25 seats; line cycle time 60 sec/pc", "60 pc per 3600 s")
    counts = _table_counts(out)
    if counts.keys() != SHIRT_COUNTS_32.keys() or any(
        counts[k] > SHIRT_COUNTS_32[k] for k in counts
    ):
        problems.append(f"station counts {counts} exceed the 32-seat layout")
    return problems


def _check_compare(out: str) -> list[str]:
    return _expect_all(out, "before: 30 pc/hr", "after: 90 pc/hr", "78.13%", "78.98%")


def _check_robust_json(out: str) -> list[str]:
    doc = json.loads(out)
    got = (doc["throughput_worst"], doc["throughput_best"], doc["regular"])
    return [] if got == (85, 95, "40") else [f"worst/best/regular {got}"]


def _check_sweep(out: str) -> list[str]:
    rows = out.splitlines()
    problems = []
    if len(rows) != 1 + 100 * 20:
        problems.append(f"{len(rows)} rows")
    if rows[-1] != "LINE,1,40,38,42":
        problems.append(f"last row {rows[-1]!r}")
    return problems


def _sim_throughput(out: str) -> tuple[Fraction, int, Fraction]:
    """(pc/hr, pieces in flight at the horizon, post-warmup window in s)."""
    tp = Fraction(re.search(r"throughput: (\S+) pc/hr", out).group(1))
    in_flight = int(re.search(r"in flight (\d+)", out).group(1))
    horizon, warmup = re.search(r"horizon (\S+) s, warmup (\S+) s", out).groups()
    return tp, in_flight, Fraction(horizon) - Fraction(warmup)


def _in_band(tp, worst, best, in_flight: int, window_s) -> list[str]:
    """Throughput inside [worst, best] pc/hr, widened by the pieces that were
    in flight when the window closed."""
    slack = Fraction(in_flight * SECONDS_PER_HOUR) / Fraction(window_s)
    if worst - slack <= tp <= best + slack:
        return []
    return [f"throughput {float(tp):.3f} outside {worst}..{best} +/- {float(slack):.3f}"]


def _check_sim_verify(out: str) -> list[str]:
    return _expect_all(
        out,
        "throughput: 90 pc/hr",
        "verify throughput_matches_static: ok",
        "verify bottleneck_dominates_utilization: ok",
    )


def _check_sim_unbalanced(out: str) -> list[str]:
    return _expect_all(out, "throughput: 30 pc/hr")


def _check_sim_uniform(out: str) -> list[str]:
    tp, in_flight, window = _sim_throughput(out)
    return _in_band(tp, 85, 95, in_flight, window)


def _check_error(stderr: str) -> list[str]:
    problems = [] if stderr.startswith("error:") else [f"stderr {stderr[:80]!r}"]
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def shirt_invocations(root: Path, workdir: Path, seed: int):
    """(name, CLI arguments, expected exit code, output check) for the mix,
    and the same for the contract probe kept out of the counted jobs."""
    data = root / "src" / "hangerline" / "data"
    tasks = str(data / "shirt_main_assembly.csv")
    devs = str(data / "shirt_deviations.csv")
    bad = gen.shirt_bad_inputs(seed, (data / "shirt_main_assembly.csv").read_text())
    for name, text in bad.items():
        (workdir / f"{name}.csv").write_text(text)
    line = ["--tasks", tasks, "--seats", "32"]
    sim = line + ["--hours", "9", "--warmup", "1"]

    def out_check(check):
        return lambda out, errtext: check(out)

    def err_check(out, errtext):
        return _check_error(errtext)

    mix = [
        ("balance_table", ["balance", *line], 0, out_check(_check_balance_table)),
        ("balance_optimal_json", ["balance", *line, "--method", "optimal", "--format", "json"], 0,
         out_check(_check_optimal_json)),
        ("balance_target_ct", ["balance", *line, "--target-ct", "60"], 0, out_check(_check_target_ct)),
        ("compare", ["compare", *line], 0, out_check(_check_compare)),
        ("robust_json", ["robust", *line, "--deviations", devs, "--alpha", "1", "--format", "json"], 0,
         out_check(_check_robust_json)),
        ("sweep", ["sweep", *line, "--deviations", devs, "--alphas", "0.01:1:0.01"], 0,
         out_check(_check_sweep)),
        ("simulate_verify", ["simulate", *sim, "--verify"], 0, out_check(_check_sim_verify)),
        ("simulate_unbalanced", ["simulate", "--tasks", tasks, "--seats", "19", "--hours", "9",
                                 "--warmup", "1"], 0, out_check(_check_sim_unbalanced)),
        ("simulate_uniform_capped", ["simulate", *sim, "--service", "uniform", "--seed", "7",
                                     "--queue-cap", "5"], 0, out_check(_check_sim_uniform)),
        ("seats_below_tasks", ["balance", "--tasks", tasks, "--seats", "10"], 3, err_check),
        ("non_numeric_cell", ["balance", "--tasks", str(workdir / "non_numeric.csv"), "--seats", "32"],
         2, err_check),
    ]
    probe = ("nan_cell", ["balance", "--tasks", str(workdir / "nan.csv"), "--seats", "32"], 2, err_check)
    return mix, probe, [text for _, text in sorted(bad.items())]


def cli_job(command: list[str], env: dict, cwd: Path, expected_exit: int, check, on_done=None):
    """A job that runs one CLI process and checks its exit code and output."""

    def job():
        done = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if on_done is not None:
            on_done()

        def verdict():
            if done.returncode != expected_exit:
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                return [f"exit {done.returncode}, expected {expected_exit} ({tail[0][:120]})"]
            return check(done.stdout, done.stderr)

        return verdict

    return job


# -------------------------------------------------------------- synth_balance

def balance_job(line: gen.Line):
    """parse -> greedy + optimal -> compare -> robust + 11-point sweep -> JSON round trip."""

    def job():
        tasks = hl.parse_tasks(line.csv)
        plan = hl.ProcessPlan(tasks=tasks, seat_budget=line.budget)
        greedy = hl.greedy_balance(plan)
        optimal = hl.optimal_balance(plan)
        comparison = hl.compare(plan, hl.Allocation.ones(plan), greedy.allocation)
        intervals = hl.effective_intervals(plan, greedy.allocation, 1)
        robust = hl.robust_line_report(plan, greedy.allocation, intervals)
        plot = hl.emit_plot_data(hl.alpha_sweep(plan, greedy.allocation, None, ALPHA_GRID))
        back = hl.parse_report(hl.emit_report(greedy, "json"))

        def verdict():
            problems = []
            expected_rows = line.csv.count("\n") - 1
            if len(tasks) != expected_rows:
                problems.append(f"parsed {len(tasks)} of {expected_rows} rows")
            bound = sum((t.cycle_time for t in tasks), Fraction(0)) / line.budget
            for result in (greedy, optimal):
                if result.line_cycle_time < bound:
                    problems.append(f"{result.method} CT below the parallel lower bound")
                if result.total_stations != line.budget:
                    problems.append(f"{result.method} used {result.total_stations} of {line.budget} seats")
            if greedy.line_cycle_time != optimal.line_cycle_time:
                problems.append(f"greedy CT {greedy.line_cycle_time} != optimal {optimal.line_cycle_time}")
            if back != greedy:
                problems.append("BalanceResult JSON round trip changed the result")
            if not robust.line_ct_best <= robust.line_ct_regular <= robust.line_ct_worst:
                problems.append("robust best/regular/worst out of order")
            if comparison.after.output_per_hour < comparison.before.output_per_hour:
                problems.append("balanced output below the one-station line")
            if plot.count("\n") != 1 + len(ALPHA_GRID) * (len(tasks) + 1):
                problems.append(f"plot data has {plot.count(chr(10))} rows")
            return problems

        return verdict

    return job


# ------------------------------------------------------------------ synth_sim

class SimCase:
    """A simulation job with its plan and allocation computed at set-up."""

    @classmethod
    def split_first_probe(cls) -> "SimCase":
        """A balanced deterministic run whose first task has two stations."""
        line = gen.SPLIT_FIRST_PROBE
        return cls(gen.SimSpec(line, "balanced", gen.SIM_WARMUP_H + 1, Fraction(1), 0), "deterministic")

    def __init__(self, spec: gen.SimSpec, service: str):
        self.spec = spec
        self.service = service
        tasks = hl.parse_tasks(spec.line.csv)
        if spec.shape == "ones":
            self.plan = hl.ProcessPlan(tasks=tasks, seat_budget=len(tasks))
            self.allocation = hl.Allocation.ones(self.plan)
        else:
            self.plan = hl.ProcessPlan(tasks=tasks, seat_budget=spec.line.budget)
            self.allocation = hl.greedy_balance(self.plan).allocation
        capped = spec.shape == "capped"
        self.config = hl.SimConfig(
            horizon_s=spec.horizon_h * SECONDS_PER_HOUR,
            warmup_s=gen.SIM_WARMUP_H * SECONDS_PER_HOUR,
            service_model=service,
            seed=spec.sim_seed,
            alpha=spec.alpha,
            queue_capacity=gen.SIM_CAP if capped else None,
            transfer_delay_s=gen.SIM_TRANSFER_DELAY_S if capped else 0,
        )
        # the queue in front of the first slowest task (or the second task's)
        times = [t.cycle_time for t in tasks]
        slowest = times.index(max(times))
        self.trend_task = tasks[max(slowest, 1)].id
        self.line_ct = max(t.cycle_time / self.allocation.count(t.id) for t in tasks)
        if service == "uniform":
            intervals = hl.effective_intervals(self.plan, self.allocation, spec.alpha)
            band = hl.robust_line_report(self.plan, self.allocation, intervals)
            self.band = (band.throughput_worst, band.throughput_best)

    def job(self):
        result = hl.simulate(self.plan, self.allocation, self.config)
        verdict_static = trend = None
        if self.spec.shape == "balanced" and self.service == "deterministic":
            verdict_static = hl.verify_against_static(result, self.plan, self.allocation)
        if self.spec.shape == "ones":
            trend = hl.queue_trend(result, self.trend_task)
        back = hl.parse_report(hl.emit_report(result, "json"))

        def verdict():
            problems = []
            if back != result:
                problems.append("SimResult JSON round trip changed the result")
            if result.completed <= 0:
                problems.append("no pieces completed after warmup")
            if verdict_static is not None and not verdict_static.passed:
                problems.append("verify: " + "; ".join(c.detail for c in verdict_static.checks if not c.passed))
            if trend is not None:
                slope, r2 = trend
                if not (math.isfinite(slope) and -1e-9 <= r2 <= 1 + 1e-9):
                    problems.append(f"queue trend slope {slope} R^2 {r2}")
            window = self.config.horizon_s - self.config.warmup_s
            if trend is not None and self.service == "deterministic" and trend[0] * float(window) < -1.5:
                # arrivals there outpace service, so the queue only swings by one
                # piece around a rising line; such a swing tilts a least-squares
                # fit by at most 1.5 pieces over the window
                problems.append(f"queue before the slowest task shrinks ({trend[0]} pieces/s)")
            in_flight = result.conservation[2]
            static_tp = SECONDS_PER_HOUR / self.line_ct
            if self.service == "uniform":
                problems += _in_band(result.throughput, *self.band, in_flight, window)
            elif result.throughput > static_tp + Fraction(in_flight * SECONDS_PER_HOUR) / window:
                problems.append(f"throughput {float(result.throughput):.3f} beats static {float(static_tp):.3f}")
            return problems

        return verdict
