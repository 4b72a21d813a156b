"""Tests of the benchmark's own helpers: input generation, the percentile
rule, span self-time arithmetic, failure counting and the tracer.

Run from the repository root: python3 -m pytest perfbench/tests
"""
from fractions import Fraction

import pytest

import gen
from harness import Tally, percentile
from spans import Tracer, covered, self_times


# ------------------------------------------------------------- generator

def test_same_seed_gives_identical_bytes():
    assert [l.csv for l in gen.balance_lines(7)] == [l.csv for l in gen.balance_lines(7)]
    for service in ("deterministic", "uniform"):
        assert gen.sim_specs(7, service) == gen.sim_specs(7, service)
    fixture = gen.HEADER + "\n1,a,30\n2,b,40\n"
    assert gen.shirt_bad_inputs(7, fixture) == gen.shirt_bad_inputs(7, fixture)
    texts = [l.csv for l in gen.balance_lines(7)]
    assert gen.digest(texts) == gen.digest(list(texts))


def test_other_seed_gives_other_values_but_same_sizes():
    a, b = gen.balance_lines(1), gen.balance_lines(2)
    assert [l.csv for l in a] != [l.csv for l in b]
    assert [(l.name, l.budget) for l in a] == [(l.name, l.budget) for l in b]
    assert gen.digest(l.csv for l in a) != gen.digest(l.csv for l in b)


def test_balance_lines_follow_the_slots():
    lines = gen.balance_lines(3)
    assert len(lines) == len(gen.BALANCE_SLOTS) * gen.BALANCE_LINES_PER_SLOT
    for line, (n, multiple, palette) in zip(lines, gen.BALANCE_SLOTS * gen.BALANCE_LINES_PER_SLOT):
        rows = [r.split(",") for r in line.csv.splitlines()[1:]]
        assert len(rows) == n and line.budget == n * multiple
        times = [Fraction(r[2]) for r in rows]
        assert all(5 <= t <= 120 for t in times)
        assert all(len(r[2].split(".")[1]) in (1, 2) for r in rows)
        if palette:
            assert len(set(times)) <= 5


def test_sim_specs_share_lines_across_service_models():
    exact, uniform = gen.sim_specs(4, "deterministic"), gen.sim_specs(4, "uniform")
    assert [s.line for s in exact] == [s.line for s in uniform]
    assert {s.alpha for s in uniform} == {Fraction(1, 2), Fraction(1)}
    assert all(s.sim_seed == 0 and s.alpha == 1 for s in exact)


def test_shirt_bad_inputs_corrupt_one_cycle_time_cell():
    fixture = gen.HEADER.rsplit(",", 2)[0] + "\n1,a,30\n2,b,40\n3,c,50\n"
    bad = gen.shirt_bad_inputs(5, fixture)
    assert set(bad) == {"non_numeric", "nan"}
    for text in bad.values():
        changed = [x for x, y in zip(text.splitlines(), fixture.splitlines()) if x != y]
        assert len(changed) == 1
    assert ",nan\n" in bad["nan"]


def test_generated_lines_keep_alpha_one_intervals_positive():
    import hangerline as hl

    for line in gen.balance_lines(11)[: len(gen.BALANCE_SLOTS)]:
        plan = hl.ProcessPlan(tasks=hl.parse_tasks(line.csv), seat_budget=line.budget)
        allocation = hl.greedy_balance(plan).allocation
        hl.robust_line_report(plan, allocation, hl.effective_intervals(plan, allocation, 1))


# ------------------------------------------------------ percentile rule

def test_percentile_is_nearest_rank_with_count_beyond():
    assert percentile(range(1, 101), 90) == (90, 10)
    assert percentile(range(1, 101), 50) == (50, 50)
    assert percentile(range(1, 11), 90) == (9, 1)
    assert percentile([5.0], 90) == (5.0, 0)
    assert percentile([3, 1, 2], 50) == (2, 1)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert percentile(range(99), 90)[1] == 9
    assert percentile(range(100), 90)[1] == 10


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 90)


# ------------------------------------------------------------ self time

def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0
    assert covered([(1, 3), (2, 5), (7, 8)]) == 5
    assert covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 3.0, 0, "j"],
        ["b", 2.0, 5.0, 0, "j"],  # overlaps a: the union counts once
        ["a.inner", 1.5, 2.5, 1, "j"],
        ["c", 7.0, 8.0, 0, "j"],
    ]
    assert self_times(spans) == [5.0, 1.0, 3.0, 1.0, 1.0]


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.job = "0:0"
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    after = tracer.begin("after")
    tracer.end(after)
    assert tracer.spans == [
        ["outer", 0, 3, -1, "0:0"],
        ["inner", 1, 2, 0, "0:0"],
        ["after", 4, 5, -1, "0:0"],
    ]
    assert self_times(tracer.spans) == [2, 1, 1]


def test_tracer_wraps_and_restores_package_functions():
    import hangerline as hl
    import hangerline.balancer as balancer

    original = hl.greedy_balance
    plan = hl.ProcessPlan(tasks=hl.parse_tasks(gen.HEADER + "\n1,a,30,0,0\n2,b,40,0,0\n"), seat_budget=4)
    tracer = Tracer()
    tracer.install()
    try:
        assert hl.greedy_balance is not original
        result = hl.greedy_balance(plan)
    finally:
        tracer.uninstall()
    assert hl.greedy_balance is original and balancer.greedy_balance is original
    assert [s[0] for s in tracer.spans] == ["balancer.greedy"]
    assert tracer.counts["balancer.splits"] == len(result.iterations) == 2
    # each split re-evaluates the line, plus the final figure
    assert tracer.counts["model.line_cycle_time_calls"] == 3


# ---------------------------------------------------- failure counting

def test_tally_counts_every_kind_of_failure_without_raising():
    tally = Tally()

    def raises():
        raise RuntimeError("boom")

    def check_raises():
        return lambda: 1 / 0

    assert tally.run("ok", lambda: lambda: [])
    assert not tally.run("wrong", lambda: lambda: ["CT 41 != 40"])
    assert not tally.run("raises", raises)
    assert not tally.run("check_raises", check_raises)
    assert tally.attempted == 4 and tally.failed == 3
    assert [name for name, _ in tally.failures] == ["wrong", "raises", "check_raises"]
    assert tally.failures[1][1] == "RuntimeError: boom"
    assert all(x >= 0 for x in tally.latencies_s)


def test_tally_times_the_job_not_the_check(monkeypatch):
    import harness

    ticks = iter([0.0, 2.0])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
    tally = Tally()
    tally.run("job", lambda: lambda: [])
    assert tally.latencies_s == [2.0]
