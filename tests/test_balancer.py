"""Balancing strategies: greedy splitting, warm-started optimal, exhaustive oracle."""
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hangerline as hl
from hangerline import DomainError

from .conftest import EXPECTED_COUNTS_32
from .oracles import exhaustive_balance
from .test_model import make_plan


class TestGreedyOnShirtLine:
    def test_station_counts_at_32_seats(self, shirt_plan, balanced):
        assert balanced.allocation.stations == EXPECTED_COUNTS_32
        assert balanced.total_stations == 32
        assert balanced.line_cycle_time == Fraction(40)
        assert balanced.method == "greedy"

    def test_split_sequence(self, balanced):
        # each split picks the current bottleneck, lowest task id on ties
        split_ids = [tid for tid, _ in balanced.iterations]
        assert split_ids == [37, 40, 39, 43, 44, 45, 21, 35, 36, 37, 42, 40, 25]
        assert balanced.iterations[0] == (37, Fraction(110))
        assert balanced.iterations[-1] == (25, Fraction(40))
        # the recorded line CT after each split never increases
        cts = [ct for _, ct in balanced.iterations]
        assert all(a >= b for a, b in zip(cts, cts[1:]))

    def test_all_ones_budget(self, baseline_plan):
        result = hl.greedy_balance(baseline_plan)
        assert result.total_stations == 19
        assert result.line_cycle_time == Fraction(120)
        assert result.iterations == ()

    def test_target_ct_stops_early(self, shirt_plan):
        result = hl.greedy_balance(shirt_plan, target_ct=60)
        assert result.line_cycle_time <= Fraction(60)
        assert [tid for tid, _ in result.iterations] == [37, 40, 39, 43, 44, 45]
        assert result.total_stations == 25

    def test_unreachable_target_spends_whole_budget(self, shirt_plan):
        result = hl.greedy_balance(shirt_plan, target_ct=1)
        assert result.total_stations == 32
        assert result.line_cycle_time == Fraction(40)


class TestGreedySmall:
    def test_two_equal_tasks(self):
        plan = make_plan([10, 10], 4)
        result = hl.greedy_balance(plan)
        assert result.allocation.stations == {1: 2, 2: 2}
        assert result.line_cycle_time == Fraction(5)

    def test_tie_breaks_to_lowest_id(self):
        plan = make_plan([10, 10], 3)
        result = hl.greedy_balance(plan)
        # one spare seat; the tie at 10 goes to task 1
        assert result.allocation.stations == {1: 2, 2: 1}
        assert result.iterations == ((1, Fraction(10)),)

    def test_single_task(self):
        plan = make_plan([120], 3)
        result = hl.greedy_balance(plan)
        assert result.allocation.stations == {1: 3}
        assert result.line_cycle_time == Fraction(40)

    def test_rejects_nonpositive_target(self):
        plan = make_plan([10, 10], 4)
        with pytest.raises(DomainError):
            hl.greedy_balance(plan, target_ct=0)


class TestOptimal:
    def test_matches_greedy_on_shirt_line(self, shirt_plan, balanced):
        result = hl.optimal_balance(shirt_plan)
        assert result.line_cycle_time == balanced.line_cycle_time == Fraction(40)
        assert result.total_stations == 32
        assert result.method == "optimal"

    def test_all_ones_budget(self, baseline_plan):
        result = hl.optimal_balance(baseline_plan)
        assert result.line_cycle_time == Fraction(120)

    def test_leftover_seats_pad_the_bottleneck(self):
        # CT* = 5 needs {2, 2}; the fifth seat goes to the bottleneck (task 1),
        # which leaves task 2 as the pace setter, so the line CT stays 5
        plan = make_plan([10, 10], 5)
        result = hl.optimal_balance(plan)
        assert result.line_cycle_time == Fraction(5)
        assert result.total_stations == 5
        assert result.allocation.stations == {1: 3, 2: 2}
        assert result.iterations[-1] == (1, Fraction(5))

    def test_fractional_candidate_cts(self):
        # best CT is 110/3, not an integer
        plan = make_plan([110], 3)
        result = hl.optimal_balance(plan)
        assert result.line_cycle_time == Fraction(110, 3)


class TestHeapKeyOrder:
    """The heap compares a float lead first; these lines defeat a float-only key."""

    def test_equal_float_leads_split_the_exactly_larger_time(self):
        near_one = Fraction(2**53 + 1, 2**53)
        assert float(near_one) == 1.0
        result = hl.greedy_balance(make_plan([1, near_one], 3))
        assert result.iterations == ((2, Fraction(1)),)

    def test_exact_ties_split_the_lowest_id(self):
        # plan order is not id order; equal times give equal leads and exact keys
        tasks = [hl.Task(id=i, description=f"op {i}", cycle_time=Fraction(1, 3)) for i in (3, 1, 2)]
        result = hl.greedy_balance(hl.ProcessPlan(tasks=tasks, seat_budget=5))
        assert [task_id for task_id, _ in result.iterations] == [1, 2]

    @pytest.mark.parametrize("times", [
        # leads past the largest float: 10**400 / s overflows for every s here
        [Fraction(10**400), Fraction(3 * 10**399), 7],
        # leads that underflow to 0.0
        [Fraction(1, 10**400), Fraction(3, 10**401), Fraction(1, 7 * 10**399)],
    ], ids=["overflow", "underflow"])
    def test_extreme_times_match_the_oracle(self, times):
        plan = make_plan(times, 7)
        greedy, optimal = hl.greedy_balance(plan), hl.optimal_balance(plan)
        assert greedy.line_cycle_time == optimal.line_cycle_time == exhaustive_balance(plan).line_cycle_time
        assert greedy.allocation == optimal.allocation


@settings(max_examples=100, deadline=None)
@given(
    units=st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), min_size=1, max_size=5),
    extra=st.integers(0, 5),
)
def test_near_tie_lines_split_the_exact_bottleneck(units, extra):
    # times a + k/2**53 differ below the float spacing near a, so most leads tie
    times = [Fraction(a * 2**53 + k, 2**53) for a, k in units]
    plan = make_plan(times, len(times) + extra)
    result = hl.greedy_balance(plan)
    assert result.line_cycle_time == exhaustive_balance(plan).line_cycle_time
    stations = dict.fromkeys(plan.task_ids, 1)
    for task_id, _ in result.iterations:
        assert task_id == min(stations, key=lambda i: (-times[i - 1] / stations[i], i))
        stations[task_id] += 1


class TestExhaustive:
    def test_known_small_instances(self):
        plan = make_plan([9, 6, 3], 6)
        result = exhaustive_balance(plan)
        assert result.allocation.stations == {1: 3, 2: 2, 3: 1}
        assert result.line_cycle_time == Fraction(3)

        plan = make_plan([60, 30], 3)
        assert exhaustive_balance(plan).allocation.stations == {1: 2, 2: 1}

        plan = make_plan([120], 3)
        result = exhaustive_balance(plan)
        assert result.allocation.stations == {1: 3}
        assert result.line_cycle_time == Fraction(40)

    def test_prefers_fewer_stations_on_ct_ties(self):
        # {1: 2, 2: 1} and {1: 2, 2: 2} both hit CT 30; keep the smaller one
        plan = make_plan([60, 30], 4)
        result = exhaustive_balance(plan)
        assert result.allocation.stations == {1: 2, 2: 1}


def brute_force_best_ct(times, budget):
    """Direct reference: try every allocation vector summing to <= budget."""
    n = len(times)
    best = None
    for total in range(n, budget + 1):
        for split in itertools.combinations(range(1, total), n - 1):
            bounds = (0,) + split + (total,)
            counts = [bounds[i + 1] - bounds[i] for i in range(n)]
            if any(c < 1 for c in counts):
                continue
            ct = max(Fraction(t) / c for t, c in zip(times, counts))
            if best is None or ct < best:
                best = ct
    return best


small_instances = st.tuples(
    st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=6),
)


@settings(max_examples=150, deadline=None)
@given(inst=small_instances)
def test_three_methods_agree(inst):
    times, extra = inst
    budget = min(len(times) + extra, 12)
    plan = make_plan(times, budget)
    g = hl.greedy_balance(plan)
    o = hl.optimal_balance(plan)
    e = exhaustive_balance(plan)
    assert g.line_cycle_time == o.line_cycle_time == e.line_cycle_time
    reference = brute_force_best_ct(times, budget)
    assert g.line_cycle_time == reference


@settings(max_examples=150, deadline=None)
@given(inst=small_instances)
def test_results_sandwiched_by_bounds(inst):
    times, extra = inst
    budget = min(len(times) + extra, 12)
    plan = make_plan(times, budget)
    result = hl.greedy_balance(plan)
    assert hl.parallel_lower_bound(plan, budget) <= result.line_cycle_time
    assert result.line_cycle_time <= max(Fraction(t) for t in times)
    assert result.total_stations <= budget
    # every task keeps at least one station
    assert all(result.allocation.count(tid) >= 1 for tid in plan.task_ids)


@settings(max_examples=50, deadline=None)
@given(inst=small_instances)
def test_balancing_is_deterministic(inst):
    times, extra = inst
    budget = min(len(times) + extra, 12)
    plan = make_plan(times, budget)
    first = hl.greedy_balance(plan)
    second = hl.greedy_balance(plan)
    assert first.allocation == second.allocation
    assert first.iterations == second.iterations


def synthetic_plan(seed, n, first_id, decimals, factor):
    """A seeded line with tied times, gapped ids and 1- or 2-decimal times."""
    rng = random.Random(seed)
    unit = 10**decimals
    palette = [Fraction(rng.randint(5 * unit, 120 * unit), unit) for _ in range(max(3, n // 3))]
    ids = list(itertools.accumulate(rng.randint(1, 3) for _ in range(n - 1)))
    tasks = tuple(
        hl.Task(id=first_id + gap, description=f"op {k}", cycle_time=rng.choice(palette))
        for k, gap in enumerate([0, *ids])
    )
    return hl.ProcessPlan(tasks=tasks, seat_budget=n * factor)


SYNTHETIC_LINES = {
    "synth_a": (1, 12, 1, 1, 2),
    "synth_b": (2, 20, 100, 2, 3),
    "synth_c": (3, 8, 41, 1, 6),
    "synth_d": (4, 30, 5, 2, 4),
    "synth_e": (5, 15, 1000, 1, 5),
    "synth_f": (6, 25, 17, 2, 2),
}


def pinned_runs(plan):
    """sha256 of JSON + table for greedy, greedy at half the slowest task time, optimal."""
    target = max(t.cycle_time for t in plan.tasks) / 2
    runs = (hl.greedy_balance(plan), hl.greedy_balance(plan, target_ct=target), hl.optimal_balance(plan))
    return tuple(
        hashlib.sha256((hl.emit_report(r, "json") + hl.emit_report(r, "table")).encode()).hexdigest()
        for r in runs
    )


# pinned_runs digests, captured from the candidate-search solvers
PINNED_DIGESTS = {
    "shirt_19": (
        "b2f6894bec79b381bcae7582f49cf4d43d7a8f15cfddae1e9d6b44797cf9d12d",
        "b2f6894bec79b381bcae7582f49cf4d43d7a8f15cfddae1e9d6b44797cf9d12d",
        "63aeabd99d632e48a42b0fcbdacf2d176d073ca8e3ad8c20ad1e5172ca4def83",
    ),
    "shirt_25": (
        "89e210728cd2244a9116c34f740fccbf6076e00ecc8ac5cdcaa7c2f5aaf14317",
        "89e210728cd2244a9116c34f740fccbf6076e00ecc8ac5cdcaa7c2f5aaf14317",
        "4bbac2829fa37181d5f74d37eb42e7e0056fd6354508cb99573992edc12c244e",
    ),
    "shirt_32": (
        "39d9b972da587e9f8ad9b0e58bdaccc0ecb09a2a72ef23fbe6c49be8e76ad6d8",
        "153f1a15b1d30fd3687e937c0d9396090213b52afb615fa17e7e7413fbfebbba",
        "4529af92d3b61a2ca71abdeb1e82d9e1b0211af07258b988680a26c009332851",
    ),
    "shirt_40": (
        "a15af0f8679ff086999dac51d847fed65279e8b4d6592f1d7363fbfb802c96ca",
        "5ef665fa38a5d1dcacd2c95c23c429ae386b3d11e3debaf246b92f8206cbcea8",
        "8cf95b92695993943ce227801df8c59e92e149b7f52c36f196187d7524a9e240",
    ),
    "synth_a": (
        "c709b1987548fd3619708f454aa90edf81263b00d4b720839c7ded5ba6ff0c96",
        "936b611c00d13de24546c8760eca48c9edafc9a7821c9ef3c983a9214a3fff41",
        "69b2c952a35a945c29bba335fbad478764178c7b0e59f15bff13743913518b0d",
    ),
    "synth_b": (
        "ba0e4411488936c06ec2c5198a2459e697774bcc670eb8b570d33e94d37f9221",
        "1c34333a86dbdd810bd8e24cfb3699fab4cd2314ae530a97b4a44e970e7f2f94",
        "4c3682b4ae851fbf0e69568461f84c31f2f72fe134731bcd7bed1435cc375ac9",
    ),
    "synth_c": (
        "81c7bb9781039e0e7dc93455ebc917992ce7fc3271d5ac177104db0bd2f842a8",
        "414b842d1729de08c73cdfdc9523dd3a8d880a2c8222cad044ee4b6c3f09cce2",
        "38be53ee8e5ee2316a7fa456fe25ebae62fde1af23078eab6dae8735da9a3233",
    ),
    "synth_d": (
        "0162499bf736378ae248ca602137df6154708500c783a5a441fa406aa7d32ebb",
        "75cb82e15a8a5c41c6cd2e2785adc85d88da03c9b686dc741c59117938f293db",
        "f110b9e45cb517317eda94ab38663e00fc75535ca64c3d4e97983436f51c8b20",
    ),
    "synth_e": (
        "4e959d1a9d09804241983738484860adaf162f221a798941fa73b1df9219a310",
        "1fcaa176a59c106561e419fed860ea162330cb9eaa2aee159ebd70a5ad49fd4c",
        "8bfb9bc599c738e4f8603b9547a47467326bacea1fdb570e0dabb3b0183eff14",
    ),
    "synth_f": (
        "6d55c54d28cec924accf2392e15252b1d7562aff4d2939af991a454e33dd02e2",
        "ae6b56a170b3a573f5b29e7ae22650a2f4e445ec584d07d736f740146d13dec8",
        "9eac8fe809f1ef47fcf77ea195097b47aad761ebfaea755763020840db8d7178",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_reports_are_pinned(case, main_tasks):
    if case.startswith("shirt_"):
        plan = hl.ProcessPlan(tasks=main_tasks, seat_budget=int(case[len("shirt_"):]))
    else:
        plan = synthetic_plan(*SYNTHETIC_LINES[case])
    assert pinned_runs(plan) == PINNED_DIGESTS[case]


@settings(max_examples=150, deadline=None)
@given(
    times=st.lists(st.integers(1, 60), min_size=1, max_size=10),
    den=st.sampled_from([1, 2, 3, 10]),
    extra=st.integers(0, 30),
    target=st.fractions(min_value=Fraction(1, 10), max_value=60),
)
def test_optimal_is_greedy_from_its_optimum(times, den, extra, target):
    plan = make_plan([Fraction(t, den) for t in times], len(times) + extra)
    greedy = hl.greedy_balance(plan)
    optimal = hl.optimal_balance(plan)
    stopped = hl.greedy_balance(plan, target_ct=target)
    assert optimal.allocation == greedy.allocation
    assert optimal.line_cycle_time == greedy.line_cycle_time
    assert greedy.iterations[len(greedy.iterations) - len(optimal.iterations):] == optimal.iterations
    assert greedy.iterations[: len(stopped.iterations)] == stopped.iterations
