"""CSV and JSON interchange: task tables, reports, plot data."""
import dataclasses
import enum
import hashlib
import json
import types
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hangerline as hl
from hangerline import DomainError, ParseError, SimConfig

from .oracles import exhaustive_balance
from .test_robust import _fields, _ref_ct_interval, _ref_report


class TestBundledFixtures:
    def test_main_assembly_integrity(self, main_tasks):
        assert len(main_tasks) == 19
        assert [t.id for t in main_tasks] == list(range(19, 26)) + list(range(35, 47))
        assert sum(t.cycle_time for t in main_tasks) == Fraction(1090)
        assert main_tasks[0].cycle_time == Fraction(30)

    def test_deviation_table_covers_every_task(self, main_tasks, deviations):
        assert set(deviations) == {t.id for t in main_tasks}
        assert deviations[40] == (Fraction(23, 10), Fraction(17, 10))
        assert deviations[19] == (Fraction(2), Fraction(1))

    def test_unknown_fixture_name(self):
        with pytest.raises(DomainError):
            hl.fixture_path("nonexistent.csv")

    @pytest.mark.parametrize("name", ["../io.py", str(hl.fixture_path("shirt_deviations.csv"))])
    def test_only_a_plain_name_in_the_data_directory_is_a_fixture(self, name):
        # "../io.py" named the module's own source; an absolute path replaced the directory
        with pytest.raises(DomainError, match="^no bundled fixture named "):
            hl.fixture_path(name)


class TestParseTasks:
    def test_minimal_table(self):
        text = (
            "task_id,description,cycle_time_sec\n"
            "1,Fuse collar,30\n"
            "2,Hem cuff,45.5\n"
        )
        tasks = hl.parse_tasks(text)
        assert len(tasks) == 2
        assert tasks[1].cycle_time == Fraction(91, 2)
        assert tasks[0].dev_plus == Fraction(0)

    def test_optional_deviation_columns(self):
        text = (
            "task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec\n"
            "1,Press,30,2,1\n"
        )
        (task,) = hl.parse_tasks(text)
        assert (task.dev_plus, task.dev_minus) == (Fraction(2), Fraction(1))

    def test_missing_column_reported_on_row_one(self):
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks("task_id,description\n1,x\n")
        assert exc.value.row == 1
        assert "row 1" in str(exc.value)

    def test_unknown_column_rejected(self):
        text = "task_id,description,cycle_time_sec,color\n1,x,5,red\n"
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks(text)
        assert exc.value.row == 1

    def test_bad_number_cites_its_row(self):
        text = (
            "task_id,description,cycle_time_sec\n"
            "1,ok,30\n"
            "2,bad,thirty\n"
        )
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks(text)
        assert exc.value.row == 3
        assert "row 3" in str(exc.value)

    def test_repeated_header_column_rejected(self):
        with pytest.raises(ParseError, match="^row 1: header repeats a column$"):
            hl.parse_tasks("task_id,description,cycle_time_sec,task_id\n1,x,5,1\n")

    @pytest.mark.parametrize("text, line, message", [
        ("1,ok,30\n2,short\n", 3, "row has a different number of cells than the header"),
        ("1,long,30,7\n", 2, "row has a different number of cells than the header"),
        ("1,ok,30\n\n2,short\n", 4, "row has a different number of cells than the header"),
        ("1,ok,30\n\n2,bad,thirty\n", 4, "column 'cycle_time_sec'"),
        ('1,"two\nlines",30\n2,bad,thirty\n', 4, "column 'cycle_time_sec'"),
        (f"1,ok,30\n2,{'x' * 140_000},5\n", 3, "not valid CSV: field larger than field limit"),
    ], ids=["short", "long", "short-after-blank", "bad-after-blank", "bad-after-quoted-newline", "huge-cell"])
    def test_errors_cite_the_line_in_the_file(self, text, line, message):
        # blank lines are skipped but counted, as is each line of a quoted cell
        with pytest.raises(ParseError, match=f"^row {line}: {message}") as exc:
            hl.parse_tasks("task_id,description,cycle_time_sec\n" + text)
        assert exc.value.row == line

    def test_blank_lines_are_skipped(self):
        tasks = hl.parse_tasks("task_id,description,cycle_time_sec\n\n1,a,30\n\n\n2,b,40\n\n")
        assert [t.id for t in tasks] == [1, 2]

    def test_non_integer_id_rejected(self):
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks("task_id,description,cycle_time_sec\n1.5,x,5\n")
        assert exc.value.row == 2

    def test_id_past_the_integer_digit_limit_cites_its_row(self):
        # int() refuses more than 4,300 digits; that raised a bare ValueError
        with pytest.raises(ParseError, match="^row 3: task_id has 5000 digits, too many to read$"):
            hl.parse_tasks("task_id,description,cycle_time_sec\n1,x,5\n" + "1" * 5000 + ",y,6\n")

    def test_non_ascii_digit_id_rejected(self):
        # "²" passes str.isdigit but int() rejects it
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks("task_id,description,cycle_time_sec\n²,x,5\n")
        assert exc.value.row == 2

    def test_non_finite_cycle_time_cites_its_row(self):
        for cell in ("nan", "Infinity"):
            with pytest.raises(ParseError) as exc:
                hl.parse_tasks(f"task_id,description,cycle_time_sec\n1,x,5\n2,y,{cell}\n")
            assert exc.value.row == 3

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("task_id,description,cycle_time_sec\n1,Ösen,5\n".encode("latin-1"))
        with pytest.raises(ParseError):
            hl.load_tasks(path)
        with pytest.raises(ParseError):
            hl.load_deviations(path)

    def test_duplicate_id_cites_second_row(self):
        text = (
            "task_id,description,cycle_time_sec\n"
            "7,a,5\n"
            "7,b,6\n"
        )
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks(text)
        assert exc.value.row == 3

    def test_zero_cycle_time_rejected_with_row(self):
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks("task_id,description,cycle_time_sec\n1,x,0\n")
        assert exc.value.row == 2

    def test_empty_table_rejected(self):
        with pytest.raises(ParseError):
            hl.parse_tasks("task_id,description,cycle_time_sec\n")
        with pytest.raises(ParseError):
            hl.parse_tasks("")

    def test_load_round_trip_is_exact(self, main_tasks):
        assert hl.parse_tasks(hl.emit_tasks(main_tasks)) == main_tasks

    def test_round_trip_keeps_a_56_digit_cycle_time(self):
        text = (
            "task_id,description,cycle_time_sec\n"
            "1,a,1234567890123456789012345678901234567890123456789012345.5\n"
        )
        tasks = hl.parse_tasks(text)
        assert hl.parse_tasks(hl.emit_tasks(tasks)) == tasks

    def test_emitted_header_is_complete(self, main_tasks):
        first = hl.emit_tasks(main_tasks).splitlines()[0]
        assert first == "task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec"

    def test_descriptions_with_commas_survive(self):
        tasks = (hl.Task(id=1, description="Trim, mark & notch", cycle_time=25),)
        assert hl.parse_tasks(hl.emit_tasks(tasks)) == tasks


class TestParseDeviations:
    def test_basic(self):
        text = "task_id,dev_plus_sec,dev_minus_sec\n4,2.3,1.7\n"
        assert hl.parse_deviations(text) == {4: (Fraction(23, 10), Fraction(17, 10))}

    def test_negative_value_rejected(self):
        with pytest.raises(ParseError) as exc:
            hl.parse_deviations("task_id,dev_plus_sec,dev_minus_sec\n4,-1,0\n")
        assert exc.value.row == 2

    def test_duplicate_task_rejected(self):
        text = "task_id,dev_plus_sec,dev_minus_sec\n4,1,1\n4,2,2\n"
        with pytest.raises(ParseError) as exc:
            hl.parse_deviations(text)
        assert exc.value.row == 3


class TestFormatting:
    def test_seconds_one_decimal_half_up(self):
        assert hl.format_seconds(Fraction(110, 3)) == "36.7"
        assert hl.format_seconds(Fraction(40)) == "40"
        assert hl.format_seconds(Fraction(75, 2)) == "37.5"
        assert hl.format_seconds(Fraction(3599, 100)) == "36"

    def test_upph_two_decimals_truncated(self):
        assert hl.format_upph(Fraction(30, 19)) == "1.57"
        assert hl.format_upph(Fraction(45, 16)) == "2.81"
        assert hl.format_upph(Fraction(95, 32)) == "2.96"
        assert hl.format_upph(Fraction(85, 32)) == "2.65"

    def test_percent_two_decimals_half_up(self):
        assert hl.format_percent(Fraction(124, 157)) == "78.98%"
        assert hl.format_percent(Fraction(25, 32)) == "78.13%"
        assert hl.format_percent(Fraction(1)) == "100.00%"

    def test_general_numbers(self):
        assert hl.format_number(Fraction(3600)) == "3600"
        assert hl.format_number(Fraction(23, 10)) == "2.3"
        assert hl.format_number(Fraction(110, 3)) == "36.6667"

    def test_huge_values_keep_every_integer_digit(self):
        # these overflowed a 28-digit Decimal context when quantized
        assert hl.format_seconds(Fraction(10**28, 3)) == "3" * 28 + ".3"
        assert hl.format_upph(Fraction(10**28, 3)) == "3" * 28 + ".33"
        assert hl.format_percent(Fraction(10**25, 3)) == "3" * 27 + ".33%"
        assert hl.format_number(Fraction(10**25, 3)) == "3" * 25 + ".3333"

    def test_terminating_values_print_in_full(self):
        long = "1234567890123456789012345678901234567890123456789012345.5"
        assert hl.format_number(Fraction(long)) == long
        assert hl.format_number(Fraction(1, 10**7)) == "0.0000001"
        assert hl.format_number(Fraction(-1, 8)) == "-0.125"

    def test_negative_values_keep_their_sign(self):
        assert hl.format_seconds(Fraction(-3, 20)) == "-0.2"
        assert hl.format_upph(Fraction(-1, 1000)) == "-0.00"
        assert hl.format_percent(Fraction(-1, 3)) == "-33.33%"


def _shift_counts(sample, by):
    sample.update(released=sample["released"] + by, in_flight=sample["in_flight"] + by)


class TestReportRoundTrips:
    def test_balance(self, shirt_plan, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        assert data["kind"] == "balance"
        assert data["total_stations"] == 32
        assert data["line_cycle_time"] == "40"
        restored = hl.report_from_dict(json.loads(json.dumps(data)))
        assert restored == balanced

    def test_productivity(self, shirt_plan, balanced):
        report = hl.productivity_report(shirt_plan, balanced.allocation)
        data = json.loads(hl.emit_report(report, "json"))
        assert data["kind"] == "productivity"
        assert hl.report_from_dict(data) == report

    def test_comparison(self, shirt_plan, balanced):
        cmp = hl.compare(shirt_plan, hl.Allocation.ones(shirt_plan), balanced.allocation)
        data = json.loads(hl.emit_report(cmp, "json"))
        assert data["kind"] == "comparison"
        assert data["improvement_displayed"] == "124/157"
        assert hl.report_from_dict(data) == cmp

    @staticmethod
    def _split_comparison():
        # 120 s and 90 s at 3 seats: 30 pc/h on one station each, 40 with task 1 split
        tasks = hl.parse_tasks("task_id,description,cycle_time_sec\n1,a,120\n2,b,90\n")
        plan = hl.ProcessPlan(tasks=tasks, seat_budget=3)
        return hl.compare(plan, hl.Allocation.ones(plan), hl.Allocation({1: 2, 2: 1}))

    def test_comparison_with_outputs_written_as_json_floats(self):
        cmp = self._split_comparison()
        data = json.loads(hl.emit_report(cmp, "json"))
        assert data["output_ratio"] == "4/3"
        data["before"]["output_per_hour"], data["after"]["output_per_hour"] = 30.0, 40.0
        decoded = hl.report_from_dict(data)
        assert decoded == cmp and decoded.output_ratio == Fraction(4, 3)

    def test_productivity_with_an_output_written_as_a_json_float(self):
        text = hl.emit_report(self._split_comparison().after, "json")
        data = json.loads(text)
        data["output_per_hour"] = 40.0
        decoded = hl.report_from_dict(data)
        assert type(decoded.output_per_hour) is Fraction
        assert hl.emit_report(decoded, "json") == text

    def test_productivity_figures_written_as_json_floats_read_as_decimals(self):
        # 120 s and 12 s on one station each: task 2 works a tenth of the time,
        # which no binary float holds; every figure written as a float reads as its decimal
        plan = hl.ProcessPlan(tasks=hl.parse_tasks("task_id,description,cycle_time_sec\n1,a,120\n2,b,12\n"),
                              seat_budget=2)
        report = hl.productivity_report(plan, hl.Allocation.ones(plan))
        text = hl.emit_report(report, "json")
        data = json.loads(text)
        data.update(line_cycle_time=120.0, output_per_hour=30.0, upph=15.0)
        data.update(utilization={"1": 1.0, "2": 0.1}, idle_fraction={"1": 0.0, "2": 0.9})
        decoded = hl.report_from_dict(data)
        assert decoded == report and decoded.utilization[2] == Fraction(1, 10)
        assert hl.emit_report(decoded, "json") == text

    def test_robust(self, shirt_plan, balanced, deviations):
        intervals = hl.effective_intervals(shirt_plan, balanced.allocation, 1, deviations)
        report = hl.robust_line_report(shirt_plan, balanced.allocation, intervals)
        data = json.loads(hl.emit_report(report, "json"))
        assert data["kind"] == "robust"
        for key in ("regular", "best", "worst", "upph_max", "upph_min"):
            assert key in data
        assert data["worst"] == "42"
        assert data["best"] == "38"
        assert hl.report_from_dict(data) == report

    def test_simulation(self, shirt_plan, balanced):
        run = hl.simulate(
            shirt_plan, balanced.allocation,
            SimConfig(horizon_s=Fraction(1800), warmup_s=Fraction(600)),
        )
        data = json.loads(hl.emit_report(run, "json"))
        assert data["kind"] == "simulation"
        assert hl.report_from_dict(data) == run

    def test_uniform_simulation_keeps_float_utilization(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        run = hl.simulate(
            devs_plan, alloc,
            SimConfig(horizon_s=1800, warmup_s=600, service_model="uniform", seed=3),
        )
        assert any(isinstance(u, float) for u in run.utilization.values())
        assert hl.parse_report(hl.emit_report(run, "json")) == run

    @pytest.mark.parametrize("tamper", [
        {"alpha": "7", "d_plus": "-3"},
        {"alpha": "7"},
        {"d_plus": "-3"},
        {"hi": "33"},
        {"lo": "0", "d_minus": "30"},
    ])
    def test_robust_document_with_a_broken_interval_rejected(self, tamper):
        # one interval contradicts the rule; the report-level alpha still reads 1
        tasks = hl.parse_tasks(
            "task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec\n1,a,30,1,1\n2,b,40,2,2\n"
        )
        plan = hl.ProcessPlan(tasks=tasks, seat_budget=4)
        alloc = hl.greedy_balance(plan).allocation
        report = hl.robust_line_report(plan, alloc, hl.effective_intervals(plan, alloc))
        data = json.loads(hl.emit_report(report, "json"))
        assert hl.parse_report(json.dumps(data)) == report
        data["intervals"]["1"].update(tamper)
        with pytest.raises(ParseError, match="^malformed robust report: "):
            hl.parse_report(json.dumps(data))

    def test_robust_document_whose_line_figures_contradict_its_intervals_rejected(self):
        tasks = hl.parse_tasks(
            "task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec\n1,a,30,1,1\n2,b,40,2,2\n"
        )
        plan = hl.ProcessPlan(tasks=tasks, seat_budget=4)
        alloc = hl.greedy_balance(plan).allocation
        report = hl.robust_line_report(plan, alloc, hl.effective_intervals(plan, alloc))
        data = json.loads(hl.emit_report(report, "json"))
        data.update(best="1", alpha="1/2", throughput_best=7)
        with pytest.raises(
            ParseError,
            match=r"^malformed robust report: fields \['alpha', 'best', 'throughput_best'\] disagree",
        ):
            hl.parse_report(json.dumps(data))

    def test_balance_document_over_budget_rejected(self, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        data["allocation"]["19"] = 99
        data["line_cycle_time"] = "1"
        with pytest.raises(
            ParseError, match=r"^malformed balance report: allocation uses 130 stations, above the seat budget 32$"
        ):
            hl.report_from_dict(json.loads(json.dumps(data)))

    def test_balance_document_with_wrong_derived_keys_rejected(self, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        data.update(throughput_per_period="999", total_stations=7)
        with pytest.raises(
            ParseError,
            match=r"^malformed balance report: fields \['total_stations', 'throughput_per_period'\] disagree",
        ):
            hl.report_from_dict(data)

    @pytest.mark.parametrize("stated", [
        {},
        {"throughput_per_period": "90/1"},
        {"throughput_per_period": "90.0", "total_stations": 32},
    ])
    def test_balance_derived_keys_are_numbers_and_optional(self, balanced, stated):
        derived = ("total_stations", "throughput_per_period")
        data = {k: v for k, v in json.loads(hl.emit_report(balanced, "json")).items() if k not in derived}
        assert hl.report_from_dict({**data, **stated}) == balanced

    def test_balance_document_with_a_wrong_line_cycle_time_rejected(self, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        data["line_cycle_time"] = "1"
        with pytest.raises(ParseError, match=r"fields \['line_cycle_time'\] disagree with its inputs$"):
            hl.report_from_dict(data)

    @pytest.mark.parametrize("method, tamper, message", [
        ("greedy", lambda d: d["iterations"].reverse(), r"fields \['iterations'\] disagree with its inputs$"),
        ("greedy", lambda d: d.update(iterations=[[1, "1"]]),
         r"iterations: 1 splits listed for 13 stations beyond one per task$"),
        ("greedy", lambda d: d.update(iterations=[[25, "40"]]),
         r"iterations: 1 splits listed for 13 stations beyond one per task$"),
        ("greedy", lambda d: d["iterations"].pop(), r"iterations: 12 splits listed for 13 stations beyond one per task$"),
        ("optimal", lambda d: d.update(iterations=[[25, "50"]]), r"fields \['iterations'\] disagree with its inputs$"),
        ("optimal", lambda d: d.update(iterations=[[21, "40"]] * 2),
         r"fields \['iterations'\] disagree with its inputs$"),
    ], ids=["reversed", "foreign_task", "too_few_splits", "last_ct", "optimal_ct", "optimal_splits"])
    def test_balance_document_breaking_an_iteration_identity_rejected(self, shirt_plan, method, tamper, message):
        # a document is a rerun of its solver: a greedy one listing other than one split per
        # station beyond the first fails before the rerun, on the length of its iterations
        result = hl.greedy_balance(shirt_plan) if method == "greedy" else hl.optimal_balance(shirt_plan)
        data = json.loads(hl.emit_report(result, "json"))
        tamper(data)
        with pytest.raises(ParseError, match=r"^malformed balance report: " + message):
            hl.parse_report(json.dumps(data))

    def test_optimal_document_with_an_invented_split_rejected(self, shirt_plan):
        # at 32 seats the optimum reaches CT 40 with no seat left, so no split follows it
        data = json.loads(hl.emit_report(hl.optimal_balance(shirt_plan), "json"))
        assert data["iterations"] == []
        data["iterations"] = [[25, "40"]]
        with pytest.raises(ParseError, match=r"^malformed balance report: fields \['iterations'\] disagree"):
            hl.parse_report(json.dumps(data))

    @pytest.mark.parametrize("times, allocation, iterations", [
        ((40, 30, 20), {"1": 1, "2": 1, "3": 2}, [[3, "40"]]),  # greedy splits task 1, the bottleneck
        ((30, 30, 20), {"1": 1, "2": 2, "3": 1}, [[2, "30"]]),  # greedy breaks the tie toward task 1
    ], ids=["not_the_bottleneck", "tie_to_the_higher_id"])
    def test_greedy_document_greedy_would_not_write_rejected(self, times, allocation, iterations):
        # each split a single station, its CT the line's: consistent, but not greedy's run
        tasks = [hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t) for i, t in enumerate(times)]
        data = json.loads(hl.emit_report(hl.greedy_balance(hl.ProcessPlan(tasks=tasks, seat_budget=4)), "json"))
        data.update(allocation=allocation, iterations=iterations, line_cycle_time=iterations[-1][1])
        data["throughput_per_period"] = str(3600 / Fraction(data["line_cycle_time"]))
        with pytest.raises(ParseError, match=r"^malformed balance report: fields \[.*\] disagree with its inputs$"):
            hl.parse_report(json.dumps(data))

    def test_greedy_document_is_checked_for_length_before_its_rerun(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr("hangerline.balancer.greedy_balance", refuse)
        tasks = [hl.Task(id=1, description="cut", cycle_time=30), hl.Task(id=2, description="sew", cycle_time=20)]
        plan = hl.ProcessPlan(tasks=tasks, seat_budget=10**9)
        claimed = hl.BalanceResult("greedy", plan, hl.Allocation({1: 200001, 2: 1}), Fraction(20))
        data = json.loads(hl.emit_report(claimed, "json"))
        assert data["allocation"] == {"1": 200001, "2": 1} and data["iterations"] == []
        with pytest.raises(ParseError, match=r"^malformed balance report: iterations: 0 splits listed for 200000 "):
            hl.report_from_dict(data)

    def test_simulation_document_with_release_key_parses(self, shirt_plan, balanced):
        # documents written before SimConfig lost its single-valued release knob
        run = hl.simulate(shirt_plan, balanced.allocation, SimConfig(horizon_s=600))
        data = json.loads(hl.emit_report(run, "json"))
        data["config"]["release"] = "saturated"
        assert hl.report_from_dict(data) == run

    @pytest.mark.parametrize("tamper, message", [
        (lambda d: d.update(throughput="12345", completed=1), r"fields \['throughput'\] disagree with its inputs$"),
        (lambda d: d["utilization"].update({"21": "7"}),
         r"utilization must give each plan task, in plan order, a share in \[0, 1\]$"),
        (lambda d: d.update(conservation=[1, 2, 3]), r"fields \['conservation'\] disagree with its inputs$"),
        (lambda d: d["allocation"].update({"19": 99}), r"allocation uses 130 stations, above the seat budget 32$"),
        (lambda d: d.update(completed=d["completed_total"] + 1),
         r"counts must satisfy completed <= completed_total <= released$"),
        (lambda d: d["wip_timeseries"][5]["queue_lengths"].update({"999": 0}),
         r"wip_timeseries\[5\]: queue_lengths must be an object keyed by later task ids$"),
        (lambda d: d["wip_timeseries"][4].update(queue_lengths=list(d["wip_timeseries"][4]["queue_lengths"])),
         r"wip_timeseries\[4\]: queue_lengths must be an object keyed by later task ids$"),
        (lambda d: d["wip_timeseries"][1].update(time="61/7"),
         r"wip_timeseries\[1\]: time '61/7' is off the sample grid, expected 60$"),
        (lambda d: d["wip_timeseries"][3].update(in_flight=d["wip_timeseries"][3]["in_flight"] + 1),
         r"wip_timeseries\[3\]: released \d+ is not completed \+ in_flight$"),
        (lambda d: d["wip_timeseries"][2]["queue_lengths"].update({"20": "1"}),
         r"wip_timeseries\[2\]: queue_lengths and counts must be integers$"),
        (lambda d: d["wip_timeseries"].pop(), r"wip_timeseries has 120 samples, not one per sample interval$"),
        # released and in_flight moved together keep each sample's own identity
        (lambda d: _shift_counts(d["wip_timeseries"][60], -5),
         r"wip_timeseries\[60\]: released and completed must be at least 0 and never fall$"),
        (lambda d: _shift_counts(d["wip_timeseries"][-1], 5),
         r"the last sample's counts must not exceed released and completed_total$"),
    ], ids=["throughput", "utilization", "conservation", "over_budget", "completed", "sample_key",
            "sample_keys_as_a_list", "sample_time", "sample_counts", "sample_value_type", "sample_dropped",
            "sample_counts_fall", "last_sample_counts_past_the_document"])
    def test_simulation_document_breaking_an_identity_rejected(self, shirt_plan, balanced, tamper, message):
        # a simulation document is not replayed on decode: its samples are read
        # against the plan's ids and the config's sample grid, and its counts
        # must satisfy the identities every run does
        run = hl.simulate(shirt_plan, balanced.allocation, SimConfig(horizon_s=7200))
        data = json.loads(hl.emit_report(run, "json"))
        tamper(data)
        with pytest.raises(ParseError, match=r"^malformed simulation report: " + message):
            hl.parse_report(json.dumps(data))

    @pytest.mark.parametrize("kind, tamper, message", [
        ("productivity", lambda d: d.update(upph="999"), r"fields \['upph'\] disagree with its inputs$"),
        ("productivity", lambda d: d["idle_fraction"].update({"40": "7"}),
         r"fields \['idle_fraction'\] disagree with its inputs$"),
        ("productivity", lambda d: d["utilization"].update(dict.fromkeys(d["utilization"], "1/2")),
         r"utilization must give each task a share in \(0, 1\], the largest exactly 1$"),
        ("comparison", lambda d: (d["before"].update(upph="999"), d["after"].update(upph="999")),
         r"fields \['before', 'after'\] disagree with its inputs$"),
        ("comparison", lambda d: d.update(output_ratio="5"), r"fields \['output_ratio'\] disagree with its inputs$"),
        ("productivity", lambda d: d.update(line_cycle_time="-1"), r"line_cycle_time must be > 0, got -1$"),
        ("productivity", lambda d: d.update(line_cycle_time="0"), r"line_cycle_time must be > 0, got 0$"),
        ("comparison", lambda d: d["before"].update(line_cycle_time="0"), r"line_cycle_time must be > 0, got 0$"),
    ], ids=["upph", "idle_fraction", "utilization", "both_upph", "output_ratio", "negative_ct", "zero_ct",
            "zero_ct_before"])
    def test_productivity_document_breaking_an_identity_rejected(self, shirt_plan, balanced, kind, tamper, message):
        # no period is stored, so line_cycle_time (if positive), output_per_hour
        # and workers are free; UPPH, idle fractions and the comparison figures follow
        if kind == "productivity":
            report = hl.productivity_report(shirt_plan, balanced.allocation)
        else:
            report = hl.compare(shirt_plan, hl.Allocation.ones(shirt_plan), balanced.allocation)
        data = json.loads(hl.emit_report(report, "json"))
        tamper(data)
        with pytest.raises(ParseError, match=rf"^malformed {kind} report: " + message):
            hl.parse_report(json.dumps(data))

    @pytest.mark.parametrize("spelling", ["120", "240/2", "120.0", "1.2e2", 120, 120.0])
    def test_simulation_sample_time_parses_in_any_spelling_of_its_number(self, shirt_plan, balanced, spelling):
        run = hl.simulate(shirt_plan, balanced.allocation, SimConfig(horizon_s=600))
        data = json.loads(hl.emit_report(run, "json"))
        data["wip_timeseries"][2]["time"] = spelling
        decoded = hl.parse_report(json.dumps(data))
        assert decoded == run and type(decoded.wip_timeseries[2].time) is Fraction

    def test_top_level_key_order(self, shirt_plan, balanced, deviations):
        ones = hl.Allocation.ones(shirt_plan)
        intervals = hl.effective_intervals(shirt_plan, balanced.allocation, 1, deviations)
        reports = {
            "balance": balanced,
            "productivity": hl.productivity_report(shirt_plan, balanced.allocation),
            "comparison": hl.compare(shirt_plan, ones, balanced.allocation),
            "robust": hl.robust_line_report(shirt_plan, balanced.allocation, intervals),
            "simulation": hl.simulate(
                shirt_plan, balanced.allocation, SimConfig(horizon_s=600)
            ),
        }
        expected = {
            "balance": [
                "kind", "method", "plan", "allocation", "line_cycle_time", "iterations",
                "total_stations", "throughput_per_period",
            ],
            "productivity": [
                "kind", "line_cycle_time", "output_per_hour", "workers", "upph",
                "utilization", "idle_fraction",
            ],
            "comparison": [
                "kind", "before", "after", "improvement", "improvement_displayed",
                "output_ratio",
            ],
            "robust": [
                "kind", "plan", "allocation", "intervals", "alpha", "regular", "best",
                "worst", "throughput_regular", "throughput_best", "throughput_worst",
                "upph_regular", "upph_max", "upph_min", "eff_max", "eff_min",
                "eff_max_displayed", "eff_min_displayed",
            ],
            "simulation": [
                "kind", "plan", "allocation", "config", "completed", "completed_total",
                "released", "throughput", "utilization", "conservation", "wip_timeseries",
            ],
        }
        for kind, report in reports.items():
            text = hl.emit_report(report, "json")
            assert list(json.loads(text)) == expected[kind]

    @pytest.mark.parametrize("build, digest", [
        (lambda plan, alloc: hl.compare(plan, hl.Allocation.ones(plan), alloc),
         "7ff5338e851e27321acd75f1ce25d58400f59af593ea54624f9faecdc2266c7b"),
        (hl.productivity_report, "44550790305acbdf2b21edc8487cdf936d5ecc02c9313918ce01f5d1d9b607a4"),
    ], ids=["comparison", "productivity"])
    def test_json_is_pinned(self, shirt_plan, balanced, build, digest):
        # sha256 of the shirt documents at 32 seats, taken from the dict
        # encoder that json.dumps(indent=2) laid out, before the writer
        text = hl.emit_report(build(shirt_plan, balanced.allocation), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_parse_report_from_text(self, balanced):
        text = json.dumps(json.loads(hl.emit_report(balanced, "json")))
        assert hl.parse_report(text) == balanced

    def test_iterations_serialize_as_pairs(self, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        assert data["iterations"][0] == [37, "110"]
        assert data["iterations"][-1] == [25, "40"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            hl.report_from_dict({"kind": "horoscope"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ParseError):
            hl.report_from_dict({})

    def test_truncated_document_rejected(self, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        del data["allocation"]
        with pytest.raises(ParseError) as exc:
            hl.report_from_dict(data)
        assert "balance" in str(exc.value)

    def test_zero_denominator_rejected(self, balanced):
        data = json.loads(hl.emit_report(balanced, "json"))
        data["line_cycle_time"] = "1/0"
        with pytest.raises(ParseError):
            hl.report_from_dict(data)

    @pytest.mark.parametrize("raw", ["1e1000000", "1e999999999", "1e-101"])
    def test_decimal_exponent_is_bounded(self, balanced, raw):
        # a short field must not expand into a huge integer (1e999999999 hung)
        data = json.loads(hl.emit_report(balanced, "json"))
        data["line_cycle_time"] = raw
        with pytest.raises(ParseError, match=r"^malformed balance report: exponent of .* is outside \+/-100$"):
            hl.report_from_dict(data)

    @pytest.mark.parametrize("raw", ["40", "80/2", "40.0", "4e1", "4E+1"])
    def test_fraction_strings_in_both_forms_parse(self, balanced, raw):
        data = json.loads(hl.emit_report(balanced, "json"))
        data["line_cycle_time"] = raw
        assert hl.report_from_dict(data) == balanced

    @pytest.mark.parametrize("method", [None, "fastest", "exhaustive"])
    def test_method_must_be_a_known_one(self, balanced, method):
        # "exhaustive" is a search the tests run, not a method the library can rerun
        data = json.loads(hl.emit_report(balanced, "json"))
        data["method"] = method
        with pytest.raises(
            ParseError,
            match=rf"^malformed balance report: expected one of \['greedy', 'optimal'\], got {method!r}$",
        ):
            hl.report_from_dict(data)

    def test_non_json_text_rejected(self):
        with pytest.raises(ParseError):
            hl.parse_report("not json at all")

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "maximum recursion depth"),
        ('{"kind": "balance", "iterations": ' + "1" * 5000 + "}", "Exceeds the limit"),
    ], ids=["deep", "long-integer"])
    def test_json_the_decoder_refuses_rejected(self, text, message):
        with pytest.raises(ParseError, match=f"^not valid JSON: {message}"):
            hl.parse_report(text)

    def test_non_report_object_rejected(self):
        with pytest.raises(DomainError, match="^cannot serialize Task$"):
            json.loads(hl.emit_report(hl.Task(id=1, description="x", cycle_time=5), "json"))
        with pytest.raises(DomainError, match="^cannot serialize dict$"):
            hl.emit_report({}, format="json")
        with pytest.raises(DomainError, match="^cannot render dict$"):
            hl.emit_report({})


class TestEmitReport:
    def test_balance_table_mentions_the_pace(self, balanced):
        table = hl.emit_report(balanced, format="table")
        assert "total: 32 seats" in table
        assert "40 sec/pc" in table
        assert "method greedy" in table

    def test_json_format_round_trips(self, balanced):
        text = hl.emit_report(balanced, format="json")
        assert hl.parse_report(text) == balanced

    def test_unknown_format_rejected(self, balanced):
        with pytest.raises(DomainError):
            hl.emit_report(balanced, format="yaml")

    def test_comparison_table_shows_both_views(self, shirt_plan, balanced):
        cmp = hl.compare(shirt_plan, hl.Allocation.ones(shirt_plan), balanced.allocation)
        table = hl.emit_report(cmp, format="table")
        assert "78.13%" in table
        assert "78.98%" in table
        assert "3x" in table

    @staticmethod
    def _run_with_first_lengths(lengths):
        # 30 s and 40 s at 3 seats, sample 0's queue lengths set by hand
        plan = hl.ProcessPlan(tasks=hl.parse_tasks("task_id,description,cycle_time_sec\n1,a,30\n2,b,40\n"),
                              seat_budget=3)
        run = hl.simulate(plan, hl.greedy_balance(plan).allocation, SimConfig(horizon_s=120))
        first = dataclasses.replace(run.wip_timeseries[0], queue_lengths=lengths)
        return dataclasses.replace(run, wip_timeseries=(first, *run.wip_timeseries[1:]))

    def test_a_bool_queue_length_is_written_as_an_int(self):
        text = hl.emit_report(self._run_with_first_lengths({2: True}), "json")
        assert json.loads(text)["wip_timeseries"][0]["queue_lengths"] == {"2": 1}

    def test_a_float_queue_length_is_refused_as_a_float_count_is(self):
        run = self._run_with_first_lengths({2: 1})
        with pytest.raises(TypeError) as count:
            hl.emit_report(dataclasses.replace(run, released=1.5), "json")
        with pytest.raises(TypeError) as length:
            hl.emit_report(self._run_with_first_lengths({2: 1.5}), "json")
        assert str(length.value) == str(count.value)


class TestPlotData:
    def test_empty_sweep_rejected(self):
        with pytest.raises(DomainError, match="^sweep is empty$"):
            hl.emit_plot_data(())

    def test_sweep_csv_shape(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        sweep = hl.alpha_sweep(
            devs_plan, alloc, None, [Fraction(1, 2), Fraction(1)]
        )
        lines = hl.emit_plot_data(sweep).splitlines()
        assert lines[0] == "task_id,alpha,regular_ct,best_ct,worst_ct"
        # one row per task per alpha plus one LINE row per alpha
        assert len(lines) == 1 + 2 * (19 + 1)
        line_rows = [l for l in lines if l.startswith("LINE")]
        assert line_rows[-1] == "LINE,1,40,38,42"

    def test_float_bounds_format_as_format_number(self, devs_plan):
        alloc = hl.greedy_balance(devs_plan).allocation
        ((alpha, report),) = hl.alpha_sweep(devs_plan, alloc, None, [Fraction(1)])
        ivs = {tid: dataclasses.replace(iv, lo=float(iv.lo), hi=iv.hi + 0.1) for tid, iv in report.intervals.items()}
        hand_built = dataclasses.replace(report, intervals=ivs, line_ct_best=38.0, line_ct_worst=1 / 3)
        rows = [line.split(",")[2:] for line in hl.emit_plot_data([(alpha, hand_built)]).splitlines()[1:]]
        cts = [(ivs[t.id].nominal, ivs[t.id].lo, ivs[t.id].hi) for t in devs_plan.tasks]
        cts.append((report.line_ct_regular, 38.0, 1 / 3))
        assert rows == [[hl.format_number(x) for x in row] for row in cts]
        assert rows[-1] == ["40", "38", "0.3333333333333333"]  # a float reads as its shortest repr

    def test_shirt_sweep_is_pinned(self, shirt_plan, balanced, deviations):
        # sha256 of the shirt sweep at --alphas 0.01:1:0.01 with the bundled
        # deviation table, taken before the sweep and the formatter were tuned
        grid = [Fraction(k, 100) for k in range(1, 101)]
        text = hl.emit_plot_data(hl.alpha_sweep(shirt_plan, balanced.allocation, deviations, grid))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8414d903578d4b7af666525696c75deb89b85b17cd0eb2625cba9337be0e0256"
        )


# ------------------------------------------------ one-field mutations
#
# A balance or robust document must decode to the report its own inputs
# produce. Replace any one node of such a document (a leaf or a whole
# container) with junk or a nearby value: decoding must raise ParseError or
# give a report that the independent Fraction reference reproduces from the
# decoded inputs. A figure the inputs determine (the line cycle time, a robust
# line figure, an interval's lo or hi) may only decode back to the original.
# A balance is a rerun of its solver: a decoded one must equal optimal_balance
# on its plan, or greedy_balance at its allocation's seat total; on up to 5
# tasks its CT must also be the brute-force optimum at that total.
#
# A simulation document is not replayed, so only its identities are checked:
# a decoded one must satisfy them all. They fix the sample grid (the number of
# samples and each time), each sample's queue_lengths keys (renamed here too)
# and three counts, the document's three counts, its throughput and its
# conservation: mutating one of those may only decode back to the original.
# The run's outputs they do not fix stay free: a queue-length value, and a
# utilization value inside [0, 1]. So do its inputs: plan, allocation, config.
#
# A productivity or comparison document is not rebuilt from a plan either; no
# period is stored, so line_cycle_time (if positive), output_per_hour and
# workers stay free.
# The identities fix the rest: upph is output_per_hour / workers, each
# idle_fraction is 1 - its utilization, every utilization is a share in (0, 1]
# and the largest is exactly 1. A comparison's two improvements and its
# output_ratio follow from its two sides. Mutating any of those figures may
# only decode back to the original.

_SHIRT = hl.load_tasks(hl.fixture_path("shirt_main_assembly.csv"))
_SHIRT_DEVIATIONS = hl.load_deviations(hl.fixture_path("shirt_deviations.csv"))
_JUNK = st.sampled_from(
    [None, True, 1.5, -1, 0, 1, "", "x", "0", "-1", "1/2", "1/0", "balance", "robust", [], {}, [1, "2"]]
)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _shape(path):
    """A simulation or balance document's kinds of node: each top-level field,
    each field of a WIP sample or an iteration (any sample, any queue, any
    split), and any node inside an input."""
    if path[0] in ("plan", "allocation", "config"):
        return path[:1] + ("*",) * (len(path) > 1)
    return tuple("*" if isinstance(key, int) or key.isdigit() else key for key in path)


def _nearby(old):
    if isinstance(old, bool) or not isinstance(old, (int, str)):
        return _JUNK
    if isinstance(old, int):
        return st.one_of(_JUNK, st.integers(old - 3, old + 3))
    try:
        value = Fraction(old)
    except (ValueError, ZeroDivisionError):
        return st.one_of(_JUNK, st.text(max_size=3))
    step = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.one_of(_JUNK, step.map(lambda d: str(value + d)), st.just(str(value * 2)))


@st.composite
def _simulations(draw):
    """A short run of the shirt line, or of a 1-5 task line in either service model."""
    if draw(st.booleans()):
        plan = hl.ProcessPlan(tasks=_SHIRT, seat_budget=32)
        config = SimConfig(horizon_s=600, warmup_s=120)
    else:
        n = draw(st.integers(1, 5))
        times = draw(st.lists(st.fractions(5, 120, max_denominator=4), min_size=n, max_size=n))
        plan = hl.ProcessPlan(
            tasks=[hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t, dev_plus=t / 4, dev_minus=Fraction(1, 2))
                   for i, t in enumerate(times)],
            seat_budget=n + draw(st.integers(0, 6)),
        )
        config = SimConfig(
            horizon_s=draw(st.integers(300, 1800)), warmup_s=draw(st.integers(0, 299)),
            service_model=draw(st.sampled_from(["deterministic", "uniform"])), seed=draw(st.integers(0, 99)),
            queue_capacity=draw(st.none() | st.integers(1, 3)),
            sample_interval_s=draw(st.sampled_from([60, Fraction(45, 2)])),
        )
    return hl.simulate(plan, hl.greedy_balance(plan).allocation, config)


@st.composite
def _balance_and_robust_reports(draw):
    if draw(st.booleans()):
        plan, deviations = hl.ProcessPlan(tasks=_SHIRT, seat_budget=32), _SHIRT_DEVIATIONS
    else:
        n = draw(st.integers(1, 5))
        times = draw(st.lists(st.fractions(5, 120, max_denominator=4), min_size=n, max_size=n))
        plan = hl.ProcessPlan(
            tasks=[hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t) for i, t in enumerate(times)],
            seat_budget=n + draw(st.integers(0, 6)),
        )
        deviations = None
    balanced = hl.greedy_balance(plan)
    if deviations is None:
        share = st.fractions(0, Fraction(9, 10), max_denominator=10)
        nominal = hl.effective_intervals(plan, balanced.allocation)
        deviations = {tid: (draw(share) * iv.nominal, draw(share) * iv.nominal) for tid, iv in nominal.items()}
    if draw(st.booleans()):
        return hl.optimal_balance(plan) if draw(st.booleans()) else balanced
    alpha = draw(st.fractions(Fraction(1, 10), 1, max_denominator=10))
    intervals = hl.effective_intervals(plan, balanced.allocation, alpha, deviations)
    return hl.robust_line_report(plan, balanced.allocation, intervals)


@st.composite
def _productivity_reports(draw):
    """A productivity report or a comparison of the shirt line, or of a 1-5 task
    line over a drawn period."""
    if draw(st.booleans()):
        plan = hl.ProcessPlan(tasks=_SHIRT, seat_budget=32)
    else:
        n = draw(st.integers(1, 5))
        times = draw(st.lists(st.fractions(5, 120, max_denominator=4), min_size=n, max_size=n))
        plan = hl.ProcessPlan(
            tasks=[hl.Task(id=i + 1, description=f"op {i + 1}", cycle_time=t) for i, t in enumerate(times)],
            seat_budget=n + draw(st.integers(0, 6)), period=draw(st.sampled_from([3600, 1800, 28800])),
        )
    alloc = hl.greedy_balance(plan).allocation
    if draw(st.booleans()):
        return hl.productivity_report(plan, alloc)
    return hl.compare(plan, hl.Allocation.ones(plan), alloc)


@st.composite
def _mutated_documents(draw, reports):
    original = draw(reports)
    data = json.loads(hl.emit_report(original, "json"))
    paths = list(_paths(data))[1:]
    if isinstance(original, hl.SimResult):
        k = draw(st.integers(0, len(data["wip_timeseries"]) - 1))
        lengths = data["wip_timeseries"][k]["queue_lengths"]
        if lengths and draw(st.integers(0, 3)) == 0:  # rename one key of one sample's queue lengths
            old = draw(st.sampled_from(list(lengths)))
            new = draw(st.one_of(st.sampled_from(list(lengths)), st.integers(0, 60).map(str), st.text(max_size=3)))
            data["wip_timeseries"][k]["queue_lengths"] = {new if key == old else key: v for key, v in lengths.items()}
            return original, data, ("wip_timeseries", k, "queue_lengths")
    if isinstance(original, (hl.SimResult, hl.BalanceResult)):
        # most nodes are samples' or the plan's: draw a kind of node first, so
        # that the top-level figures, a balance's allocation and its iterations
        # are mutated as often as each field of a sample or the plan
        shape = draw(st.sampled_from(sorted({_shape(p) for p in paths})))
        paths = [p for p in paths if _shape(p) == shape]
    path = draw(st.sampled_from(paths))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_nearby(parent[path[-1]]))
    return original, data, path


def _determined(kind, path):
    if kind in ("productivity", "comparison"):
        return path[-1] not in ("line_cycle_time", "output_per_hour", "workers")
    if kind == "balance":
        return path[0] in ("line_cycle_time", "total_stations", "throughput_per_period")
    if kind == "simulation":
        if path[0] == "wip_timeseries":
            return len(path) < 4  # below that, a queue-length value
        return path[0] in ("completed", "completed_total", "released", "throughput", "conservation")
    if path[0] == "intervals":
        return len(path) == 3 and path[2] in ("lo", "hi")
    return path[0] not in ("plan", "allocation")


def _decode_mutated(case):
    """The mutated document decoded, or None where it is rejected. A figure
    fixed by its inputs or identities may only decode back to the original."""
    original, data, path = case
    try:
        decoded = hl.parse_report(json.dumps(data))
    except ParseError:
        return None
    if _determined(_KINDS[type(original)], path):
        assert decoded == original
    return decoded


@settings(max_examples=200, deadline=None)
@given(case=_mutated_documents(_balance_and_robust_reports()))
def test_one_field_mutation_is_rejected_or_consistent(case):
    decoded = _decode_mutated(case)
    if decoded is None:
        return
    plan, alloc = decoded.plan, decoded.allocation
    assert set(alloc.stations) == set(plan.task_ids)
    if isinstance(decoded, hl.BalanceResult):
        assert alloc.total <= plan.seat_budget
        assert decoded.line_cycle_time == max(t.cycle_time / alloc.stations[t.id] for t in plan.tasks)
        at_total = dataclasses.replace(plan, seat_budget=alloc.total)
        if decoded.method == "greedy":
            assert decoded == dataclasses.replace(hl.greedy_balance(at_total), plan=plan)
        else:
            assert decoded == hl.optimal_balance(plan)
        if len(plan.tasks) <= 5:
            assert decoded.line_cycle_time == exhaustive_balance(at_total).line_cycle_time
    else:
        rebuilt = {
            tid: _ref_ct_interval(iv.nominal, iv.d_plus, iv.d_minus, iv.alpha)
            for tid, iv in decoded.intervals.items()
        }
        assert _fields(decoded) == _ref_report(plan, alloc, rebuilt)


@settings(max_examples=200, deadline=None)
@given(case=_mutated_documents(_simulations()))
def test_one_field_mutation_of_a_simulation_is_rejected_or_consistent(case):
    decoded = _decode_mutated(case)
    if decoded is None:
        return
    plan, config = decoded.plan, decoded.config
    assert set(decoded.allocation.stations) == set(plan.task_ids)
    assert decoded.allocation.total <= plan.seat_budget
    ids = list(plan.task_ids)
    assert list(decoded.utilization) == ids and all(0 <= u <= 1 for u in decoded.utilization.values())
    assert decoded.completed <= decoded.completed_total <= decoded.released
    in_flight = decoded.released - decoded.completed_total
    assert decoded.conservation == (decoded.released, decoded.completed_total, in_flight)
    assert decoded.throughput * (config.horizon_s - config.warmup_s) == 3600 * decoded.completed
    times = [s.time for s in decoded.wip_timeseries]
    assert times == [k * config.sample_interval_s for k in range(len(times))]
    assert times[-1] <= config.horizon_s < times[-1] + config.sample_interval_s
    for sample in decoded.wip_timeseries:
        assert list(sample.queue_lengths) == ids[1:]
        assert {type(v) for v in (*sample.queue_lengths.values(), sample.released, sample.completed)} <= {int}
        assert sample.released == sample.completed + sample.in_flight


def _assert_productivity_identities(r):
    shares = r.utilization.values()
    assert r.upph == r.output_per_hour / r.workers
    assert r.idle_fraction == {tid: 1 - u for tid, u in r.utilization.items()}
    assert max(shares) == 1 and min(shares) > 0 and r.line_cycle_time > 0


@settings(max_examples=200, deadline=None)
@given(case=_mutated_documents(_productivity_reports()))
def test_one_field_mutation_of_a_productivity_report_is_rejected_or_consistent(case):
    decoded = _decode_mutated(case)
    if isinstance(decoded, hl.ProductivityReport):
        _assert_productivity_identities(decoded)
    elif decoded is not None:
        before, after = decoded.before, decoded.after
        _assert_productivity_identities(before)
        _assert_productivity_identities(after)
        assert decoded.improvement == (after.upph - before.upph) / before.upph
        printed = [hl.truncate_decimals(r.upph, 2) for r in (before, after)]
        assert decoded.improvement_displayed == (
            decoded.improvement if printed[0] == 0 else (printed[1] - printed[0]) / printed[0]
        )
        assert decoded.output_ratio == after.output_per_hour / before.output_per_hour


# ------------------------------------------------ the JSON writer's oracle
#
# The encoder that the type-directed writer replaced, kept as its oracle: every
# dataclass becomes a dict, field by field in field order under its JSON key,
# and json.dumps(indent=2) lays the plain data out. emit_report must write the
# same bytes for every report kind.

_KINDS = {
    hl.BalanceResult: "balance", hl.ProductivityReport: "productivity", hl.Comparison: "comparison",
    hl.RobustReport: "robust", hl.SimResult: "simulation",
}
_JSON_KEYS = {"line_ct_regular": "regular", "line_ct_best": "best", "line_ct_worst": "worst"}


def _plain(hint, x):
    if hint is Fraction:
        return x if isinstance(x, float) else str(x)
    if hint is hl.Allocation:
        return _plain(dict[int, int], x.stations)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        out = {"kind": _KINDS[hint]} if hint in _KINDS else {}
        for f in dataclasses.fields(hint):
            out[_JSON_KEYS.get(f.name, f.name)] = _plain(hints[f.name], getattr(x, f.name))
        return out
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        return None if x is None else _plain(inner, x)
    if origin is dict:
        return {str(k): _plain(args[1], v) for k, v in x.items()}
    if origin is tuple:
        return [_plain(h, v) for h, v in zip(args if args[-1] is not Ellipsis else [args[0]] * len(x), x)]
    return x


def _oracle_json(report) -> str:
    data = _plain(type(report), report)
    if isinstance(report, hl.BalanceResult):
        data["total_stations"] = report.allocation.total
        data["throughput_per_period"] = str(hl.throughput(report.line_cycle_time, report.plan.period))
    return json.dumps(data, indent=2) + "\n"


_AWKWARD = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u6f22\U0001f600'), st.characters()),
    max_size=8,
)


@st.composite
def _any_report(draw):
    n = draw(st.integers(1, 5))
    times = draw(st.lists(st.fractions(5, 90, max_denominator=4), min_size=n, max_size=n))
    plan = hl.ProcessPlan(
        tasks=[hl.Task(id=i + 1, description=draw(_AWKWARD), cycle_time=t) for i, t in enumerate(times)],
        seat_budget=n + draw(st.integers(0, 4)),  # no spare seat: no balance iterations
    )
    alloc = hl.greedy_balance(plan).allocation
    kind = draw(st.sampled_from(sorted(_KINDS.values())))
    if kind == "balance":
        return hl.greedy_balance(plan) if draw(st.booleans()) else hl.optimal_balance(plan)
    if kind == "productivity":
        return hl.productivity_report(plan, alloc)
    if kind == "comparison":
        return hl.compare(plan, hl.Allocation.ones(plan), alloc)
    if kind == "robust":
        alphas = st.fractions(Fraction(1, 10), 1, max_denominator=10)  # mixed alphas: alpha None
        share = st.fractions(0, Fraction(9, 10), max_denominator=10)
        intervals = {
            tid: hl.ct_interval(iv.nominal, draw(share) * iv.nominal, draw(share) * iv.nominal, draw(alphas))
            for tid, iv in hl.effective_intervals(plan, alloc).items()
        }
        return hl.robust_line_report(plan, alloc, intervals)
    uniform = draw(st.booleans())
    if uniform:  # deviations to draw from, below every effective time t_i/s_i
        plan = dataclasses.replace(plan, tasks=tuple(
            dataclasses.replace(t, dev_plus=t.cycle_time / 3, dev_minus=t.cycle_time / plan.seat_budget / 2)
            for t in plan.tasks
        ))
    return hl.simulate(plan, alloc, SimConfig(
        horizon_s=draw(st.integers(60, 900)),
        service_model="uniform" if uniform else "deterministic",
        seed=draw(st.integers(0, 9)),
        queue_capacity=draw(st.none() | st.integers(1, 3)),
        sample_interval_s=draw(st.sampled_from([30, 60, Fraction(45, 2)])),
    ))


@settings(max_examples=150, deadline=None)
@given(report=_any_report())
def test_json_writer_matches_the_dict_encoder(report):
    assert hl.emit_report(report, "json") == _oracle_json(report)
    assert json.loads(hl.emit_report(report, "json")) == json.loads(_oracle_json(report))


def test_json_writer_oracle_sees_each_awkward_case(shirt_plan, devs_plan, balanced):
    one = hl.ProcessPlan(tasks=[hl.Task(1, 'quote " slash \\ bell \x07 \u00e9\u6f22', 30)], seat_budget=1)
    mixed = {
        tid: hl.ct_interval(iv.nominal, 1, 1, Fraction(1, 2) if tid % 2 else 1)
        for tid, iv in hl.effective_intervals(shirt_plan, balanced.allocation).items()
    }
    ids = enum.IntEnum("ids", "cut sew")  # an int subclass whose repr is not its number
    enum_plan = hl.ProcessPlan(tasks=[hl.Task(ids.cut, "cut", 30), hl.Task(ids.sew, "sew", 45)], seat_budget=3)
    cases = {
        "one-task simulation": hl.simulate(one, hl.Allocation({1: 1}), SimConfig(horizon_s=600)),
        "IntEnum task ids": hl.simulate(enum_plan, hl.Allocation({1: 1, 2: 2}), SimConfig(horizon_s=600)),
        "balance without iterations": hl.greedy_balance(one),
        "robust with alpha None": hl.robust_line_report(shirt_plan, balanced.allocation, mixed),
        "uniform simulation": hl.simulate(
            devs_plan, balanced.allocation, SimConfig(horizon_s=1800, service_model="uniform", seed=5)
        ),
    }
    sim, enum_sim, bal, robust, uniform = cases.values()
    assert sim.wip_timeseries[0].queue_lengths == {} and bal.iterations == () and robust.alpha is None
    assert repr(enum_sim.plan.tasks[0].id) == "<ids.cut: 1>"
    assert any(isinstance(u, float) for u in uniform.utilization.values())
    for name, report in cases.items():
        assert hl.emit_report(report, "json") == _oracle_json(report), name
