"""CSV and JSON interchange: task tables, reports, plot data."""
import json
from fractions import Fraction

import pytest

import hangerline as hl
from hangerline import DomainError, ParseError, SimConfig


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

    def test_non_integer_id_rejected(self):
        with pytest.raises(ParseError) as exc:
            hl.parse_tasks("task_id,description,cycle_time_sec\n1.5,x,5\n")
        assert exc.value.row == 2

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


class TestReportRoundTrips:
    def test_balance(self, shirt_plan, balanced):
        data = hl.report_to_dict(balanced)
        assert data["kind"] == "balance"
        assert data["total_stations"] == 32
        assert data["line_cycle_time"] == "40"
        restored = hl.report_from_dict(json.loads(json.dumps(data)))
        assert restored == balanced

    def test_productivity(self, shirt_plan, balanced):
        report = hl.productivity_report(shirt_plan, balanced.allocation)
        data = hl.report_to_dict(report)
        assert data["kind"] == "productivity"
        assert hl.report_from_dict(data) == report

    def test_comparison(self, shirt_plan, balanced):
        cmp = hl.compare(shirt_plan, hl.Allocation.ones(shirt_plan), balanced.allocation)
        data = hl.report_to_dict(cmp)
        assert data["kind"] == "comparison"
        assert data["improvement_displayed"] == "124/157"
        assert hl.report_from_dict(data) == cmp

    def test_robust(self, shirt_plan, balanced, deviations):
        intervals = hl.effective_intervals(shirt_plan, balanced.allocation, 1, deviations)
        report = hl.robust_line_report(shirt_plan, balanced.allocation, intervals)
        data = hl.report_to_dict(report)
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
        data = hl.report_to_dict(run)
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

    def test_simulation_document_with_release_key_parses(self, shirt_plan, balanced):
        # documents written before SimConfig lost its single-valued release knob
        run = hl.simulate(shirt_plan, balanced.allocation, SimConfig(horizon_s=600))
        data = hl.report_to_dict(run)
        data["config"]["release"] = "saturated"
        assert hl.report_from_dict(data) == run

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

    def test_parse_report_from_text(self, balanced):
        text = json.dumps(hl.report_to_dict(balanced))
        assert hl.parse_report(text) == balanced

    def test_iterations_serialize_as_pairs(self, balanced):
        data = hl.report_to_dict(balanced)
        assert data["iterations"][0] == [37, "110"]
        assert data["iterations"][-1] == [25, "40"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            hl.report_from_dict({"kind": "horoscope"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ParseError):
            hl.report_from_dict({})

    def test_truncated_document_rejected(self, balanced):
        data = hl.report_to_dict(balanced)
        del data["allocation"]
        with pytest.raises(ParseError) as exc:
            hl.report_from_dict(data)
        assert "balance" in str(exc.value)

    def test_zero_denominator_rejected(self, balanced):
        data = hl.report_to_dict(balanced)
        data["line_cycle_time"] = "1/0"
        with pytest.raises(ParseError):
            hl.report_from_dict(data)

    def test_non_json_text_rejected(self):
        with pytest.raises(ParseError):
            hl.parse_report("not json at all")


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


class TestPlotData:
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
