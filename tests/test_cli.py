"""Command-line interface: subcommands, output formats, exit codes."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hangerline as hl
import hangerline.cli as cli
from hangerline.cli import MAX_ALPHA_POINTS, MAX_SEATS, MAX_SIM_EVENTS, MAX_SWEEP_CELLS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBalance:
    def test_greedy_json(self, capsys, tasks_csv_path):
        code, out, err = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--method", "greedy", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "balance"
        assert data["total_stations"] == 32
        assert data["line_cycle_time"] == "40"
        assert data["allocation"]["37"] == 3
        assert data["allocation"]["40"] == 3
        assert data["throughput_per_period"] == "90"

    def test_optimal_matches(self, capsys, tasks_csv_path):
        code, out, _ = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--method", "optimal", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["line_cycle_time"] == "40"

    def test_table_output(self, capsys, tasks_csv_path):
        code, out, _ = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
        )
        assert code == 0
        assert "total: 32 seats" in out
        assert "method greedy" in out

    def test_target_ct_stops_the_greedy_pass(self, capsys, tasks_csv_path):
        code, out, _ = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--target-ct", "60", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["total_stations"] == 25
        assert data["line_cycle_time"] == "60"

    def test_target_ct_conflicts_with_optimal(self, capsys, tasks_csv_path):
        code, _, err = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--method", "optimal", "--target-ct", "60",
        )
        assert code == 2
        assert "error:" in err


class TestCompare:
    def test_shows_both_improvement_views(self, capsys, tasks_csv_path):
        code, out, _ = run(
            capsys, "compare", "--tasks", tasks_csv_path, "--seats", "32",
        )
        assert code == 0
        assert "78.13%" in out
        assert "78.98%" in out
        assert "3x" in out
        assert "1.57" in out
        assert "2.81" in out


class TestRobust:
    def test_json_band(self, capsys, tasks_csv_path, deviations_csv_path):
        code, out, _ = run(
            capsys, "robust", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "robust"
        assert data["regular"] == "40"
        assert data["best"] == "38"
        assert data["worst"] == "42"
        assert data["throughput_best"] == 95
        assert data["throughput_worst"] == 85
        assert data["upph_max"] == "95/32"
        assert data["upph_min"] == "85/32"

    def test_alpha_flag(self, capsys, tasks_csv_path, deviations_csv_path):
        code, out, _ = run(
            capsys, "robust", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alpha", "0.5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == "1/2"
        assert data["worst"] == "41"

    def test_missing_deviation_file(self, capsys, tasks_csv_path, tmp_path):
        partial = tmp_path / "partial.csv"
        partial.write_text("task_id,dev_plus_sec,dev_minus_sec\n19,2,1\n")
        code, _, err = run(
            capsys, "robust", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", str(partial),
        )
        assert code == 2
        assert "error:" in err


class TestSweep:
    def test_grid_csv(self, capsys, tasks_csv_path, deviations_csv_path):
        code, out, _ = run(
            capsys, "sweep", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alphas", "0.5:1:0.25",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "task_id,alpha,regular_ct,best_ct,worst_ct"
        alphas = {row.split(",")[1] for row in lines[1:]}
        assert alphas == {"0.5", "0.75", "1"}
        assert "LINE,1,40,38,42" in lines

    def test_shirt_grid_keeps_every_point(self, capsys, tasks_csv_path, deviations_csv_path):
        code, out, _ = run(
            capsys, "sweep", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alphas", "0.01:1:0.01",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 100 * 20  # header, 100 alphas x (19 tasks + LINE)

    @pytest.mark.parametrize("spec", ["0:1:1e-9", "0:10000:1"])
    def test_grid_above_the_point_limit_exits_2(
        self, capsys, tasks_csv_path, deviations_csv_path, spec
    ):
        # the count is checked before a single point is built
        code, out, err = run(
            capsys, "sweep", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alphas", spec,
        )
        assert code == 2
        assert out == ""
        assert "--alphas" in err and str(MAX_ALPHA_POINTS) in err

    def test_grid_above_the_cell_limit_exits_2_before_balancing(self, capsys, tmp_path, monkeypatch):
        # 25 tasks x 10,000 points: each limit on its own would let it through
        rows = "".join(f"{i},op {i},{30 + i},1,1\n" for i in range(1, 26))
        tasks = tmp_path / "tasks.csv"
        tasks.write_text("task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec\n" + rows)
        deviations = tmp_path / "devs.csv"
        deviations.write_text("task_id,dev_plus_sec,dev_minus_sec\n" + "".join(f"{i},1,1\n" for i in range(1, 26)))
        assert 25 * MAX_ALPHA_POINTS > MAX_SWEEP_CELLS
        monkeypatch.setattr(cli, "greedy_balance", None)  # any work past the check fails with a traceback
        code, out, err = run(
            capsys, "sweep", "--tasks", str(tasks), "--seats", "50",
            "--deviations", str(deviations), "--alphas", "0.0001:1:0.0001",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --alphas grid needs 250000 task x alpha cells, above the limit of {MAX_SWEEP_CELLS}\n"

    def test_cell_limit_counts_tasks_times_points(self, capsys, tasks_csv_path, deviations_csv_path, monkeypatch):
        shirt = ["sweep", "--tasks", tasks_csv_path, "--seats", "32", "--deviations", deviations_csv_path,
                 "--alphas", "0.01:1:0.01"]
        monkeypatch.setattr(cli, "MAX_SWEEP_CELLS", 19 * 100)
        assert run(capsys, *shirt)[0] == 0
        monkeypatch.setattr(cli, "MAX_SWEEP_CELLS", 19 * 100 - 1)
        assert run(capsys, *shirt)[:2] == (2, "")

    def test_malformed_grid(self, capsys, tasks_csv_path, deviations_csv_path):
        code, _, err = run(
            capsys, "sweep", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alphas", "0.5:1",
        )
        assert code == 2

    @pytest.mark.parametrize("spec, message", [
        ("0.1:1:0", "--alphas step must be > 0"),
        ("0.1:1:-0.1", "--alphas step must be > 0"),
        ("1:0.5:0.1", "--alphas start must not exceed stop"),
    ])
    def test_grid_without_points_exits_2(self, capsys, tasks_csv_path, deviations_csv_path, spec, message):
        code, out, err = run(
            capsys, "sweep", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alphas", spec,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSimulate:
    def test_deterministic_run_with_verify(self, capsys, tasks_csv_path):
        code, out, _ = run(
            capsys, "simulate", "--tasks", tasks_csv_path, "--seats", "32",
            "--hours", "9", "--warmup", "1", "--verify",
        )
        assert code == 0
        assert "throughput: 90 pc/hr" in out
        assert "verify throughput_matches_static: ok" in out
        assert "verify bottleneck_dominates_utilization: ok" in out

    def test_uniform_run(self, capsys, devs_plan, tmp_path):
        # uniform service draws from the dev columns of the task table
        table = tmp_path / "with_devs.csv"
        table.write_text(hl.emit_tasks(devs_plan.tasks))
        code, out, _ = run(
            capsys, "simulate", "--tasks", str(table), "--seats", "32",
            "--hours", "2", "--warmup", "1", "--service", "uniform", "--seed", "5",
        )
        assert code == 0
        assert "service uniform" in out
        assert "seed 5" in out

    def test_queue_cap_flag(self, capsys, tasks_csv_path):
        code, out, _ = run(
            capsys, "simulate", "--tasks", tasks_csv_path, "--seats", "32",
            "--hours", "1", "--queue-cap", "2",
        )
        assert code == 0
        assert "peak_queue" in out

    def test_failed_verify_returns_4(self, capsys, tmp_path):
        # two 60 s stages, no warmup: pipeline fill keeps the hour at 59
        # pieces, which a 0.01% tolerance rejects
        table = tmp_path / "line.csv"
        table.write_text(
            "task_id,description,cycle_time_sec\n1,first,60\n2,second,60\n"
        )
        code, out, _ = run(
            capsys, "simulate", "--tasks", str(table), "--seats", "2",
            "--hours", "1", "--verify", "--tol", "0.0001",
        )
        assert code == 4
        assert "verify throughput_matches_static: FAIL" in out

    def test_negative_tolerance_exits_2_before_the_run(self, capsys, tasks_csv_path):
        # a negative tolerance would fail a correct run; it is refused up front
        code, out, err = run(
            capsys, "simulate", "--tasks", tasks_csv_path, "--seats", "32",
            "--hours", "2", "--warmup", "1", "--verify", "--tol", "-0.5",
        )
        assert (code, out) == (2, "")
        assert "error: --tol: tolerance must be >= 0, got -1/2" in err

    def test_warmup_past_the_horizon_names_both_values(self, capsys, tasks_csv_path):
        code, out, err = run(
            capsys, "simulate", "--tasks", tasks_csv_path, "--seats", "32",
            "--hours", "1", "--warmup", "2",
        )
        assert (code, out) == (2, "")
        assert "got warmup 7200 s and horizon 3600 s" in err

    def test_bad_service_model(self, capsys, tasks_csv_path):
        # argparse itself rejects the choice, still with status 2
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--tasks", tasks_csv_path, "--seats", "32",
                "--hours", "1", "--service", "gaussian",
            ])
        assert exc.value.code == 2


class TestExitCodes:
    @pytest.mark.parametrize("command", ["balance", "compare"])
    def test_huge_cycle_time_reports_exit_0(self, capsys, tmp_path, command):
        table = tmp_path / "line.csv"
        table.write_text("task_id,description,cycle_time_sec\n1,a,1e27\n2,b,30\n")
        code, out, err = run(capsys, command, "--tasks", str(table), "--seats", "4")
        assert (code, err) == (0, "")
        assert "333333333333333333333333333.3 sec/pc" in out  # 1e27 over three stations

    def test_compare_labels_a_zero_printed_baseline_as_exact(self, capsys, tmp_path):
        # the 1e27 s line runs at 0.00 UPPH on paper, which gives no printed ratio
        table = tmp_path / "line.csv"
        table.write_text("task_id,description,cycle_time_sec\n1,a,1e27\n2,b,30\n")
        code, out, _ = run(capsys, "compare", "--tasks", str(table), "--seats", "4")
        assert code == 0
        assert (
            "UPPH improvement: 50.00% at full precision; 50.00% exact again, since the "
            "two-decimal printed figures start from zero (0.00 -> 0.00)"
        ) in out
        assert "from the two-decimal printed figures" not in out

    def test_malformed_csv_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("task_id,description,cycle_time_sec\n1,a,fast\n")
        code, _, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert code == 2
        assert "row 2" in err

    def test_cell_above_the_csv_field_limit_exits_2(self, capsys, tmp_path):
        # csv refuses a field longer than 131,072 characters
        bad = tmp_path / "long.csv"
        bad.write_text(f"task_id,description,cycle_time_sec\n1,a,30\n\n2,{'x' * 200_000},40\n")
        code, out, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert (code, out) == (2, "")
        assert err.startswith("error: row 4: not valid CSV: field larger than field limit")
        assert "Traceback" not in err

    def test_task_id_past_the_integer_digit_limit_exits_2(self, capsys, tmp_path):
        # int() refuses more than 4,300 digits; that crashed with exit 1
        bad = tmp_path / "long_id.csv"
        bad.write_text("task_id,description,cycle_time_sec\n" + "1" * 5000 + ",a,30\n")
        code, out, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert (code, out) == (2, "")
        assert err == "error: row 2: task_id has 5000 digits, too many to read\n"
        assert "Traceback" not in err

    def test_invariant_failure_exits_4(self, capsys, tasks_csv_path, monkeypatch):
        def broken(plan, target_ct=None):
            raise hl.InvariantError("line cycle time drifted")

        monkeypatch.setattr(cli, "greedy_balance", broken)
        code, out, err = run(capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32")
        assert (code, out, err) == (4, "", "internal error: line cycle time drifted\n")

    def test_non_finite_cell_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("task_id,description,cycle_time_sec\n1,a,30\n2,b,nan\n")
        code, _, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert code == 2
        assert "row 3" in err

    def test_huge_exponent_cell_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "big.csv"
        bad.write_text("task_id,description,cycle_time_sec\n1,a,30\n2,b,1e999999999\n")
        code, _, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert code == 2
        assert "row 3" in err and "exponent" in err

    def test_huge_exponent_hours_exits_2(self, capsys, tasks_csv_path):
        code, _, err = run(
            capsys, "simulate", "--tasks", tasks_csv_path, "--seats", "32",
            "--hours", "1e999999999",
        )
        assert code == 2
        assert err.startswith("error: --hours:") and "exponent" in err

    def test_non_finite_alpha_exits_2(self, capsys, tasks_csv_path, deviations_csv_path):
        code, _, err = run(
            capsys, "robust", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alpha", "nan",
        )
        assert code == 2
        assert "error:" in err

    def test_infeasible_budget_exits_3(self, capsys, tasks_csv_path):
        code, _, err = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "5"
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("command", [["balance", "--method", "optimal"], ["simulate", "--hours", "1"]])
    @pytest.mark.parametrize("seats", [MAX_SEATS + 1, 10**12])
    def test_seats_above_the_limit_exit_2(self, capsys, tasks_csv_path, command, seats):
        code, out, err = run(capsys, *command, "--tasks", tasks_csv_path, "--seats", str(seats))
        assert code == 2
        assert out == ""
        assert "--seats" in err and str(MAX_SEATS) in err

    def test_hours_above_the_event_limit_exit_2(self, capsys, tasks_csv_path, monkeypatch):
        code, out, err = run(
            capsys, "simulate", "--tasks", tasks_csv_path, "--seats", "32", "--hours", "1e6"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --hours 1e6") and str(MAX_SIM_EVENTS) in err
        # one hour at the 40 s balanced pace: 90 pieces through 19 stages, 60 samples
        hour = ["simulate", "--tasks", tasks_csv_path, "--seats", "32", "--hours", "1"]
        monkeypatch.setattr(cli, "MAX_SIM_EVENTS", 90 * 19 + 60)
        assert run(capsys, *hour)[0] == 0
        monkeypatch.setattr(cli, "MAX_SIM_EVENTS", 90 * 19 + 59)
        assert run(capsys, *hour)[0] == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "balance", "--tasks", str(tmp_path / "ghost.csv"), "--seats", "4"
        )
        assert code == 2


_TASKS_FULL = "task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec"
_BAD_CELLS = ["", "0", "-1", "1e999", "nan", "-inf", "1/0", "\u00b2", " 7 ", "x", "1,2", "\n"]
_small = st.decimals(0, 4, places=2).map(str)
# valid cells far outside the usual range: reports print up to 61 integer digits or 60 decimals
_EXTREME_TIMES = [
    "1e27", "1e60", "1e-60", "1234567890123456789012345678901234567890123456789012345.5"
]
_COLUMNS = {
    "description": st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), max_size=6
    ),
    "cycle_time_sec": st.one_of(
        st.integers(5, 120).map(str),
        st.decimals(5, 120, places=1).map(str),
        st.sampled_from(_EXTREME_TIMES),
    ),
    "dev_plus_sec": _small,
    "dev_minus_sec": _small,
}


@st.composite
def _csv_bytes(draw, header):
    """Arbitrary bytes, or a CSV under `header` whose cells are valid except at most one."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=120))
    columns = header.split(",")[1:]
    ids = draw(st.lists(st.integers(1, 8), unique=True, min_size=1, max_size=6))
    rows = [[str(i), *(draw(_COLUMNS[c]) for c in columns)] for i in ids]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        bad = draw(st.one_of(st.sampled_from(_BAD_CELLS), st.text(max_size=4)))
        row[draw(st.integers(0, len(columns)))] = bad
    return "\n".join([header, *map(",".join, rows)]).encode()


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["balance", "compare", "robust", "sweep", "simulate"]))
    argv = [command, "--seats", str(draw(st.integers(-1, 64)))]
    if command == "balance":
        argv += ["--method", draw(st.sampled_from(["greedy", "optimal"]))]
        argv += ["--format", draw(st.sampled_from(["table", "json"]))]
        target = draw(st.sampled_from([None, "0", "25", "-3", "nan", "1e999", "x"]))
        argv += [] if target is None else ["--target-ct", target]
    if command == "robust":
        argv += ["--alpha", draw(st.sampled_from(["1", "0.5", "0", "2", "-1", "nan", "1e-9", "x"]))]
    if command == "sweep":
        # every grid here has at most 20 points
        grids = ["0.05:1:0.05", "0:1:0.5", "1:0:0.1", "0.5:0.5:1", "0:1:0", "0:1", "a:b:c"]
        argv += ["--alphas", draw(st.sampled_from(grids))]
    if command == "simulate":
        # every horizon here is at most 0.1 h; most options are valid, so runs happen
        argv += ["--hours", draw(st.sampled_from(["0.1", "0.05", "0.02", "1e-9", "0", "nan", "x"]))]
        argv += ["--warmup", draw(st.sampled_from(["0", "0", "0.01", "0.1", "-0.01"]))]
        argv += ["--service", draw(st.sampled_from(["deterministic", "uniform"]))]
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1"]))]
        cap = draw(st.sampled_from([None, None, "1", "3", "0"]))
        argv += [] if cap is None else ["--queue-cap", cap]
        if draw(st.booleans()):
            argv += ["--verify", "--tol", draw(st.sampled_from(["0.02", "0.02", "0", "x"]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(
    call=cli_calls(),
    tasks=st.sampled_from(["task_id,description,cycle_time_sec", _TASKS_FULL]).flatmap(_csv_bytes),
    deviations=_csv_bytes("task_id,dev_plus_sec,dev_minus_sec"),
)
def test_main_keeps_its_exit_code_contract(call, tasks, deviations):
    # whatever the files hold, main exits 0, 2, 3 or 4 and prints no traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("tasks", tasks), ("deviations", deviations)):
            paths[name] = os.path.join(tmp, f"{name}.csv")
            with open(paths[name], "wb") as f:
                f.write(data)
        argv = [*call, "--tasks", paths["tasks"]]
        if call[0] in ("robust", "sweep"):
            argv += ["--deviations", paths["deviations"]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_all_lists_every_public_name():
    # the package resolves its names on access, so they are read through dir() and getattr
    assert [name for name in hl.__all__ if not hasattr(hl, name)] == []
    public = {
        name for name in dir(hl)
        if not name.startswith("_") and not isinstance(getattr(hl, name), types.ModuleType)
    }
    assert set(hl.__all__) == public
    assert len(hl.__all__) == len(public)


class TestRoundTripThroughCli:
    def test_balance_json_parses_back(self, capsys, tasks_csv_path, shirt_plan):
        _, out, _ = run(
            capsys, "balance", "--tasks", tasks_csv_path, "--seats", "32",
            "--format", "json",
        )
        restored = hl.parse_report(out)
        assert restored.line_cycle_time == Fraction(40)
        assert restored.plan == shirt_plan

    def test_robust_json_parses_back(
        self, capsys, tasks_csv_path, deviations_csv_path
    ):
        _, out, _ = run(
            capsys, "robust", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--format", "json",
        )
        restored = hl.parse_report(out)
        assert restored.line_ct_worst == Fraction(42)
        assert restored.eff_min_displayed == Fraction(108, 157)


def test_cli_import_leaves_numpy_out():
    # the package has no runtime dependency; its import cost is its own
    src = str(Path(hl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hangerline.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
