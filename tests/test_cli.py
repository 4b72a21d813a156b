"""Command-line interface: subcommands, output formats, exit codes."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hangerline as hl
from hangerline.cli import main


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

    def test_malformed_grid(self, capsys, tasks_csv_path, deviations_csv_path):
        code, _, err = run(
            capsys, "sweep", "--tasks", tasks_csv_path, "--seats", "32",
            "--deviations", deviations_csv_path, "--alphas", "0.5:1",
        )
        assert code == 2


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

    def test_bad_service_model(self, capsys, tasks_csv_path):
        # argparse itself rejects the choice, still with status 2
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--tasks", tasks_csv_path, "--seats", "32",
                "--hours", "1", "--service", "gaussian",
            ])
        assert exc.value.code == 2


class TestExitCodes:
    def test_malformed_csv_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("task_id,description,cycle_time_sec\n1,a,fast\n")
        code, _, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert code == 2
        assert "row 2" in err

    def test_non_finite_cell_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("task_id,description,cycle_time_sec\n1,a,30\n2,b,nan\n")
        code, _, err = run(capsys, "balance", "--tasks", str(bad), "--seats", "4")
        assert code == 2
        assert "row 3" in err

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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "balance", "--tasks", str(tmp_path / "ghost.csv"), "--seats", "4"
        )
        assert code == 2


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
