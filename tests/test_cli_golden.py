"""The shirt line's CLI calls pinned byte for byte.

Each call runs through `cli.main` in process, and its exit code, stdout and
stderr are kept as one text file under tests/golden/cli, so a change shows as
a diff and a failure names its first differing line. Refused calls are pinned
too: their exit codes and messages are part of the CLI's contract.

To re-capture one file after a deliberate change, run from the repo root:
    PYTHONPATH=src:. python -c "import tests.test_cli_golden as g; g.capture('NAME')"
"""
import contextlib
import io
import tempfile
from pathlib import Path

import pytest

import hangerline as hl
from hangerline.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli"
TASKS = str(hl.fixture_path("shirt_main_assembly.csv"))
DEVIATIONS = str(hl.fixture_path("shirt_deviations.csv"))
BAD_CELL = "task_id,description,cycle_time_sec\n1,a,30\n2,b,fast\n"


def _line(*args, seats="32"):
    return ["--tasks", TASKS, "--seats", seats, *args]


def _robust(alpha, *args):
    return ["robust", *_line("--deviations", DEVIATIONS, "--alpha", alpha, *args)]


CALLS = {
    "balance_table": ["balance", *_line()],
    "balance_json": ["balance", *_line("--format", "json")],
    "balance_optimal": ["balance", *_line("--method", "optimal")],
    "balance_target_60": ["balance", *_line("--target-ct", "60")],
    "balance_target_60.5": ["balance", *_line("--target-ct", "60.5")],
    "compare_19": ["compare", *_line(seats="19")],
    "compare_32": ["compare", *_line()],
    "robust_0.5": _robust("0.5"),
    "robust_1_json": _robust("1", "--format", "json"),
    "robust_0.33": _robust("0.33"),
    "robust_1.5": _robust("1.5"),
    "sweep_0.05": ["sweep", *_line("--deviations", DEVIATIONS, "--alphas", "0.05:1:0.05")],
    "refused_bad_cell": ["balance", "--tasks", "{bad}", "--seats", "4"],
    "refused_18_seats": ["balance", *_line(seats="18")],
    "refused_negative_tol": ["simulate", *_line("--hours", "1", "--verify", "--tol", "-1")],
    "refused_hours_1e6": ["simulate", *_line("--hours", "1e6")],
}


def _run(name) -> str:
    """The call's exit code, stdout and stderr as one text."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.csv"
        bad.write_text(BAD_CELL)
        argv = [arg.format(bad=bad) for arg in CALLS[name]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def capture(name):
    (GOLDEN / f"{name}.txt").write_text(_run(name))


@pytest.mark.parametrize("name", CALLS)
def test_shirt_cli_call_is_pinned(name):
    got, want = _run(name), (GOLDEN / f"{name}.txt").read_text()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        k = next((k for k, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(
            f"{name}: line {k + 1} differs\n"
            f"  want: {want_lines[k] if k < len(want_lines) else '<end>'!r}\n"
            f"  got:  {got_lines[k] if k < len(got_lines) else '<end>'!r}"
        )
