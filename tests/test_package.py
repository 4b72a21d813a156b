"""The package's shape: what each import loads, and how large each module is.

`import hangerline` loads no submodule, and a subcommand loads only the
modules it runs. Each case runs in a fresh interpreter, since this one has
loaded everything already.
"""
import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import hangerline as hl
from hangerline import SimConfig

SRC = Path(hl.__file__).resolve().parent.parent
SHIRT = hl.fixture_path("shirt_main_assembly.csv")


def _loaded_after(code: str) -> set[str]:
    """The hangerline submodules loaded once `code` has run in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('hangerline.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import hangerline") == set()


def test_balance_loads_no_metrics_robust_or_simulator():
    loaded = _loaded_after(
        f"import hangerline.cli as cli\nassert cli.main(['balance', '--tasks', {str(SHIRT)!r}, '--seats', '32']) == 0"
    )
    assert "hangerline.balancer" in loaded
    assert loaded.isdisjoint({"hangerline.metrics", "hangerline.robust", "hangerline.simulator"})


def test_deterministic_simulate_loads_no_robust_or_metrics():
    run = f"import hangerline.cli as cli\nassert cli.main(['simulate', '--tasks', {str(SHIRT)!r}, '--seats', '32', '--hours', '2'"
    loaded = _loaded_after(run + ", '--warmup', '1', '--verify']) == 0")
    assert "hangerline.simulator" in loaded
    assert loaded.isdisjoint({"hangerline.metrics", "hangerline.robust"})
    assert "hangerline.robust" in _loaded_after(run + ", '--service', 'uniform']) == 0")


def test_simulation_document_parses_with_nothing_loaded_first(tmp_path, shirt_plan, balanced):
    run = hl.simulate(shirt_plan, balanced.allocation, SimConfig(horizon_s=600, warmup_s=120))
    document = tmp_path / "run.json"
    document.write_text(hl.emit_report(run, "json"))
    loaded = _loaded_after(
        "from pathlib import Path\n"
        "from hangerline.io import emit_report, parse_report\n"
        f"text = Path({str(document)!r}).read_text()\n"
        "assert emit_report(parse_report(text), 'json') == text"
    )
    assert "hangerline.simulator" in loaded


def test_every_module_stays_below_the_parser_token_limit():
    # CPython 3.11's parser takes a larger step in memory once a module passes
    # 4,096 tokens; without .pyc files every process pays it on import
    counts = {}
    for path in sorted((SRC / "hangerline").glob("*.py")):
        with path.open("rb") as f:
            tokens = tokenize.tokenize(f.readline)
            skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
            counts[path.name] = sum(token.type not in skipped for token in tokens)
    assert {name: n for name, n in counts.items() if n >= 4096} == {}
    assert "io.py" in counts
