"""Simulation documents pinned byte for byte.

A seeded corpus of 18 lines in six shapes (15-40 tasks; balanced, one
station per task with the slowest task last, and balanced with a queue cap of
2 and a 3/2 s transfer delay), each run for two hours with a one-hour warmup
under both service models. One sha256 per (service, format) covers the 18
documents. The shirt line's 9 h `simulate --verify` and its uniform capped run
(seed 7, queue cap 5) are kept as text files under tests/golden, so a change
shows as a diff.
"""
import dataclasses
import hashlib
import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import hangerline as hl
from hangerline import SimConfig
from hangerline.cli import main

GOLDEN = Path(__file__).with_name("golden")
SLOTS = ((15, "balanced"), (30, "ones"), (15, "capped"), (20, "balanced"), (40, "ones"), (20, "capped"))


def _line(rng, n, slowest_last):
    """n tasks of 5-120 s with one or two decimals, the first at most 15 s,
    and deviations below a quarter of both the task time and the mean load of
    a seat budget that paces the line near 30 s."""
    scale = 10 ** rng.choice((1, 2))
    units = [rng.randint(15 * scale // 3, 15 * scale)] + [rng.randint(5 * scale, 120 * scale) for _ in range(n - 1)]
    if slowest_last:
        units.append(units.pop(units.index(max(units))))
    budget = max(n, math.ceil(Fraction(sum(units), 30 * scale)))
    mean_load = Fraction(sum(units), scale * budget)
    first = rng.randint(1, 500)
    tasks = []
    for k, u in enumerate(units):
        ct = Fraction(u, scale)
        dev_minus = Fraction(rng.randint(0, int(min(ct, mean_load) / 4 * 10)), 10)
        tasks.append(hl.Task(first + k, f"op-{first + k}", ct, Fraction(rng.randint(0, 30), 10), dev_minus))
    return tuple(tasks), budget


def corpus(seed, service):
    """(plan, allocation, config) for the 18 runs of one seed."""
    rng, draws = random.Random(f"corpus:{seed}"), random.Random(f"corpus-draws:{seed}")
    runs = []
    for copy in range(3):
        for k, (n, shape) in enumerate(SLOTS):
            tasks, budget = _line(rng, n, shape == "ones")
            alpha, run_seed = (Fraction(1, 2) if k % 2 == 0 else Fraction(1)), draws.randrange(2**32)
            if shape == "ones":
                plan = hl.ProcessPlan(tasks=tasks, seat_budget=n)
                allocation = hl.Allocation.ones(plan)
            else:
                plan = hl.ProcessPlan(tasks=tasks, seat_budget=budget)
                allocation = hl.greedy_balance(plan).allocation
            capped = shape == "capped"
            config = SimConfig(
                horizon_s=7200, warmup_s=3600, service_model=service,
                seed=run_seed if service == "uniform" else 0, alpha=alpha if service == "uniform" else 1,
                queue_capacity=2 if capped else None, transfer_delay_s=Fraction(3, 2) if capped else 0,
            )
            runs.append((plan, allocation, config))
    return runs


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        data = text.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("service, json_digest, table_digest", [
    ("deterministic",
     "fbc3e37cc17a3072fa1b9c4cae2504ad63530d5b20830371407e1458fe1e43ca",
     "29f2e286b4956be372fb6a85d3df35acac8972dc7ea0d39b040a59cdc6e38f39"),
    ("uniform",
     "274f242d8400379f847485298833e667c80f1dee86acc3c013ca6483ce29576d",
     "da1e801b6c320d46fbaafcda484e578497fbb99388c3d3d0644b13bbbe576947"),
], ids=["deterministic", "uniform"])
def test_corpus_documents_are_pinned(service, json_digest, table_digest):
    documents, tables = [], []
    for plan, allocation, config in corpus(1, service):
        result = hl.simulate(plan, allocation, config)
        documents.append(hl.emit_report(result, "json"))
        tables.append(hl.emit_report(result, "table"))
        assert hl.parse_report(documents[-1]) == result
    assert (_digest(documents), _digest(tables)) == (json_digest, table_digest)


@pytest.mark.parametrize("name, args", [
    ("shirt_simulate_verify.txt", ["--hours", "9", "--warmup", "1", "--verify"]),
    ("shirt_simulate_uniform_capped.txt",
     ["--hours", "9", "--warmup", "1", "--service", "uniform", "--seed", "7", "--queue-cap", "5"]),
])
def test_shirt_simulate_output_is_pinned(name, args, tasks_csv_path):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["simulate", "--tasks", tasks_csv_path, "--seats", "32", *args]) == 0
    assert out.getvalue() == (GOLDEN / name).read_text()


def test_a_document_with_float_utilizations_still_reads():
    # written when uniform runs drew float service times and kept float shares:
    # it reads and writes back byte for byte, and the exact rerun of its config
    # differs from it only in the shares, each by float rounding
    text = (GOLDEN / "uniform_float_utilization.json").read_text()
    report = hl.parse_report(text)
    assert all(type(u) is float for u in report.utilization.values())
    assert hl.emit_report(report, "json") == text
    rerun = hl.simulate(report.plan, report.allocation, report.config)
    assert dataclasses.replace(rerun, utilization=report.utilization) == report
    assert all(abs(rerun.utilization[k] - u) < 1e-12 for k, u in report.utilization.items())
