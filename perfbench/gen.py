"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the program is built here from the workload name
and the seed, as CSV text. The same (workload, seed) pair always yields the
same bytes. Line sizes are fixed per slot and only the values depend on the
seed, so per-job work barely moves between seeds while the inputs differ.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

HEADER = "task_id,description,cycle_time_sec,dev_plus_sec,dev_minus_sec"

# (tasks, seat budget as a multiple of tasks, draw from a small palette)
BALANCE_SLOTS = (
    (20, 2, False),
    (20, 6, True),
    (30, 4, False),
    (40, 3, False),
    (50, 2, True),
    (60, 4, False),
    (25, 5, False),
    (40, 2, False),
)
BALANCE_LINES_PER_SLOT = 3

# (tasks, shape, horizon in hours). Warmup is always one hour. The work per
# job is kept nearly independent of the drawn values: balanced and capped
# lines get the seats for a 30 s target pace (work content / 30 s), and
# one-station lines put their slowest task last, so upstream stages run at
# the pace of the second slowest and the queue before the last task grows.
# Balanced lines stay at or below 20 tasks so their fill time (the sum of
# the task times) ends before the warmup does and verify compares like with
# like. Simulated lines open with a short loading task, as the shirt line
# does: when the first task is split across stations, the loader gate starves
# it and verify fails. That case runs as SPLIT_FIRST_PROBE instead, outside
# the counted jobs, so it shows in every synth_sim_exact report.
SIM_SLOTS = (
    (15, "balanced", Fraction(2)),
    (30, "ones", Fraction(2)),
    (15, "capped", Fraction(2)),
    (20, "balanced", Fraction(2)),
    (40, "ones", Fraction(2)),
    (20, "capped", Fraction(2)),
)
SIM_LINES_PER_SLOT = 3
SIM_TARGET_CT_S = 30
SIM_FIRST_TASK_MAX_S = 15
SIM_WARMUP_H = Fraction(1)
SIM_CAP = 2
SIM_TRANSFER_DELAY_S = Fraction(3, 2)


@dataclass(frozen=True)
class Line:
    """One generated task table and the seat budget it is balanced under."""

    name: str
    csv: str
    budget: int


@dataclass(frozen=True)
class SimSpec:
    """One simulation job: a line, its shape and its run parameters."""

    line: Line
    shape: str  # balanced | ones | capped
    horizon_h: Fraction
    alpha: Fraction
    sim_seed: int


# Greedy gives it stations (2, 1, 2) and a 30 s line cycle time; the gate lets
# stage one start new pieces only once the single-station queue is empty.
SPLIT_FIRST_PROBE = Line("split_first_stage", HEADER + "\n1,load,60,0,0\n2,sew,30,0,0\n3,hem,40,0,0\n", 5)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _decimal_text(units: int, decimals: int) -> str:
    """units / 10**decimals written with exactly `decimals` decimals."""
    whole, frac = divmod(units, 10**decimals)
    return f"{whole}.{frac:0{decimals}d}"


def make_line(rng: random.Random, name: str, n: int, budget_for, palette: bool = False,
              first_max: int | None = None, slowest_last: bool = False) -> Line:
    """A line of n tasks with cycle times in [5, 120] s.

    Cycle times carry one or two decimals. A palette line draws every task
    from 3-5 values, so ties between tasks are common. With first_max, the
    first task is drawn from [5, first_max] s instead; with slowest_last, the
    slowest task moves to the end. The seat budget is budget_for(n, work
    content in s). dev_minus stays below a quarter of both the task time and
    the mean station load, which keeps every alpha-widened interval positive
    for any allocation the greedy balancer can reach under that budget.
    """
    decimals = rng.choice((1, 2))
    scale = 10**decimals

    def draw(top=120) -> int:
        return rng.randint(5 * scale, top * scale)

    if palette:
        values = [draw() for _ in range(rng.randint(3, 5))]
        units = [rng.choice(values) for _ in range(n)]
    else:
        units = [draw() for _ in range(n)]
    if first_max is not None:
        units[0] = draw(first_max)
    if slowest_last:
        units.append(units.pop(units.index(max(units))))
    budget = budget_for(n, Fraction(sum(units), scale))
    mean_load = Fraction(sum(units), scale * budget)
    first_id = rng.randint(1, 500)
    rows = [HEADER]
    for k, u in enumerate(units):
        task_id = first_id + k
        limit = min(Fraction(u, scale), mean_load) / 4
        dev_minus = rng.randint(0, int(limit * 10))
        dev_plus = rng.randint(0, 30)
        rows.append(
            f"{task_id},op-{task_id},{_decimal_text(u, decimals)},"
            f"{_decimal_text(dev_plus, 1)},{_decimal_text(dev_minus, 1)}"
        )
    return Line(name, "\n".join(rows) + "\n", budget)


def balance_lines(seed: int) -> list[Line]:
    rng = _rng("synth_balance", seed)
    lines = []
    for copy in range(BALANCE_LINES_PER_SLOT):
        for n, multiple, palette in BALANCE_SLOTS:
            name = f"bal{n}x{n * multiple}{'p' if palette else ''}.{copy}"
            lines.append(make_line(rng, name, n, lambda n, work: n * multiple, palette))
    return lines


def _sim_budget(n: int, work: Fraction) -> int:
    return max(n, math.ceil(work / SIM_TARGET_CT_S))


def sim_specs(seed: int, service: str) -> list[SimSpec]:
    """Simulation jobs. Both service models see the same lines and shapes;
    the uniform model also alternates alpha and draws a fixed run seed."""
    rng = _rng("synth_sim", seed)
    run_rng = _rng("synth_sim_uniform", seed)
    specs = []
    for copy in range(SIM_LINES_PER_SLOT):
        for k, (n, shape, hours) in enumerate(SIM_SLOTS):
            line = make_line(rng, f"sim{n}{shape[0]}{hours}h.{copy}", n, _sim_budget,
                             first_max=SIM_FIRST_TASK_MAX_S, slowest_last=shape == "ones")
            alpha = Fraction(1, 2) if k % 2 == 0 else Fraction(1)
            sim_seed = run_rng.randrange(2**32)
            if service == "deterministic":
                alpha, sim_seed = Fraction(1), 0
            specs.append(SimSpec(line, shape, hours, alpha, sim_seed))
    return specs


def shirt_bad_inputs(seed: int, fixture_csv: str) -> dict[str, str]:
    """Two corrupted copies of the shirt task table: one with a non-numeric
    cycle-time cell and one with a `nan` cell, in a seed-chosen row."""
    rng = _rng("shirt_cli", seed)
    rows = fixture_csv.rstrip("\n").split("\n")
    out = {}
    for name, token in (("non_numeric", rng.choice(("abc", "4O", "1,5", "--"))), ("nan", "nan")):
        k = rng.randint(1, len(rows) - 1)
        cells = rows[k].split(",")
        cells[-1] = f'"{token}"' if "," in token else token
        out[name] = "\n".join(rows[:k] + [",".join(cells)] + rows[k + 1:]) + "\n"
    return out


def digest(texts) -> str:
    """sha256 over the generated inputs, in order, each length-prefixed."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()
