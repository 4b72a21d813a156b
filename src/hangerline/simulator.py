"""Discrete-event simulation of a one-piece-flow line.

Each task in plan order is a stage: one FIFO input queue feeding s_i
identical parallel servers, each of which needs the task's raw time per
piece (so the stage paces at the effective cycle time t_i / s_i). Raw
material is always available. A free first-stage server hangs a new piece
while the front WIP, the pieces in first-stage service plus those in transit
to or queued at the second stage, is below min(s_2, queue capacity) + s_1 - 1:
a CONWIP release rule (Spearman, Woodruff & Hopp, IJPR 28(5), 1990). With
s_1 = 1 it is one-piece flow, a piece for each free slot in the first queue;
a split first stage also keeps a piece on each of its stations instead of
starting them in lock-step batches. Downstream of that single admission gate
pieces are pushed: on an imbalanced line WIP accumulates in front of the
slow stage, which is exactly the behaviour the simulation exists to show.

Under uniform service a server's time is drawn from s_i times the task's
effective interval at config.alpha (robust.effective_intervals): the
deviations describe the stage's effective time.

With a queue_capacity set, a finished piece that finds the next queue full
holds its server (blocking after service) until a slot opens.

Events are ordered by (time, stage index, piece id, kind). Two events that
agree on all four are the same event, so their order cannot change the
result, and identical inputs replay to bit-identical results. Each pass of the
one event loop takes one event. The ARRIVE an END schedules is held out of the
heap, and the next pass takes heappushpop(heap, held): the least of it and the
heap's top, which is what pushing it and popping would give, so the order is
unchanged. Most often it is the held ARRIVE, which then never enters the heap.
A pass whose END frees a server of stage i, or whose ARRIVE fills stage i's
queue, goes on to start every service stage i can. A START event is pushed
only for the first release and where a queue slot opens, to wake the stage
upstream and the loader. Starting in the same pass gives the same run as
pushing a START (t, i, 0) and popping it: the pass took an END or ARRIVE
(t, i, p) with piece p >= 1, so every pending event is at least that, and no
START (t, i, 0), which sorts before it, is pending. Before it starts service
the pass has held at most an ARRIVE for stage i + 1, which sorts after that
START. So the START would be the least pending event and would run next, on
the state the pass left.

Time runs on one clock whose tick is 1/scale seconds, where scale is the
least common multiple of the denominators of the horizon, warmup, transfer
delay and sample interval, and under deterministic service also of the task
cycle times. Under uniform service it is that of each stage's band low end
and width, times 2^53: random() returns k / 2^53, so every draw is a whole
number of ticks. Every run is therefore exact integer arithmetic, and times
and utilizations are turned back into Fractions of a second only in the
result. Before it starts, a run counts its events at the line's fastest pace
(each stage at its band's low end), and one above MAX_SIM_EVENTS is refused.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DomainError, InvariantError
from .io import _REPORTS, _Kind, _frac_in, _frac_out, _layout, _render_columns, format_number, format_percent
from .model import (
    SECONDS_PER_HOUR,
    Allocation,
    ProcessPlan,
    _alpha,
    _require_staffable,
    as_fraction,
    bottleneck_tasks,
    line_cycle_time,
)

_SERVICE_MODELS = ("deterministic", "uniform")
# the most stage visits plus WIP samples a run takes on, counted at the line's
# fastest pace: ~3 s at ~650k visits/s (the 1,100 h shirt run, 1.88M visits,
# 2.9 s wall on one core of a 2-vCPU Xeon)
MAX_SIM_EVENTS = 2_000_000

# event kinds, in tie-break order after (time, stage, piece)
_ARRIVE, _END, _START, _SAMPLE = 0, 1, 2, 3


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. Times are simulated seconds."""

    horizon_s: Fraction
    warmup_s: Fraction = Fraction(0)
    service_model: str = "deterministic"
    seed: int = 0
    queue_capacity: int | None = None
    alpha: Fraction = Fraction(1)
    transfer_delay_s: Fraction = Fraction(0)
    sample_interval_s: Fraction = Fraction(60)

    def __post_init__(self):
        for name in ("horizon_s", "warmup_s", "alpha", "transfer_delay_s", "sample_interval_s"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.horizon_s <= 0:
            raise DomainError(f"horizon must be > 0 seconds, got {self.horizon_s}")
        if self.warmup_s < 0 or self.warmup_s >= self.horizon_s:
            raise DomainError(
                f"warmup must satisfy 0 <= warmup < horizon, got warmup {self.warmup_s} s "
                f"and horizon {self.horizon_s} s"
            )
        if self.service_model not in _SERVICE_MODELS:
            raise DomainError(f"service_model must be one of {_SERVICE_MODELS}, got {self.service_model!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.queue_capacity is not None and (
            type(self.queue_capacity) is not int or self.queue_capacity < 1
        ):
            raise DomainError(f"queue_capacity must be >= 1 or None, got {self.queue_capacity!r}")
        _alpha(self.alpha)
        if self.transfer_delay_s < 0:
            raise DomainError("transfer delay must be >= 0")
        if self.sample_interval_s <= 0:
            raise DomainError("sample interval must be > 0")


@dataclass(frozen=True)
class WipSample:
    """Queue lengths and conservation counters at one sampling instant."""

    time: Fraction
    queue_lengths: dict[int, int]
    released: int
    completed: int
    in_flight: int


@dataclass(frozen=True)
class SimResult:
    """Outcome of one run.

    completed and throughput cover the post-warmup window only;
    completed_total counts the whole horizon. utilization is the fraction
    of the post-warmup window each stage's servers spent serving (time
    spent holding a finished piece against a full queue is not service).
    conservation is (released, completed_total, in_flight) at the horizon.
    """

    plan: ProcessPlan
    allocation: Allocation
    config: SimConfig
    completed: int
    completed_total: int
    released: int
    throughput: Fraction
    utilization: dict[int, Fraction]
    conservation: tuple[int, int, int]
    wip_timeseries: tuple[WipSample, ...]


def _in_flight(time, released, completed, lengths, servers_busy, inbound) -> int:
    """Pieces in the line at `time`, from its queue lengths, busy servers and
    pieces in transit, checked against released = completed + in flight."""
    in_flight = sum(lengths) + sum(servers_busy) + sum(inbound)
    if released != completed + in_flight:
        raise InvariantError(
            f"piece conservation broken at t={time}: released={released}, "
            f"completed={completed}, in_flight={in_flight}"
        )
    return in_flight


def simulate(plan: ProcessPlan, allocation: Allocation, config: SimConfig) -> SimResult:
    """Run the line and collect throughput, WIP trajectories and utilization."""
    _require_staffable(plan, allocation)
    n = len(plan.tasks)
    s = [allocation.count(t.id) for t in plan.tasks]
    uniform = config.service_model == "uniform"
    if uniform:
        # a stage's deviations widen its effective time, so a server's raw band is
        # s_i times it. random() is k / 2^53, so a draw lo + width * random() is
        # lo + (width / 2^53) * k, a whole number of ticks on a clock scaled by 2^53
        from .robust import effective_intervals  # only here: a deterministic run loads no robust or metrics

        intervals = effective_intervals(plan, allocation, config.alpha).values()
        bands = [(k * iv.lo, k * (iv.hi - iv.lo)) for k, iv in zip(s, intervals)]
        draw = random.Random(config.seed).random
    else:
        bands = [(t.cycle_time, Fraction(0)) for t in plan.tasks]

    # the clock counts ticks of 1/scale s, so every time is an int
    exact = [config.horizon_s, config.warmup_s, config.transfer_delay_s, config.sample_interval_s]
    unit = math.lcm(*(x.denominator for x in exact + [x for band in bands for x in band]))
    scale = unit << 53 if uniform else unit
    exact += [lo for lo, _ in bands]
    horizon, warmup, delay, interval, *low = (x.numerator * (scale // x.denominator) for x in exact)
    width = [w.numerator * (unit // w.denominator) for _, w in bands]
    # pieces through every stage at the line's fastest pace, plus the WIP samples
    events = n * min(-(-horizon * k // t) for k, t in zip(s, low)) + horizon // interval
    if events > MAX_SIM_EVENTS:
        needs = events if events < 10**100 else "over 10^100"  # str() refuses an int past 4,300 digits
        raise DomainError(f"the run needs {needs} events, above the limit of {MAX_SIM_EVENTS}")
    cap = config.queue_capacity
    window = config.horizon_s - config.warmup_s
    # the loader's CONWIP limit on the front WIP
    front_limit = (s[1] if cap is None else min(s[1], cap)) + s[0] - 1 if n > 1 else None
    later_ids = plan.task_ids[1:]

    queue: list[deque[int]] = [deque() for _ in range(n)]  # queue[0] stays unused (source)
    blocked: list[deque[int]] = [deque() for _ in range(n)]
    inbound = [0] * n
    servers_busy = [0] * n
    busy_time = [0] * n

    released = 0
    completed_total = 0
    completed = 0

    samples: list[WipSample] = []
    heap: list[tuple] = []
    push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
    push(heap, (0, 0, 0, _START))
    push(heap, (0, n, 0, _SAMPLE))
    held = None  # the ARRIVE the last pass scheduled, kept out of the heap

    while True:
        if held:
            t, i, piece, kind = pushpop(heap, held) if heap else held
            held = None
        elif heap:
            t, i, piece, kind = pop(heap)
        else:
            break
        if t > horizon:
            break
        if kind == _ARRIVE:
            inbound[i] -= 1
            queue[i].append(piece)
        elif kind == _END:
            if i == n - 1:
                completed_total += 1
                if t > warmup:
                    completed += 1
            elif cap is None or len(queue[i + 1]) + inbound[i + 1] < cap:
                inbound[i + 1] += 1
                held = (t + delay, i + 1, piece, _ARRIVE)
            else:
                blocked[i].append(piece)  # hold the server until a slot opens
                continue
            servers_busy[i] -= 1
        elif kind == _SAMPLE:
            time = Fraction(t, scale)
            lengths = [*map(len, queue)]
            in_flight = _in_flight(time, released, completed_total, lengths, servers_busy, inbound)
            samples.append(WipSample(time, dict(zip(later_ids, lengths[1:])), released, completed_total, in_flight))
            if t + interval <= horizon:
                push(heap, (t + interval, n, 0, _SAMPLE))
            continue
        # a START, or a step that freed a server or filled a queue: start what
        # stage i can, the loader while its gate is open, a later stage from its queue
        q = queue[i]
        while servers_busy[i] < s[i]:
            if i:
                if not q:
                    break
                piece = q.popleft()
            elif n == 1 or len(queue[1]) + inbound[1] + servers_busy[0] < front_limit:
                released += 1
                piece = released
            else:
                break
            servers_busy[i] += 1
            end = t + (low[i] + width[i] * int(draw() * 2.0**53) if uniform else low[i])
            lo = t if t > warmup else warmup  # the service's span inside the window
            hi = end if end < horizon else horizon
            busy_time[i] += hi - lo if hi > lo else 0
            push(heap, (end, i, piece, _END))
            # a slot opened in queue[i]: wake a blocked upstream server, or the loader
            if i and blocked[i - 1]:
                inbound[i] += 1
                push(heap, (t + delay, i, blocked[i - 1].popleft(), _ARRIVE))
                servers_busy[i - 1] -= 1
                push(heap, (t, i - 1, 0, _START))
            if i == 1:
                push(heap, (t, 0, 0, _START))

    in_flight = _in_flight(config.horizon_s, released, completed_total, map(len, queue), servers_busy, inbound)

    utilization = {t.id: Fraction(busy, k * (horizon - warmup)) for t, k, busy in zip(plan.tasks, s, busy_time)}
    return SimResult(
        plan=plan,
        allocation=allocation,
        config=config,
        completed=completed,
        completed_total=completed_total,
        released=released,
        throughput=Fraction(completed) * SECONDS_PER_HOUR / window,
        utilization=utilization,
        conservation=(released, completed_total, in_flight),
        wip_timeseries=tuple(samples),
    )


def queue_trend(result: SimResult, task_id: int) -> tuple[float, float]:
    """Least-squares linear trend of one queue's post-warmup length series.

    Returns (slope in pieces per second, R^2). A constant series has R^2 0.
    """
    if not result.wip_timeseries or task_id not in result.wip_timeseries[0].queue_lengths:
        raise DomainError(f"no inter-stage queue feeds task {task_id}")
    points = [
        (sample.time, sample.queue_lengths[task_id])
        for sample in result.wip_timeseries
        if sample.time >= result.config.warmup_s
    ]
    n = len(points)
    if n < 2:
        raise DomainError("need at least two samples after the warmup to fit a trend")
    # exact least squares over integer times (scaled by their common denominator,
    # as int sums are far cheaper than Fraction sums); s_ab is n * centred sum
    scale = math.lcm(*(x.denominator for x, _ in points))
    points = [(x.numerator * (scale // x.denominator), y) for x, y in points]
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    s_xx = n * sum(x * x for x, _ in points) - sx * sx
    s_xy = n * sum(x * y for x, y in points) - sx * sy
    s_yy = n * sum(y * y for _, y in points) - sy * sy
    r_squared = 0.0 if s_yy == 0 else float(Fraction(s_xy * s_xy, s_xx * s_yy))
    return float(Fraction(s_xy * scale, s_xx)), r_squared


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    checks: tuple[VerifyCheck, ...]


def _tolerance(value) -> Fraction:
    """A relative tolerance as a Fraction, checked to be >= 0."""
    tolerance = as_fraction(value)
    if tolerance < 0:
        raise DomainError(f"tolerance must be >= 0, got {tolerance}")
    return tolerance


def verify_against_static(
    sim_result: SimResult,
    plan: ProcessPlan,
    allocation: Allocation,
    tolerance=Fraction(2, 100),
) -> VerifyResult:
    """Check a deterministic run against the static arithmetic.

    Throughput must land within tolerance of period/line CT (per hour), and
    the bottleneck's utilization within tolerance of the busiest other stage
    (both relative). The second check does not ask for strict dominance: a
    never-blocked first stage reads exactly 1 while a bottleneck that was
    still filling when the warmup ended reads a hair below it. A negative
    tolerance is refused.
    """
    tolerance = _tolerance(tolerance)
    if sim_result.plan != plan or sim_result.allocation != allocation:
        raise DomainError("sim result was produced from a different plan/allocation pair")
    if sim_result.config.service_model != "deterministic":
        raise DomainError("static verification is defined for the deterministic service model")

    static_tp = Fraction(SECONDS_PER_HOUR) / line_cycle_time(plan, allocation)
    gap = abs(sim_result.throughput - static_tp)
    tp_ok = gap <= tolerance * static_tp
    tp_check = VerifyCheck(
        name="throughput_matches_static",
        passed=tp_ok,
        detail=(
            f"simulated {float(sim_result.throughput):.3f} pc/hr vs static "
            f"{float(static_tp):.3f} pc/hr (gap {float(gap / static_tp):.4%}, "
            f"tolerance {float(tolerance):.2%})"
        ),
    )

    necks = set(bottleneck_tasks(plan, allocation))
    neck_util = min(sim_result.utilization[i] for i in necks)
    others = [u for i, u in sim_result.utilization.items() if i not in necks]
    util_ok = not others or neck_util >= (1 - tolerance) * max(others)
    util_check = VerifyCheck(
        name="bottleneck_dominates_utilization",
        passed=util_ok,
        detail=(
            f"bottleneck utilization {float(neck_util):.4f} vs best other "
            f"{(float(max(others)) if others else 0.0):.4f}"
        ),
    )

    checks = (tp_check, util_check)
    return VerifyResult(passed=all(c.passed for c in checks), checks=checks)


# -------------------- simulation report: table and rebuild, registered with io

def _sim_table(r: SimResult) -> str:
    peak = {
        tid: max(s.queue_lengths[tid] for s in r.wip_timeseries)
        for tid in (r.wip_timeseries[0].queue_lengths if r.wip_timeseries else {})
    }
    rows = [
        (str(t.id), str(r.allocation.count(t.id)), format_percent(r.utilization[t.id]), str(peak.get(t.id, "-")))
        for t in r.plan.tasks
    ]
    table = _render_columns(("task", "stations", "utilization", "peak_queue"), rows)
    released, completed_total, in_flight = r.conservation
    lines = [
        f"horizon {format_number(r.config.horizon_s)} s, warmup {format_number(r.config.warmup_s)} s, "
        f"service {r.config.service_model}, seed {r.config.seed}",
        f"throughput: {format_number(r.throughput)} pc/hr "
        f"({r.completed} pieces after warmup)",
        f"pieces: released {released} = completed {completed_total} + in flight {in_flight}",
        table,
    ]
    return "\n".join(lines) + "\n"


def _sample_template(keys, ind) -> str:
    """The %-template of a WipSample nested at ind whose queue lengths have
    these keys, laid out as the generic writer lays out the object."""
    lengths = _layout("{}", [f'"{k}"'.replace("%", "%%") + ": %s" for k in keys], ind + "  ")
    fields = ['"time": %s', f'"queue_lengths": {lengths}', '"released": %s', '"completed": %s', '"in_flight": %s']
    return _layout("{}", fields, ind)


def _write_samples(samples, ind) -> str:
    """A simulation's WIP samples, byte for byte as the generic writer writes
    them, each filled into the template of its key tuple: a float time as a
    JSON number, every count and length as int.__repr__ writes it (a bool as
    0 or 1; a float raises TypeError)."""
    inner, templates, rows = ind + "  ", {}, []
    for x in samples:
        time, lengths = _frac_out(x.time, inner), x.queue_lengths
        keys = tuple(lengths)
        row = templates.get(keys) or templates.setdefault(keys, _sample_template(keys, inner))
        values = (*lengths.values(), x.released, x.completed, x.in_flight)
        if [*map(type, values)].count(int) != len(values):  # %s writes an exact int as int.__repr__ does
            values = [*map(int.__repr__, values)]
        rows.append(row % (time, *values))
    return _layout("[]", rows, ind)


def _decode_samples(raw, plan, config) -> tuple[WipSample, ...]:
    """A simulation's WIP samples, read against its plan and config: one per
    sample interval from 0 to the horizon, each at its grid time, with int
    queue lengths keyed by the plan's ids after the first, in plan order, and
    released = completed + in_flight."""
    ids, step = plan.task_ids[1:], config.sample_interval_s
    keys = [str(i) for i in ids]
    if len(raw) != config.horizon_s // step + 1:
        raise ValueError(f"wip_timeseries has {len(raw)} samples, not one per sample interval")
    num, den = step.as_integer_ratio()
    samples, before = [], (0, 0)
    for k, x in enumerate(raw):
        lengths, counts = x["queue_lengths"], (x["released"], x["completed"], x["in_flight"])
        if type(lengths) is not dict or list(lengths) != keys:
            raise ValueError(f"wip_timeseries[{k}]: queue_lengths must be an object keyed by later task ids")
        values = (*lengths.values(), *counts)
        if [*map(type, values)].count(int) != len(values):
            raise TypeError(f"wip_timeseries[{k}]: queue_lengths and counts must be integers")
        # the time as written, or its number; on a whole-second grid it is an int
        time = Fraction(k * num) if den == 1 else Fraction(k * num, den)
        written = x["time"]
        if written != (str(k * num) if den == 1 else str(time)) and _frac_in(written) != time:
            raise ValueError(f"wip_timeseries[{k}]: time {written!r} is off the sample grid, expected {time}")
        if counts[0] != counts[1] + counts[2]:
            raise ValueError(f"wip_timeseries[{k}]: released {counts[0]} is not completed + in_flight")
        if counts[0] < before[0] or counts[1] < before[1]:
            raise ValueError(f"wip_timeseries[{k}]: released and completed must be at least 0 and never fall")
        before = counts
        samples.append(WipSample(time, dict(zip(ids, values)), *counts))
    return tuple(samples)


def _rebuild_simulation(r: SimResult) -> SimResult:
    """The document with the throughput and conservation its counts fix; the
    allocation must be staffable, utilizations shares of the plan's tasks."""
    _require_staffable(r.plan, r.allocation)
    if list(r.utilization) != list(r.plan.task_ids) or not all(0 <= u <= 1 for u in r.utilization.values()):
        raise ValueError("utilization must give each plan task, in plan order, a share in [0, 1]")
    if not r.completed <= r.completed_total <= r.released:
        raise ValueError("counts must satisfy completed <= completed_total <= released")
    last = r.wip_timeseries[-1]
    if last.released > r.released or last.completed > r.completed_total:
        raise ValueError("the last sample's counts must not exceed released and completed_total")
    window = r.config.horizon_s - r.config.warmup_s
    return replace(
        r, throughput=Fraction(r.completed) * SECONDS_PER_HOUR / window,
        conservation=(r.released, r.completed_total, r.released - r.completed_total),
    )


_REPORTS[SimResult] = _Kind("simulation", _sim_table, _rebuild_simulation, samples=(_write_samples, _decode_samples))
