"""Discrete-event simulation of a one-piece-flow line.

Each task in plan order is a stage: one FIFO input queue feeding s_i
identical parallel servers, each of which needs the task's raw time per
piece (so the stage paces at the effective cycle time t_i / s_i). Raw
material is always available; the loader hangs a new piece whenever a
first-stage server is free and the first inter-stage queue has room for
another piece, which is the one-piece-flow discipline of not piling work
between neighbouring processes. Downstream of that single admission gate
pieces are pushed: on an imbalanced line WIP accumulates in front of the
slow stage, which is exactly the behaviour the simulation exists to show.

With a queue_capacity set, a finished piece that finds the next queue full
holds its server (blocking after service) until a slot opens.

Event ordering is (time, stage index, piece id, kind, insertion sequence),
so identical inputs replay to bit-identical results.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantError
from .model import (
    SECONDS_PER_HOUR,
    Allocation,
    ProcessPlan,
    as_fraction,
    bottleneck_tasks,
    line_cycle_time,
)

_SERVICE_MODELS = ("deterministic", "uniform")

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
        model = {"uniform-interval": "uniform"}.get(self.service_model, self.service_model)
        object.__setattr__(self, "service_model", model)
        if self.horizon_s <= 0:
            raise DomainError(f"horizon must be > 0 seconds, got {self.horizon_s}")
        if self.warmup_s < 0 or self.warmup_s >= self.horizon_s:
            raise DomainError(
                f"warmup must satisfy 0 <= warmup < horizon, got {self.warmup_s}/{self.horizon_s}"
            )
        if model not in _SERVICE_MODELS:
            raise DomainError(f"service_model must be one of {_SERVICE_MODELS}, got {model!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.queue_capacity is not None and (
            type(self.queue_capacity) is not int or self.queue_capacity < 1
        ):
            raise DomainError(f"queue_capacity must be >= 1 or None, got {self.queue_capacity!r}")
        if not 0 < self.alpha <= 1:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
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


def _raw_service_bounds(plan: ProcessPlan, allocation: Allocation, alpha: Fraction):
    """Per-stage raw service-time interval for the uniform model.

    Deviations in the task table describe the stage's effective cycle time,
    so a stage with s servers maps [eff - a*d_minus, eff + a*d_plus] back to
    raw per-server time by scaling with s.
    """
    bounds = []
    for t in plan.tasks:
        s = allocation.count(t.id)
        lo = t.cycle_time - s * alpha * t.dev_minus
        hi = t.cycle_time + s * alpha * t.dev_plus
        if lo <= 0:
            raise DomainError(
                f"task {t.id}: alpha-scaled deviation leaves a nonpositive "
                f"service time ({lo}) across {s} stations"
            )
        bounds.append((lo, hi))
    return bounds


def simulate(plan: ProcessPlan, allocation: Allocation, config: SimConfig) -> SimResult:
    """Run the line and collect throughput, WIP trajectories and utilization."""
    n = len(plan.tasks)
    s = [allocation.count(t.id) for t in plan.tasks]
    raw_time = [t.cycle_time for t in plan.tasks]
    uniform = config.service_model == "uniform"
    bounds = _raw_service_bounds(plan, allocation, config.alpha) if uniform else None
    rng = random.Random(config.seed)

    horizon, warmup = config.horizon_s, config.warmup_s
    delay = config.transfer_delay_s
    cap = config.queue_capacity
    window = horizon - warmup

    queue: list[deque[int]] = [deque() for _ in range(n)]  # queue[0] stays unused (source)
    blocked: list[deque[int]] = [deque() for _ in range(n)]
    inbound = [0] * n
    servers_busy = [0] * n
    busy_time = [Fraction(0)] * n

    released = 0
    completed_total = 0
    completed = 0

    heap: list[tuple] = []
    seq = 0

    def push(time, stage, piece, kind):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (time, stage, piece, kind, seq))

    def service_time(i):
        if uniform:
            lo, hi = bounds[i]
            return rng.uniform(float(lo), float(hi))
        return raw_time[i]

    def clipped_span(t0, t1):
        a = t0 if t0 > warmup else warmup
        b = t1 if t1 < horizon else horizon
        return b - a if b > a else 0

    def start_service(i, piece, t):
        servers_busy[i] += 1
        dur = service_time(i)
        busy_time[i] += clipped_span(t, t + dur)
        push(t + dur, i, piece, _END)

    def gate_open():
        if n == 1:
            return True
        limit = s[1] if cap is None else min(s[1], cap)
        return len(queue[1]) + inbound[1] < limit

    def room_in(j):
        return cap is None or len(queue[j]) + inbound[j] < cap

    def on_queue_pop(j, t):
        # a slot opened in queue[j]: wake a blocked upstream server, or the loader
        if blocked[j - 1]:
            piece = blocked[j - 1].popleft()
            inbound[j] += 1
            push(t + delay, j, piece, _ARRIVE)
            servers_busy[j - 1] -= 1
            push(t, j - 1, 0, _START)
        if j == 1:
            push(t, 0, 0, _START)

    def dispatch(i, t):
        nonlocal released
        if i == 0:
            while servers_busy[0] < s[0] and gate_open():
                released += 1
                start_service(0, released, t)
        else:
            while servers_busy[i] < s[i] and queue[i]:
                start_service(i, queue[i].popleft(), t)
                on_queue_pop(i, t)

    def finish_service(i, piece, t):
        nonlocal completed_total, completed
        if i == n - 1:
            completed_total += 1
            if t > warmup:
                completed += 1
            servers_busy[i] -= 1
            push(t, i, 0, _START)
        elif room_in(i + 1):
            inbound[i + 1] += 1
            push(t + delay, i + 1, piece, _ARRIVE)
            servers_busy[i] -= 1
            push(t, i, 0, _START)
        else:
            blocked[i].append(piece)  # hold the server until a slot opens

    def in_flight_now():
        return sum(len(q) for q in queue) + sum(servers_busy) + sum(inbound)

    samples: list[WipSample] = []

    def take_sample(t):
        in_flight = in_flight_now()
        if released != completed_total + in_flight:
            raise InvariantError(
                f"piece conservation broken at t={t}: released={released}, "
                f"completed={completed_total}, in_flight={in_flight}"
            )
        samples.append(
            WipSample(
                time=t,
                queue_lengths={plan.tasks[i].id: len(queue[i]) for i in range(1, n)},
                released=released,
                completed=completed_total,
                in_flight=in_flight,
            )
        )
        nxt = t + config.sample_interval_s
        if nxt <= horizon:
            push(nxt, n, 0, _SAMPLE)

    push(Fraction(0), 0, 0, _START)
    push(Fraction(0), n, 0, _SAMPLE)

    while heap and heap[0][0] <= horizon:
        t, stage, piece, kind, _ = heapq.heappop(heap)
        if kind == _ARRIVE:
            inbound[stage] -= 1
            queue[stage].append(piece)
            push(t, stage, 0, _START)
        elif kind == _END:
            finish_service(stage, piece, t)
        elif kind == _START:
            dispatch(stage, t)
        else:
            take_sample(t)

    in_flight = in_flight_now()
    if released != completed_total + in_flight:
        raise InvariantError(
            f"piece conservation broken at horizon: released={released}, "
            f"completed={completed_total}, in_flight={in_flight}"
        )

    utilization = {
        plan.tasks[i].id: busy_time[i] / (s[i] * window) for i in range(n)
    }
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


def queue_trend(result: SimResult, task_id: int, after=None) -> tuple[float, float]:
    """Least-squares linear trend of one queue's post-warmup length series.

    Returns (slope in pieces per second, R^2). A constant series has R^2 0.
    `after` overrides the cutoff time (default: the run's warmup).
    """
    cutoff = result.config.warmup_s if after is None else as_fraction(after)
    if not result.wip_timeseries or task_id not in result.wip_timeseries[0].queue_lengths:
        raise DomainError(f"no inter-stage queue feeds task {task_id}")
    points = [
        (sample.time, sample.queue_lengths[task_id])
        for sample in result.wip_timeseries
        if sample.time >= cutoff
    ]
    n = len(points)
    if n < 2:
        raise DomainError("need at least two samples after the cutoff to fit a trend")
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


def verify_against_static(
    sim_result: SimResult,
    plan: ProcessPlan,
    allocation: Allocation,
    tolerance=Fraction(2, 100),
) -> VerifyResult:
    """Check a deterministic run against the static arithmetic.

    Throughput must land within tolerance of period/line CT (per hour), and
    no stage may beat the bottleneck's utilization.
    """
    tolerance = as_fraction(tolerance)
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
    util_ok = not others or neck_util >= max(others)
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
