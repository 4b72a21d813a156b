"""Reference implementations the library is checked against (not collected).

exhaustive_balance is the brute-force balancing oracle: it enumerates every
allocation within the seat budget and computes each t_i / s_i itself, so it
shares no code with the heap loop of greedy_balance and optimal_balance.

The rest are the Fraction and Decimal versions of code the library now runs
on integer pairs: the number formatters, the csv.writer plot writer, the
Decimal string path of as_fraction, the regex-based JSON number reader and
the Fraction-division productivity report. The simulation oracles are the
event loop that pushes every event through its heap and counts each sample
queue by queue, the generic writer of WIP samples and their decoder. The
library must match them value for value, byte for byte, and error for error.
"""
import csv
import heapq
import io
import json
import math
import random
from collections import deque
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational
from typing import Iterator, NamedTuple

import hangerline as hl
from hangerline import DomainError
from hangerline.model import _require_staffable
from hangerline.simulator import _ARRIVE, _END, _SAMPLE, _START


class Best(NamedTuple):
    allocation: hl.Allocation
    line_cycle_time: Fraction


def _vectors(extra: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ways to hand out up to `extra` additional seats across `slots` tasks."""
    if slots == 0:
        yield ()
        return
    for first in range(extra + 1):
        for rest in _vectors(extra - first, slots - 1):
            yield (first, *rest)


def exhaustive_balance(plan: hl.ProcessPlan) -> Best:
    """Try every allocation with total stations within the budget and return
    the best one.

    Ties on line cycle time break toward fewer total stations, then toward
    the lexicographically smallest station vector in plan order. The work
    grows as C(budget, tasks): keep instances small.
    """
    n = len(plan.tasks)
    best_key = None
    best_vector = None
    for extras in _vectors(plan.seat_budget - n, n):
        vector = tuple(1 + e for e in extras)
        ct = max(t.cycle_time / s for t, s in zip(plan.tasks, vector))
        key = (ct, sum(vector), vector)
        if best_key is None or key < best_key:
            best_key, best_vector = key, vector

    stations = {t.id: s for t, s in zip(plan.tasks, best_vector)}
    return Best(hl.Allocation(stations), best_key[0])


# ------------------------------------------------------------- number text

def as_fraction(value) -> Fraction:
    """hl.as_fraction with every string read through Decimal."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise DomainError(f"expected a number, got {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    try:
        if isinstance(value, float):
            number = Decimal(repr(value))
        elif isinstance(value, str):
            number = Decimal(value.strip())
        elif isinstance(value, Decimal):
            number = value
        else:
            raise DomainError(f"cannot interpret {value!r} as a number")
        if not number.is_finite():
            raise DomainError(f"not a finite number: {value!r}")
    except InvalidOperation:
        raise DomainError(f"not a decimal number: {value!r}") from None
    exponent = number.as_tuple().exponent
    if max(abs(exponent), abs(number.adjusted())) > hl.MAX_DECIMAL_EXPONENT:
        raise DomainError(f"exponent of {value!r} is outside +/-{hl.MAX_DECIMAL_EXPONENT}")
    return Fraction(number)


def frac_in(raw):
    """The JSON number reader, with every "num/den" string read by Fraction's regex."""
    if isinstance(raw, str):
        return as_fraction(raw) if "." in raw or "e" in raw or "E" in raw else Fraction(raw)
    if type(raw) is int or (type(raw) is float and math.isfinite(raw)):
        return raw
    raise TypeError(f"expected a finite number or a 'num/den' string, got {raw!r}")


# --------------------------------------------------------------- formatting

def _fixed(x: Fraction, places: int, cut: bool = False) -> str:
    n, d = abs(x.numerator) * 10**places, x.denominator
    digits = str(n // d if cut else (2 * n + d) // (2 * d)).rjust(places + 1, "0")
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else sign + digits


def format_seconds(x) -> str:
    s = _fixed(as_fraction(x), 1)
    return s[:-2] if s.endswith(".0") else s


def format_upph(x) -> str:
    return _fixed(as_fraction(x), 2, cut=True)


def format_percent(x) -> str:
    return f"{_fixed(as_fraction(x) * 100, 2)}%"


def format_number(x) -> str:
    x = as_fraction(x)
    d = x.denominator
    if pow(10, d.bit_length(), d):
        return _fixed(x, 4)
    places, scale = 0, 1
    while scale % d:
        places, scale = places + 1, scale * 10
    return _fixed(x, places)


def emit_plot_data(sweep) -> str:
    """The sweep's CSV through csv.writer, each cell through format_number."""
    sweep = tuple(sweep)
    if not sweep:
        raise DomainError("sweep is empty")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("task_id", "alpha", "regular_ct", "best_ct", "worst_ct"))
    for alpha, report in sweep:
        ivs = report.intervals
        for t in report.plan.tasks:
            iv = ivs[t.id]
            writer.writerow((t.id, format_number(alpha), *map(format_number, (iv.nominal, iv.lo, iv.hi))))
        line = (report.line_ct_regular, report.line_ct_best, report.line_ct_worst)
        writer.writerow(("LINE", format_number(alpha), *map(format_number, line)))
    return out.getvalue()


# ------------------------------------------------------------- productivity

def productivity_report(plan: hl.ProcessPlan, allocation: hl.Allocation) -> hl.ProductivityReport:
    """Each t_i / s_i, the line CT and every share by Fraction division."""
    times = {t.id: t.cycle_time / allocation.stations[t.id] for t in plan.tasks}
    ct = max(times.values())
    output = plan.period / ct
    workers = allocation.total
    utilization = {task_id: time / ct for task_id, time in times.items()}
    return hl.ProductivityReport(
        line_cycle_time=ct,
        output_per_hour=output,
        workers=workers,
        upph=output / workers,
        utilization=utilization,
        idle_fraction={task_id: 1 - u for task_id, u in utilization.items()},
    )


def compare(plan: hl.ProcessPlan, baseline: hl.Allocation, new: hl.Allocation) -> hl.Comparison:
    """Both sides from productivity_report above, and both improvement views."""
    before, after = productivity_report(plan, baseline), productivity_report(plan, new)

    def cut(x):
        return Fraction(x.numerator * 100 // x.denominator, 100)

    exact = (after.upph - before.upph) / before.upph
    base = cut(before.upph)
    displayed = exact if base == 0 else (cut(after.upph) - base) / base
    return hl.Comparison(before, after, exact, displayed, after.output_per_hour / before.output_per_hour)


# --------------------------------------------------------------- simulation

def simulate(plan: hl.ProcessPlan, allocation: hl.Allocation, config: hl.SimConfig) -> hl.SimResult:
    """hl.simulate with every event through the heap and each sample counted
    queue by queue: the ARRIVE an END schedules is pushed, and the loop pops
    the least event each pass."""
    _require_staffable(plan, allocation)
    n = len(plan.tasks)
    s = [allocation.count(t.id) for t in plan.tasks]
    uniform = config.service_model == "uniform"
    exact = [config.horizon_s, config.warmup_s, config.transfer_delay_s, config.sample_interval_s]
    if uniform:
        # random() is k / 2^53, which Fraction reads exactly: each service time
        # is a rational whose denominator divides the band's times 2^53
        intervals = hl.effective_intervals(plan, allocation, config.alpha).values()
        bands = [(k * iv.lo, k * (iv.hi - iv.lo)) for k, iv in zip(s, intervals)]
        draw = random.Random(config.seed).random
        exact += [x for band in bands for x in band]
    else:
        exact += [t.cycle_time for t in plan.tasks]
    scale = math.lcm(*(x.denominator for x in exact)) * (2**53 if uniform else 1)
    horizon, warmup, delay, interval, *raw_time = (x.numerator * (scale // x.denominator) for x in exact)
    cap = config.queue_capacity
    front_limit = (s[1] if cap is None else min(s[1], cap)) + s[0] - 1 if n > 1 else None
    later_ids = plan.task_ids[1:]

    queue = [deque() for _ in range(n)]
    blocked = [deque() for _ in range(n)]
    inbound, servers_busy, busy_time = [0] * n, [0] * n, [0] * n
    released = completed_total = completed = 0

    def in_flight_at(time):
        in_flight = sum(map(len, queue)) + sum(servers_busy) + sum(inbound)
        if released != completed_total + in_flight:
            raise hl.InvariantError(
                f"piece conservation broken at t={time}: released={released}, "
                f"completed={completed_total}, in_flight={in_flight}"
            )
        return in_flight

    samples = []
    heap = []
    heapq.heappush(heap, (0, 0, 0, _START))
    heapq.heappush(heap, (0, n, 0, _SAMPLE))
    while heap:
        t, i, piece, kind = heapq.heappop(heap)
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
                heapq.heappush(heap, (t + delay, i + 1, piece, _ARRIVE))
            else:
                blocked[i].append(piece)
                continue
            servers_busy[i] -= 1
        elif kind == _SAMPLE:
            time = Fraction(t, scale)
            in_flight = in_flight_at(time)
            lengths = dict(zip(later_ids, map(len, queue[1:])))
            samples.append(hl.WipSample(time, lengths, released, completed_total, in_flight))
            if t + interval <= horizon:
                heapq.heappush(heap, (t + interval, n, 0, _SAMPLE))
            continue
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
            if uniform:
                lo_s, width_s = bands[i]
                ticks = (lo_s + width_s * Fraction(draw())) * scale
                assert ticks.denominator == 1
                end = t + ticks.numerator
            else:
                end = t + raw_time[i]
            lo = t if t > warmup else warmup
            hi = end if end < horizon else horizon
            busy_time[i] += hi - lo if hi > lo else 0
            heapq.heappush(heap, (end, i, piece, _END))
            if i and blocked[i - 1]:
                inbound[i] += 1
                heapq.heappush(heap, (t + delay, i, blocked[i - 1].popleft(), _ARRIVE))
                servers_busy[i - 1] -= 1
                heapq.heappush(heap, (t, i - 1, 0, _START))
            if i == 1:
                heapq.heappush(heap, (t, 0, 0, _START))

    in_flight = in_flight_at(config.horizon_s)
    utilization = {t.id: Fraction(busy_time[i], s[i] * (horizon - warmup)) for i, t in enumerate(plan.tasks)}
    return hl.SimResult(
        plan=plan, allocation=allocation, config=config, completed=completed,
        completed_total=completed_total, released=released,
        throughput=Fraction(completed) * hl.SECONDS_PER_HOUR / (config.horizon_s - config.warmup_s),
        utilization=utilization, conservation=(released, completed_total, in_flight),
        wip_timeseries=tuple(samples),
    )


def _layout(brackets: str, items: list[str], ind: str) -> str:
    if not items:
        return brackets
    inner = ind + "  "
    return brackets[0] + inner + ("," + inner).join(items) + ind + brackets[1]


def write_samples(samples, ind: str) -> str:
    """The generic writer's text for a tuple of WipSamples nested at ind: each
    sample an object of its fields in order, a float time as a JSON number and
    any other as the string of its value, queue lengths keyed by '"{k}"', and
    every count and length through int.__repr__."""

    def sample(x, ind):
        inner = ind + "  "
        time = json.dumps(x.time) if isinstance(x.time, float) else f'"{x.time}"'
        lengths = [f'"{k}": {int.__repr__(v)}' for k, v in x.queue_lengths.items()]
        return _layout("{}", [
            f'"time": {time}',
            f'"queue_lengths": {_layout("{}", lengths, inner)}',
            f'"released": {int.__repr__(x.released)}',
            f'"completed": {int.__repr__(x.completed)}',
            f'"in_flight": {int.__repr__(x.in_flight)}',
        ], ind)

    return _layout("[]", [sample(x, ind + "  ") for x in samples], ind)


def decode_samples(raw, plan: hl.ProcessPlan, config: hl.SimConfig) -> tuple:
    """A document's WIP samples read back with every time a Fraction(k * num, den)."""
    ids, step = plan.task_ids[1:], config.sample_interval_s
    keys = [str(i) for i in ids]
    if len(raw) != config.horizon_s // step + 1:
        raise ValueError(f"wip_timeseries has {len(raw)} samples, not one per sample interval")
    samples, before = [], (0, 0)
    for k, x in enumerate(raw):
        lengths, counts = x["queue_lengths"], (x["released"], x["completed"], x["in_flight"])
        if type(lengths) is not dict or list(lengths) != keys:
            raise ValueError(f"wip_timeseries[{k}]: queue_lengths must be an object keyed by later task ids")
        if {*map(type, lengths.values()), *map(type, counts)} != {int}:
            raise TypeError(f"wip_timeseries[{k}]: queue_lengths and counts must be integers")
        time = Fraction(k * step.numerator, step.denominator)
        if x["time"] != str(time) and frac_in(x["time"]) != time:
            raise ValueError(f"wip_timeseries[{k}]: time {x['time']!r} is off the sample grid, expected {time}")
        if counts[0] != counts[1] + counts[2]:
            raise ValueError(f"wip_timeseries[{k}]: released {counts[0]} is not completed + in_flight")
        if counts[0] < before[0] or counts[1] < before[1]:
            raise ValueError(f"wip_timeseries[{k}]: released and completed must be at least 0 and never fall")
        before = counts
        samples.append(hl.WipSample(time, dict(zip(ids, lengths.values())), *counts))
    return tuple(samples)
