"""Reference implementations the library is checked against (not collected).

exhaustive_balance is the brute-force balancing oracle: it enumerates every
allocation within the seat budget and computes each t_i / s_i itself, so it
shares no code with the heap loop of greedy_balance and optimal_balance.

The rest are the Fraction and Decimal versions of code the library now runs
on integer pairs: the number formatters, the csv.writer plot writer, the
Decimal string path of as_fraction, the regex-based JSON number reader and
the Fraction-division productivity report. The library must match them value
for value, byte for byte, and error for error.
"""
import csv
import io
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational
from typing import Iterator, NamedTuple

import hangerline as hl
from hangerline import DomainError


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
