"""Task-table ingestion, bundled fixtures, report rendering and JSON round trips.

Numbers cross this boundary as exact values: CSV cells parse through Decimal
into Fractions, and JSON reports store Fractions as "numerator/denominator"
strings. Display strings round cycle times to one decimal (half up) and cut
UPPH figures to two decimals without rounding, because that is how the
printed shop figures these reports sit next to are produced.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io as _stringio
import json
import math
import types
import typing
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .balancer import BalanceResult
from .errors import DomainError, ParseError
from .metrics import Comparison, ProductivityReport
from .model import Allocation, Task, as_fraction, throughput
from .robust import RobustReport
from .simulator import SimResult

_TASK_COLUMNS = ("task_id", "description", "cycle_time_sec", "dev_plus_sec", "dev_minus_sec")
_TASK_REQUIRED = ("task_id", "description", "cycle_time_sec")
_DEV_COLUMNS = ("task_id", "dev_plus_sec", "dev_minus_sec")


# ---------------------------------------------------------------- formatting

def _decimal(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(x.numerator) / Decimal(x.denominator)


def _to_decimal(x, places: int, rounding: str) -> Decimal:
    return _decimal(as_fraction(x)).quantize(Decimal(1).scaleb(-places), rounding=rounding)


def format_seconds(x) -> str:
    """Cycle time for display: one decimal, half up, bare integers kept bare."""
    s = str(_to_decimal(x, 1, ROUND_HALF_UP))
    return s[:-2] if s.endswith(".0") else s


def format_upph(x) -> str:
    """UPPH for display: two decimals, truncated (printed-figure convention)."""
    return str(_to_decimal(x, 2, ROUND_DOWN))


def format_percent(x) -> str:
    """A fraction as a percentage with two decimals, half up."""
    return f"{_to_decimal(as_fraction(x) * 100, 2, ROUND_HALF_UP)}%"


def format_number(x) -> str:
    """Exact decimal when the value terminates, else four decimals."""
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    d = x.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:
        return str(_decimal(x))
    return str(_to_decimal(x, 4, ROUND_HALF_UP))


# ------------------------------------------------------------------- parsing

def _read_rows(text: str, required, allowed, what: str) -> list[tuple[int, int, dict]]:
    """Check the header of CSV text, then return (row number, task id, cells)
    for each data row. Cells are stripped, ids checked to be unique, and the
    seconds columns (*_sec) parsed to Fractions; an empty optional one is 0."""
    reader = csv.DictReader(_stringio.StringIO(text))
    if reader.fieldnames is None:
        raise ParseError(f"empty file: expected a {what} table header row", row=1)
    names = [n.strip() for n in reader.fieldnames]
    missing = [c for c in required if c not in names]
    if missing:
        raise ParseError(f"header is missing columns {missing}", row=1)
    unknown = [n for n in names if n not in allowed]
    if unknown:
        raise ParseError(f"header has unknown columns {unknown}", row=1)
    if len(set(names)) != len(names):
        raise ParseError("header repeats a column", row=1)

    rows = []
    seen: set[int] = set()
    row = 1
    for record in reader:
        row += 1
        cells = {
            (k.strip() if k else k): (v.strip() if isinstance(v, str) else v)
            for k, v in record.items()
        }
        if None in cells or any(v is None for v in cells.values()):
            raise ParseError("row has a different number of cells than the header", row=row)
        raw_id = cells["task_id"]
        # isdigit alone also accepts digits such as "²" that int() rejects
        if not (raw_id.isascii() and raw_id.isdigit()):
            raise ParseError(f"task_id must be a positive integer, got {raw_id!r}", row=row)
        task_id = int(raw_id)
        if task_id in seen:
            raise ParseError(f"duplicate task id {task_id}", row=row)
        seen.add(task_id)
        for column, raw in cells.items():
            if not column.endswith("_sec"):
                continue
            try:
                cells[column] = as_fraction(raw if raw or column in required else 0)
            except DomainError:
                raise ParseError(
                    f"column {column!r}: not a decimal number: {raw!r}", row=row
                ) from None
        rows.append((row, task_id, cells))

    if not rows:
        raise ParseError(f"file contains a header but no {what} rows", row=1)
    return rows


def _read_file(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def parse_tasks(text: str) -> tuple[Task, ...]:
    """Parse task-table CSV text into Task values, in file order."""
    tasks: list[Task] = []
    for row, task_id, cells in _read_rows(text, _TASK_REQUIRED, _TASK_COLUMNS, "task"):
        try:
            tasks.append(
                Task(
                    id=task_id,
                    description=cells["description"],
                    cycle_time=cells["cycle_time_sec"],
                    dev_plus=cells.get("dev_plus_sec", 0),
                    dev_minus=cells.get("dev_minus_sec", 0),
                )
            )
        except DomainError as exc:
            raise ParseError(str(exc), row=row) from None
    return tuple(tasks)


def load_tasks(path) -> tuple[Task, ...]:
    """Read a task-table CSV file. Errors cite the offending row."""
    return parse_tasks(_read_file(path))


def _csv_text(header, rows) -> str:
    out = _stringio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def emit_tasks(tasks) -> str:
    """Render tasks back to task-table CSV (all five columns, exact values)."""
    return _csv_text(
        _TASK_COLUMNS,
        (
            (t.id, t.description, *map(format_number, (t.cycle_time, t.dev_plus, t.dev_minus)))
            for t in tasks
        ),
    )


def parse_deviations(text: str) -> dict[int, tuple[Fraction, Fraction]]:
    """Parse deviation CSV text into {task id: (d_plus, d_minus)}."""
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for row, task_id, cells in _read_rows(text, _DEV_COLUMNS, _DEV_COLUMNS, "deviation"):
        d_plus, d_minus = cells["dev_plus_sec"], cells["dev_minus_sec"]
        if d_plus < 0 or d_minus < 0:
            raise ParseError("deviations must be >= 0", row=row)
        out[task_id] = (d_plus, d_minus)
    return out


def load_deviations(path) -> dict[int, tuple[Fraction, Fraction]]:
    """Read a deviation CSV file. Errors cite the offending row."""
    return parse_deviations(_read_file(path))


def fixture_path(name: str) -> Path:
    """Path of a bundled example dataset (see the data/ directory)."""
    candidate = resources.files(__package__).joinpath("data").joinpath(name)
    if not candidate.is_file():
        raise DomainError(f"no bundled fixture named {name!r}")
    return Path(str(candidate))


# ------------------------------------------------------- JSON serialization
#
# One codec serves every report: each dataclass is written as an object with
# one key per field, in field order, following the field's type hint. Fractions
# become "num/den" strings; floats (uniform-mode utilizations) stay numbers.
# Dicts keyed by task id get string keys. An Allocation is written as its
# station map alone.

_KINDS = {
    BalanceResult: "balance",
    ProductivityReport: "productivity",
    Comparison: "comparison",
    RobustReport: "robust",
    SimResult: "simulation",
}
_KIND_TYPES = {kind: cls for cls, kind in _KINDS.items()}
# field name -> JSON key, where the two differ
_KEYS = {"line_ct_regular": "regular", "line_ct_best": "best", "line_ct_worst": "worst"}


def _frac_out(x):
    return x if isinstance(x, float) else str(x)


def _frac_in(raw):
    if isinstance(raw, str):
        return Fraction(raw)
    if type(raw) is int or (type(raw) is float and math.isfinite(raw)):
        return raw
    raise TypeError(f"expected a finite number or a 'num/den' string, got {raw!r}")


def _dataclass_codec(cls):
    kind = _KINDS.get(cls)
    hints = typing.get_type_hints(cls)
    fields = [
        (f.name, _KEYS.get(f.name, f.name), *_codec(hints[f.name]))
        for f in dataclasses.fields(cls)
    ]

    def encode(obj):
        out = {} if kind is None else {"kind": kind}
        for name, key, enc, _ in fields:
            out[key] = enc(getattr(obj, name))
        return out

    def decode(raw):
        return cls(**{name: dec(raw[key]) for name, key, _, dec in fields})

    return encode, decode


@functools.cache
def _codec(hint):
    """(encode, decode) for values of type `hint`. decode raises KeyError,
    TypeError, ValueError, AttributeError or ZeroDivisionError on bad data."""
    if hint is Fraction:
        return _frac_out, _frac_in
    if hint is Allocation:
        enc, dec = _codec(dict[int, int])
        return (lambda a: enc(a.stations)), (lambda raw: Allocation(dec(raw)))
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        enc, dec = _codec(inner)
        return (
            lambda x: None if x is None else enc(x),
            lambda raw: None if raw is None else dec(raw),
        )
    if origin is dict:
        enc, dec = _codec(args[1])
        return (
            lambda d: {str(k): enc(v) for k, v in d.items()},
            lambda raw: {int(k): dec(v) for k, v in raw.items()},
        )
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _codec(args[0])
        return (lambda xs: [enc(x) for x in xs]), (lambda raw: tuple(dec(x) for x in raw))
    if origin is tuple:
        codecs = [_codec(a) for a in args]
        return (
            lambda xs: [enc(x) for (enc, _), x in zip(codecs, xs)],
            lambda raw: tuple(dec(x) for (_, dec), x in zip(codecs, raw, strict=True)),
        )

    def check(raw):
        if hint in (int, str) and type(raw) is not hint:
            raise TypeError(f"expected {hint.__name__}, got {raw!r}")
        return raw

    return (lambda x: x), check


def report_to_dict(result) -> dict:
    """Plain-data form of any report object, tagged with its kind."""
    if type(result) not in _KINDS:
        raise DomainError(f"cannot serialize {type(result).__name__}")
    out = _codec(type(result))[0](result)
    if isinstance(result, BalanceResult):  # derived keys, ignored when read back
        out["total_stations"] = result.total_stations
        out["throughput_per_period"] = str(throughput(result.line_cycle_time, result.plan.period))
    return out


def report_from_dict(data: dict):
    """Inverse of report_to_dict."""
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ParseError("report document has no 'kind' tag") from None
    cls = _KIND_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown report kind {kind!r}")
    try:
        return _codec(cls)[1](data)
    except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed {kind} report: {exc}") from None


def parse_report(text: str):
    """Parse an emit_report(..., format='json') document back into its object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    return report_from_dict(data)


# ------------------------------------------------------------------- tables

def _render_columns(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in header]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return "\n".join(lines)


def _balance_table(result: BalanceResult) -> str:
    rows = []
    for t in result.plan.tasks:
        s = result.allocation.count(t.id)
        rows.append(
            (
                str(t.id),
                t.description,
                format_seconds(t.cycle_time),
                str(s),
                format_seconds(t.cycle_time / s),
            )
        )
    table = _render_columns(
        ("task", "description", "cycle_time_sec", "stations", "effective_ct_sec"), rows
    )
    totals = (
        f"total: {result.total_stations} seats; line cycle time "
        f"{format_seconds(result.line_cycle_time)} sec/pc (output pace); "
        f"{format_number(throughput(result.line_cycle_time, result.plan.period))} pc "
        f"per {format_number(result.plan.period)} s; method {result.method}"
    )
    return f"{table}\n{totals}\n"


def _productivity_line(label: str, r: ProductivityReport) -> str:
    return (
        f"{label}: {format_number(r.output_per_hour)} pc/hr with {r.workers} workers; "
        f"line CT {format_seconds(r.line_cycle_time)} sec/pc; "
        f"UPPH {format_upph(r.upph)} ({format_number(r.upph)} exact)\n"
    )


def _comparison_table(c: Comparison) -> str:
    return (
        _productivity_line("before", c.before)
        + _productivity_line("after", c.after)
        + f"UPPH improvement: {format_percent(c.improvement)} at full precision; "
        f"{format_percent(c.improvement_displayed)} from the two-decimal printed figures "
        f"({format_upph(c.before.upph)} -> {format_upph(c.after.upph)})\n"
        f"output ratio: {format_number(c.output_ratio)}x\n"
    )


def _robust_table(r: RobustReport) -> str:
    rows = []
    for t in r.plan.tasks:
        iv = r.intervals[t.id]
        rows.append(
            (
                str(t.id),
                t.description,
                format_seconds(iv.nominal),
                format_seconds(iv.lo),
                format_seconds(iv.hi),
            )
        )
    table = _render_columns(
        ("task", "description", "effective_ct", "ct_minus_dev", "ct_plus_dev"), rows
    )
    alpha = "per-interval" if r.alpha is None else format_number(r.alpha)
    lines = [
        table,
        f"alpha: {alpha}",
        f"line cycle time: regular {format_seconds(r.line_ct_regular)}, "
        f"best {format_seconds(r.line_ct_best)}, worst {format_seconds(r.line_ct_worst)} sec/pc",
        f"throughput bounds: {r.throughput_worst}..{r.throughput_best} pc per period "
        f"(regular {format_number(r.throughput_regular)})",
        f"UPPH: regular {format_upph(r.upph_regular)}; "
        f"min {format_upph(r.upph_min)} ({format_number(r.upph_min)} exact); "
        f"max {format_upph(r.upph_max)} ({format_number(r.upph_max)} exact)",
        f"improvement over one-station baseline: "
        f"{format_percent(r.eff_min)}..{format_percent(r.eff_max)} exact; "
        f"{format_percent(r.eff_min_displayed)}..{format_percent(r.eff_max_displayed)} "
        f"from two-decimal printed figures",
    ]
    return "\n".join(lines) + "\n"


def _sim_table(r: SimResult) -> str:
    peak = {
        tid: max(s.queue_lengths[tid] for s in r.wip_timeseries)
        for tid in (r.wip_timeseries[0].queue_lengths if r.wip_timeseries else {})
    }
    rows = [
        (
            str(t.id),
            str(r.allocation.count(t.id)),
            format_percent(r.utilization[t.id]),
            str(peak.get(t.id, "-")),
        )
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


_TABLES = {
    BalanceResult: _balance_table,
    ProductivityReport: lambda r: _productivity_line("line", r),
    Comparison: _comparison_table,
    RobustReport: _robust_table,
    SimResult: _sim_table,
}


def emit_report(result, format: str = "table") -> str:
    """Render a result for humans (table) or machines (json, round-trippable)."""
    if format == "json":
        return json.dumps(report_to_dict(result), indent=2) + "\n"
    if format != "table":
        raise DomainError(f"format must be 'table' or 'json', got {format!r}")
    render = _TABLES.get(type(result))
    if render is None:
        raise DomainError(f"cannot render {type(result).__name__}")
    return render(result)


def emit_plot_data(sweep) -> str:
    """Flatten an alpha sweep into CSV: per-task rows then a LINE row per alpha.

    Columns: task_id, alpha, regular_ct, best_ct, worst_ct. The three value
    columns carry the overlay series (regular constant, best below, worst
    above).
    """
    sweep = tuple(sweep)
    if not sweep:
        raise DomainError("sweep is empty")
    rows = []
    for alpha, report in sweep:
        ivs = report.intervals
        series = [(t.id, ivs[t.id].nominal, ivs[t.id].lo, ivs[t.id].hi) for t in report.plan.tasks]
        series.append(("LINE", report.line_ct_regular, report.line_ct_best, report.line_ct_worst))
        rows += [(label, *map(format_number, (alpha, *cts))) for label, *cts in series]
    return _csv_text(("task_id", "alpha", "regular_ct", "best_ct", "worst_ct"), rows)
