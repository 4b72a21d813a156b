"""Task-table ingestion, bundled fixtures, and the report codec: tables and
JSON round trips.

Numbers cross this boundary as exact values: CSV cells parse into Fractions
(plain decimal text by int(), other text through Decimal), and JSON reports
store Fractions as "numerator/denominator" strings. Display strings round
cycle times to one decimal (half up) and cut UPPH figures to two decimals
without rounding, as the printed shop figures beside these reports are.

The codec knows no report kind: the module that builds one registers it in
_REPORTS on import, and report_from_dict imports those modules itself.
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
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, ParseError
from .model import Allocation, Task, as_fraction

_TASK_COLUMNS = ("task_id", "description", "cycle_time_sec", "dev_plus_sec", "dev_minus_sec")
_TASK_REQUIRED = ("task_id", "description", "cycle_time_sec")
_DEV_COLUMNS = ("task_id", "dev_plus_sec", "dev_minus_sec")


# ---------------------------------------------------------------- formatting

def _fixed(n: int, d: int, places: int, cut: bool = False) -> str:
    """n/d (d > 0) with `places` decimals, in exact integer arithmetic: rounded
    half away from zero, or cut toward zero. The sign stays even when every
    digit is 0 ("-0.00"), as a Decimal quantize would print it."""
    m = abs(n) * 10**places
    digits = str(m // d if cut else (2 * m + d) // (2 * d)).rjust(places + 1, "0")
    sign = "-" if n < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else sign + digits


def _number(n: int, d: int) -> str:
    """format_number of n/d in lowest terms (d > 0)."""
    # 10^p is a multiple of d = 2^a * 5^b from p = max(a, b) on, which is below
    # the bit length of d; for any other d no power of 10 is
    if pow(10, d.bit_length(), d):
        return _fixed(n, d, 4)
    places, scale = 0, 1
    while scale % d:
        places, scale = places + 1, scale * 10
    return _fixed(n, d, places)


def format_seconds(x) -> str:
    """Cycle time for display: one decimal, half up, bare integers kept bare."""
    s = _fixed(*as_fraction(x).as_integer_ratio(), 1)
    return s[:-2] if s.endswith(".0") else s


def format_upph(x) -> str:
    """UPPH for display: two decimals, truncated (printed-figure convention)."""
    return _fixed(*as_fraction(x).as_integer_ratio(), 2, cut=True)


def format_percent(x) -> str:
    """A fraction as a percentage with two decimals, half up."""
    n, d = as_fraction(x).as_integer_ratio()
    return f"{_fixed(100 * n, d, 2)}%"


def format_number(x) -> str:
    """Exact decimal when the value terminates, else four decimals."""
    return _number(*as_fraction(x).as_integer_ratio())


# ------------------------------------------------------------------- parsing

def _read_rows(text: str, required, allowed, what: str) -> list[tuple[int, int, dict]]:
    """Check the header of CSV text, then return (file line, task id, cells) for
    each non-blank data row. Cells are stripped, ids checked to be unique, and
    *_sec cells parsed to Fractions; an empty optional one is 0."""
    reader = csv.reader(_stringio.StringIO(text))
    try:
        names = next(reader, None)
        if names is None:
            raise ParseError(f"empty file: expected a {what} table header row", row=1)
        names = [n.strip() for n in names]
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
        for record in filter(None, reader):
            row = reader.line_num
            if len(record) != len(names):
                raise ParseError("row has a different number of cells than the header", row=row)
            cells = dict(zip(names, (v.strip() for v in record)))
            raw_id = cells["task_id"]
            # isdigit alone also accepts digits such as "²" that int() rejects
            if not (raw_id.isascii() and raw_id.isdigit()):
                raise ParseError(f"task_id must be a positive integer, got {raw_id!r}", row=row)
            try:
                task_id = int(raw_id)
            except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
                raise ParseError(f"task_id has {len(raw_id)} digits, too many to read", row=row) from None
            if task_id in seen:
                raise ParseError(f"duplicate task id {task_id}", row=row)
            seen.add(task_id)
            for column, raw in cells.items():
                if not column.endswith("_sec"):
                    continue
                try:
                    cells[column] = as_fraction(raw if raw or column in required else 0)
                except DomainError as exc:
                    raise ParseError(f"column {column!r}: {exc}", row=row) from None
            rows.append((row, task_id, cells))
    except csv.Error as exc:
        raise ParseError(f"not valid CSV: {exc}", row=reader.line_num) from None

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
    """Path of a bundled example dataset: a plain file name in the data/ directory."""
    path = Path(__file__).with_name("data") / name
    if Path(name).name != name or not path.is_file():
        raise DomainError(f"no bundled fixture named {name!r}")
    return path


# ------------------------------------------------------- JSON serialization
#
# One writer serves every report: _codec(hint) gives write(x, ind), which
# returns x's JSON text nested at ind ("\n" plus the enclosing spaces), byte for
# byte as json.dumps(indent=2) writes the plain data, which is never built. A
# dataclass is an object: "kind" first for a report kind (see _REPORTS), one
# key per field in field order, then the kind's derived keys.
# Fractions become "num/den" strings; floats (in hand-built reports, or the
# utilizations of uniform simulation documents written before uniform runs
# were exact) stay numbers. Dicts keyed by task id get string keys, an
# int-valued one in a single comprehension; an Allocation is its station map.
# A kind may bring its own codec for a simulation's WIP samples, the bulk of
# its document (see _Kind). report_from_dict reads it back.

# field name -> JSON key, where the two differ
_KEYS = {"line_ct_regular": "regular", "line_ct_best": "best", "line_ct_worst": "worst"}
_str = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def _layout(brackets: str, items: list[str], ind: str) -> str:
    """A container as json.dumps(indent=2) writes it, around items nested below ind."""
    if not items:
        return brackets
    inner = ind + "  "
    return brackets[0] + inner + ("," + inner).join(items) + ind + brackets[1]


def _frac_out(x, ind):
    return json.dumps(x) if isinstance(x, float) else f'"{x}"'


def _frac_in(raw):
    if isinstance(raw, str):
        # "num/den" and integer strings as written, by int() when plain ASCII; a decimal
        # string takes the exponent bound of as_fraction, as Fraction would expand any exponent
        num, slash, den = raw.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash) and raw.isascii():
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return as_fraction(raw) if "." in raw or "e" in raw or "E" in raw else Fraction(raw)
    if type(raw) is int or (type(raw) is float and math.isfinite(raw)):
        return raw
    raise TypeError(f"expected a finite number or a 'num/den' string, got {raw!r}")


class _Kind(typing.NamedTuple):
    kind: str  # the JSON tag
    table: typing.Callable
    rebuild: typing.Callable  # the report a decoded document must equal
    derived: typing.Callable = lambda r: {}  # keys written after the fields, checked where stated
    # (write, decode) of a simulation's wip_timeseries: write(samples, ind) as the
    # generic writer writes them, decode(raw, plan, config) against its plan and config
    samples: tuple | None = None


_REPORTS: dict[type, _Kind] = {}  # report class -> its kind, filled in by the module that builds it


def _dataclass_codec(cls):
    entry = _REPORTS.get(cls)
    head = [f'"kind": {_str(entry.kind)}'] if entry else []
    hints = typing.get_type_hints(cls)
    fields = [
        (f.name, _KEYS.get(f.name, f.name), *_codec(hints[f.name]))
        for f in dataclasses.fields(cls)
    ]
    samples = entry and entry.samples  # a simulation's samples decode last, against its plan and config
    written = [
        (name, _str(key) + ": ", samples[0] if samples and name == "wip_timeseries" else w)
        for name, key, w, _ in fields
    ]
    decoded = [f for f in fields if not samples or f[0] != "wip_timeseries"]

    def write(obj, ind):
        inner = ind + "  "
        items = head + [key + w(getattr(obj, name), inner) for name, key, w in written]
        if entry:
            items += [f"{_str(k)}: {json.dumps(v)}" for k, v in entry.derived(obj).items()]
        return _layout("{}", items, ind)

    def decode(raw):
        got = {name: dec(raw[key]) for name, key, _, dec in decoded}
        if samples:
            got["wip_timeseries"] = samples[1](raw["wip_timeseries"], got["plan"], got["config"])
        return cls(**got)

    return write, decode


@functools.cache
def _codec(hint):
    """(write, decode) for values of type `hint`. decode raises KeyError,
    TypeError, ValueError, AttributeError or ZeroDivisionError on bad data."""
    if hint is Fraction:
        return _frac_out, _frac_in
    if hint is Allocation:
        w, dec = _codec(dict[int, int])
        return (lambda a, ind: w(a.stations, ind)), (lambda raw: Allocation(dec(raw)))
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        w, dec = _codec(inner)
        return (
            lambda x, ind: "null" if x is None else w(x, ind),
            lambda raw: None if raw is None else dec(raw),
        )
    if origin is dict:
        w, dec = _codec(args[1])

        def write(d, ind):
            if args[1] is int:  # station maps: each value as the int writer writes it
                return _layout("{}", [f'"{k}": {int.__repr__(v)}' for k, v in d.items()], ind)
            return _layout("{}", [f'"{k}": {w(v, ind + "  ")}' for k, v in d.items()], ind)

        return write, lambda raw: {int(k): dec(v) for k, v in raw.items()}
    if origin is tuple and args[-1] is Ellipsis:
        w, dec = _codec(args[0])
        return (
            lambda xs, ind: _layout("[]", [w(x, ind + "  ") for x in xs], ind),
            lambda raw: tuple(dec(x) for x in raw),
        )
    if origin is tuple:
        codecs = [_codec(a) for a in args]
        return (
            lambda xs, ind: _layout("[]", [w(x, ind + "  ") for (w, _), x in zip(codecs, xs)], ind),
            lambda raw: tuple([dec(x) for (_, dec), x in zip(codecs, raw, strict=True)]),
        )

    def check(raw):
        if origin is typing.Literal and raw not in args:
            raise ValueError(f"expected one of {list(args)}, got {raw!r}")
        if hint in (int, str) and type(raw) is not hint:
            raise TypeError(f"expected {hint.__name__}, got {raw!r}")
        return raw

    return (lambda x, ind: int.__repr__(x) if hint is int else _str(x)), check  # as json.dumps


def report_from_dict(data: dict):
    """The report object of a JSON document read into plain data. Each kind is
    rebuilt from its inputs or identities (a balance by rerunning its solver)
    and must equal the decoded document; a derived key it states must equal
    the rebuilt value as a number."""
    from . import balancer, metrics, robust, simulator  # each registers its kinds

    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ParseError("report document has no 'kind' tag") from None
    cls, entry = next(((c, e) for c, e in _REPORTS.items() if e.kind == kind), (None, None))
    if cls is None:
        raise ParseError(f"unknown report kind {kind!r}")
    try:
        report = _codec(cls)[1](data)
        rebuilt = entry.rebuild(report)
        names = [f.name for f in dataclasses.fields(cls)]
        wrong = [_KEYS.get(n, n) for n in names if getattr(rebuilt, n) != getattr(report, n)]
        wrong += [k for k, v in entry.derived(rebuilt).items() if _frac_in(data.get(k, v)) != _frac_in(v)]
    except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed {kind} report: {exc}") from None
    if wrong:
        raise ParseError(f"malformed {kind} report: fields {wrong} disagree with its inputs")
    return rebuilt


def parse_report(text: str):
    """Parse an emit_report(..., format='json') document back into its object."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int past the digit limit
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


def emit_report(result, format: str = "table") -> str:
    """Render a result for humans (table) or machines (json, round-trippable)."""
    if format not in ("table", "json"):
        raise DomainError(f"format must be 'table' or 'json', got {format!r}")
    entry = _REPORTS.get(type(result))
    if entry is None:
        raise DomainError(f"cannot {'serialize' if format == 'json' else 'render'} {type(result).__name__}")
    if format == "json":
        return _codec(type(result))[0](result, "\n") + "\n"
    return entry.table(result)


def emit_plot_data(sweep) -> str:
    """Flatten an alpha sweep into CSV: per-task rows then a LINE row per alpha.

    Columns: task_id, alpha, regular_ct, best_ct, worst_ct. The three value
    columns carry the overlay series (regular constant, best below, worst
    above).
    """
    sweep = tuple(sweep)
    if not sweep:
        raise DomainError("sweep is empty")
    text: dict = {}  # (numerator, denominator) of a Fraction -> cell: each value is formatted once

    def cell(x) -> str:
        if type(x) is not Fraction:  # a float bound, in a hand-built report
            return format_number(x)
        key = x.as_integer_ratio()
        return text.get(key) or text.setdefault(key, _number(*key))

    # every cell is a task id, LINE or a formatted number, so none needs CSV quoting
    rows = ["task_id,alpha,regular_ct,best_ct,worst_ct"]
    for alpha, r in sweep:
        alpha = format_number(alpha)
        for t in r.plan.tasks:
            iv = r.intervals[t.id]
            rows.append(f"{t.id},{alpha},{cell(iv.nominal)},{cell(iv.lo)},{cell(iv.hi)}")
        rows.append(f"LINE,{alpha},{cell(r.line_ct_regular)},{cell(r.line_ct_best)},{cell(r.line_ct_worst)}")
    return "\n".join(rows) + "\n"
