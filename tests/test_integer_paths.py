"""The integer-pair paths against the Fraction and Decimal code they replaced.

Plot cells, the number formatters, productivity and comparison figures and
plain number text are computed from integer pairs, or read by int(). Each
must give what tests/oracles.py gives: the same bytes, the same Fractions,
and for rejected input the same exception type and message.
"""
import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import hangerline as hl
from hangerline import DomainError, ParseError
from hangerline.io import _frac_in

from . import oracles
from .test_robust import _kernel_cases


def _outcome(call):
    """A call's value with its type, or its exception's type and message."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc), str(exc)
    return type(value), value


# ------------------------------------------------------------------- plots

@settings(max_examples=150, deadline=None)
@given(case=_kernel_cases(), data=st.data())
def test_plot_bytes_match_the_csv_writer(case, data):
    plan, alloc, deviations, grid = case
    try:
        sweep = hl.alpha_sweep(plan, alloc, deviations, grid)
    except DomainError:
        assume(False)
    assert hl.emit_plot_data(sweep) == oracles.emit_plot_data(sweep)
    # a hand-built report may hold float bounds, which format as format_number does
    alpha, report = sweep[data.draw(st.integers(0, len(sweep) - 1))]
    floated = data.draw(st.sets(st.sampled_from(plan.task_ids)))
    ivs = {
        tid: dataclasses.replace(iv, lo=float(iv.lo), hi=float(iv.hi) + 0.1) if tid in floated else iv
        for tid, iv in report.intervals.items()
    }
    hand_built = [(alpha, dataclasses.replace(report, intervals=ivs, line_ct_best=float(report.line_ct_best)))]
    assert hl.emit_plot_data(hand_built) == oracles.emit_plot_data(hand_built)


# -------------------------------------------------------------- formatters

_FRACTIONS = st.one_of(
    st.fractions(),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b), st.integers(-10**30, 10**30), st.integers(0, 80),
              st.integers(0, 80)),
    st.builds(Fraction, st.integers(-10**400, 10**400), st.sampled_from([1, 3, 7, 10**100, 3 * 10**100])),
)


@settings(max_examples=400, deadline=None)
@given(x=_FRACTIONS)
def test_formatters_match_the_fraction_formatters(x):
    for name in ("format_number", "format_seconds", "format_upph", "format_percent"):
        assert getattr(hl, name)(x) == getattr(oracles, name)(x), name


@pytest.mark.parametrize("x", [0, -1, 7, 36.7, "36.70", 1e100, Fraction(-1, 3), Fraction(-1, 20000)])
def test_formatters_match_on_other_number_types(x):
    for name in ("format_number", "format_seconds", "format_upph", "format_percent"):
        assert getattr(hl, name)(x) == getattr(oracles, name)(x), name


# ------------------------------------------------------------ productivity

@st.composite
def _lines(draw):
    """A 1-6 task line with mixed-denominator times, a period, and a drawn
    allocation; the seat budget is that allocation's total."""
    n = draw(st.integers(1, 6))
    times = draw(st.lists(
        st.one_of(
            st.fractions(Fraction(1, 10), 200, max_denominator=1000),
            st.builds(lambda k: Fraction(k, 10**100), st.integers(10**100, 120 * 10**100)),
        ),
        min_size=n, max_size=n,
    ))
    counts = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    tasks = [hl.Task(id=3 * i + 1, description=f"op {i}", cycle_time=t) for i, t in enumerate(times)]
    period = draw(st.sampled_from([3600, 1800, 28800, Fraction(7, 3)]))
    plan = hl.ProcessPlan(tasks=tasks, seat_budget=sum(counts), period=period)
    return plan, hl.Allocation({t.id: c for t, c in zip(tasks, counts)})


@settings(max_examples=300, deadline=None)
@given(line=_lines())
def test_productivity_and_compare_match_fraction_division(line):
    plan, alloc = line
    report = hl.productivity_report(plan, alloc)
    assert report == oracles.productivity_report(plan, alloc)
    assert all(type(v) is Fraction for v in (*report.utilization.values(), *report.idle_fraction.values()))
    ones = hl.Allocation.ones(plan)
    assert hl.compare(plan, ones, alloc) == oracles.compare(plan, ones, alloc)
    assert hl.compare(plan, alloc, ones) == oracles.compare(plan, alloc, ones)


# ------------------------------------------------------------- number text

_PIECES = st.sampled_from([
    "0", "1", "7", "12", "300", "09", "٣", "²", "１", "-", "+", " ", "\t", " ", "\n",
    "_", ".", "e", "E", "e-", "/", "/0", "nan", "inf", "x", "1" * 60, "9" * 100, "1" * 4400,
])


@settings(max_examples=600, deadline=None)
@given(parts=st.lists(_PIECES, max_size=6))
def test_number_text_reads_as_through_decimal_and_the_regex(parts):
    text = "".join(parts)
    assert _outcome(lambda: hl.as_fraction(text)) == _outcome(lambda: oracles.as_fraction(text))
    assert _outcome(lambda: _frac_in(text)) == _outcome(lambda: oracles.frac_in(text))


@pytest.mark.parametrize("text", [
    "36.7", " 36.70 ", "0.000", "1" * 100, "1" * 101, "1" * 50 + "." + "1" * 50, "1" * 50 + "." + "1" * 51,
    "1.", ".5", "+1.5", "-1.5", "1_0.5", "٣.5", "1e2", "1/2", "-1/2", "-0/0", "7/0", "1" * 4400 + "/0",
    "-" + "1" * 4400, "0/" + "1" * 4400, "1 /2", " 1/2", "1/-2",
])
def test_number_text_examples(text):
    assert _outcome(lambda: hl.as_fraction(text)) == _outcome(lambda: oracles.as_fraction(text))
    assert _outcome(lambda: _frac_in(text)) == _outcome(lambda: oracles.frac_in(text))


# A balance's iterations decode through the generic tuple[int, Fraction]
# decoder; a malformed one fails with that decoder's message.
_SHIRT = hl.ProcessPlan(tasks=hl.load_tasks(hl.fixture_path("shirt_main_assembly.csv")), seat_budget=32)


@pytest.mark.parametrize("raw, message", [
    ([25], "zip() argument 2 is shorter than argument 1"),
    ([], "zip() argument 2 is shorter than argument 1"),
    ([25, "40", 1], "zip() argument 2 is longer than argument 1"),
    ("25", "expected int, got '2'"),
    (25, "'int' object is not iterable"),
    ({"25": "40"}, "expected int, got '25'"),
    (["25", "40"], "expected int, got '25'"),
    ([True, "40"], "expected int, got True"),
    ([25, "x"], "Invalid literal for Fraction: 'x'"),
    ([25, "1/0"], "Fraction(1, 0)"),
    ([25, None], "expected a finite number or a 'num/den' string, got None"),
], ids=repr)
def test_an_iteration_decodes_with_the_generic_messages(raw, message):
    data = json.loads(hl.emit_report(hl.greedy_balance(_SHIRT), "json"))
    data["iterations"][0] = raw
    with pytest.raises(ParseError, match=f"^{re.escape(f'malformed balance report: {message}')}$"):
        hl.parse_report(json.dumps(data))
