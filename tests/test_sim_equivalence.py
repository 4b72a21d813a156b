"""The simulator and its sample codec against the oracles in tests/oracles.py.

The event loop holds the ARRIVE an END schedules out of its heap and takes a
sample's queue lengths once; the sample writer fills a template per key
tuple; the decoder reads each sample in one pass. Each must give what the
plain versions give: the same run and JSON bytes, the same writer text for
hand-built samples, and the same decoded samples or the same error.
"""
import dataclasses
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hangerline as hl
from hangerline import SimConfig, simulator

from . import oracles

_write = simulator._write_samples


@st.composite
def lines(draw):
    """1-5 tasks of whole, half or third seconds, each on 1-3 stations, with
    deviations small enough to keep every uniform band positive."""
    n = draw(st.integers(1, 5))
    tasks = tuple(
        hl.Task(id=10 + 7 * k, description=f"op {k}", cycle_time=Fraction(draw(st.integers(10, 90)), den),
                dev_plus=Fraction(draw(st.integers(0, 20)), 2), dev_minus=Fraction(draw(st.integers(0, 4)), 10))
        for k, den in enumerate(draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n)))
    )
    stations = {t.id: draw(st.integers(1, 3)) for t in tasks}
    return hl.ProcessPlan(tasks=tasks, seat_budget=sum(stations.values())), hl.Allocation(stations)


@st.composite
def runs(draw):
    plan, allocation = draw(lines())
    horizon = Fraction(draw(st.integers(300, 2400)))
    config = SimConfig(
        horizon_s=horizon,
        warmup_s=horizon * Fraction(draw(st.integers(0, 3)), 4),
        service_model=draw(st.sampled_from(["deterministic", "uniform"])),
        seed=draw(st.integers(0, 2**32)),
        queue_capacity=draw(st.sampled_from([None, 1, 2])),
        transfer_delay_s=draw(st.sampled_from([Fraction(0), Fraction(3, 2)])),
        sample_interval_s=draw(st.sampled_from([Fraction(60), Fraction(45, 2)])),
    )
    return plan, allocation, config


def _oracle_document(result):
    """The JSON of a run with its samples written by the oracle writer: they
    are the document's last field, and no key follows them."""
    empty = hl.emit_report(dataclasses.replace(result, wip_timeseries=()), "json")
    assert empty.endswith('"wip_timeseries": []\n}\n')
    return empty[:-len("[]\n}\n")] + oracles.write_samples(result.wip_timeseries, "\n  ") + "\n}\n"


@settings(max_examples=80, deadline=None)
@given(runs())
def test_simulate_matches_the_all_heap_loop(run):
    plan, allocation, config = run
    result = hl.simulate(plan, allocation, config)
    expected = oracles.simulate(plan, allocation, config)
    assert result == expected
    assert hl.emit_report(result, "json") == _oracle_document(expected)


# hand-built samples: any time, int or text keys (text with a % or quote),
# empty or bool lengths, bool counts
_keys = st.integers(-5, 500) | st.sampled_from(["%s", "%%d", "a%", 'q"', "10"])
_counts = st.integers(-3, 10**20) | st.booleans()
_samples = st.builds(
    hl.WipSample,
    time=st.fractions() | st.floats(allow_nan=True, allow_infinity=True) | st.integers() | st.booleans(),
    queue_lengths=st.dictionaries(_keys, _counts, max_size=4),
    released=_counts, completed=_counts, in_flight=_counts,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_samples, max_size=6), st.sampled_from(["\n", "\n  ", "\n      "]))
@example([hl.WipSample(1.5, {}, True, False, 1), hl.WipSample(Fraction(3, 2), {2: True, 3: 0}, 1, 0, 1)], "\n  ")
def test_sample_writer_matches_the_generic_writer(samples, ind):
    # samples that share a key tuple share its template
    assert _write(samples, ind) == oracles.write_samples(samples, ind)
    assert _write(samples + samples[::-1], ind) == oracles.write_samples(samples + samples[::-1], ind)


@pytest.mark.parametrize("sample", [
    hl.WipSample(Fraction(0), {2: 1.5}, 1, 0, 1),
    hl.WipSample(Fraction(0), {2: 1}, 1, 0, 1.0),
    hl.WipSample(Fraction(0), {2: "1"}, 1, 0, 1),
    hl.WipSample(Fraction(0), {2: "1"}, 1.5, 0, 1),  # the first bad value names its type
])
def test_sample_writer_refuses_what_the_generic_writer_refuses(sample):
    with pytest.raises(TypeError) as expected:
        oracles.write_samples([sample], "\n")
    with pytest.raises(TypeError) as got:
        _write([sample], "\n")
    assert str(got.value) == str(expected.value)


def _decoded(decode, raw, plan, config):
    try:
        return decode(raw, plan, config)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_FIELDS = ("time", "queue_lengths", "released", "completed", "in_flight")


@st.composite
def mutations(draw, sample):
    """One field of a sample, set to a value drawn around it or removed."""
    field = draw(st.sampled_from(_FIELDS))
    lengths = sample["queue_lengths"]
    key = draw(st.sampled_from(list(lengths)))
    value = draw(st.sampled_from([
        None, True, 1.5, "x", "7/0", [], -1, 0, 10**30,
        sample["released"] + 1, sample["completed"] - 1, sample["in_flight"] + 1,
        "60", "60/1", 60.0, "22.5", "45/2", 45, "120", "0", 0.0, "0/1",
        {}, {key: 1}, {key: True}, {key: 1.0}, {**lengths, "999": 0}, dict(reversed(lengths.items())),
    ]))
    return field, value, draw(st.booleans())


THREE_TASKS = hl.ProcessPlan(
    tasks=hl.parse_tasks("task_id,description,cycle_time_sec\n1,a,30\n2,b,40\n3,c,35\n"), seat_budget=4)


@functools.cache
def _samples_text(interval):
    config = SimConfig(horizon_s=300, sample_interval_s=interval)
    run = hl.simulate(THREE_TASKS, hl.Allocation({1: 1, 2: 2, 3: 1}), config)
    return json.dumps(json.loads(hl.emit_report(run, "json"))["wip_timeseries"]), config


@settings(max_examples=150, deadline=None)
@given(data=st.data(), interval=st.sampled_from([Fraction(60), Fraction(45, 2)]))
def test_decoder_matches_the_oracle_decoder(data, interval):
    text, config = _samples_text(interval)
    pristine, raw = json.loads(text), json.loads(text)
    for _ in range(data.draw(st.integers(1, 2))):  # two changes may break two checks of one sample
        k = data.draw(st.integers(0, len(raw) - 1))
        field, value, remove = data.draw(mutations(pristine[k]))
        raw[k] = {f: v for f, v in raw[k].items() if not (remove and f == field)}
        if not remove:
            raw[k][field] = value
    assert _decoded(simulator._decode_samples, raw, THREE_TASKS, config) == _decoded(
        oracles.decode_samples, raw, THREE_TASKS, config)


def test_decoder_checks_a_sample_in_order():
    plan = hl.ProcessPlan(tasks=hl.parse_tasks("task_id,description,cycle_time_sec\n1,a,30\n2,b,40\n"), seat_budget=3)
    config = SimConfig(horizon_s=120)
    run = hl.simulate(plan, hl.Allocation({1: 1, 2: 2}), config)
    raw = json.loads(hl.emit_report(run, "json"))["wip_timeseries"]
    # a bool length and an off-grid time: the type check comes first
    raw[1] = {**raw[1], "time": "61", "queue_lengths": {"2": True}}
    for decode in (simulator._decode_samples, oracles.decode_samples):
        assert _decoded(decode, raw, plan, config) == (
            TypeError, "wip_timeseries[1]: queue_lengths and counts must be integers")
    # an off-grid time and a broken count: the time comes first
    raw[1] = {**raw[1], "time": "61", "queue_lengths": {"2": 0}, "released": raw[1]["released"] + 1}
    for decode in (simulator._decode_samples, oracles.decode_samples):
        assert _decoded(decode, raw, plan, config) == (
            ValueError, "wip_timeseries[1]: time '61' is off the sample grid, expected 60")
