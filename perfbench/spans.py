"""Span recording around hangerline's public functions, from outside the package.

A Tracer replaces selected module-level functions of the installed package
with wrappers that record a span (name, start, end, parent span, job id) and
add to named counters. Spans stay in memory; callers read them when the run
ends. Nothing under the package changes on disk, and uninstall() puts every
original function back.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter


def _emit_name(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("format", "table")
    return "io.emit_json" if fmt == "json" else "io.emit_table"


def _visits(result) -> int:
    return result.completed_total * len(result.plan.tasks)


# module -> {function: (span name or a callable choosing it, counters from the result)}
SPANNED = {
    "io": {
        "parse_tasks": ("io.parse_tasks", lambda r: {"io.rows": len(r)}),
        "emit_report": (_emit_name, lambda r: {}),  # JSON bytes are counted in the wrapper
        "parse_report": ("io.parse_report", lambda r: {}),
        "emit_plot_data": ("io.emit_plot_data", lambda r: {}),
    },
    "balancer": {
        "greedy_balance": ("balancer.greedy", lambda r: {"balancer.splits": len(r.iterations)}),
        "optimal_balance": ("balancer.optimal", lambda r: {"balancer.splits": len(r.iterations)}),
    },
    "metrics": {"compare": ("metrics.compare", lambda r: {})},
    "robust": {
        "robust_line_report": (
            "robust.robust_line_report",
            lambda r: {"robust.intervals": len(r.intervals)},
        ),
        "alpha_sweep": ("robust.alpha_sweep", lambda r: {}),
    },
    "simulator": {
        "simulate": (
            "simulator.simulate",
            lambda r: {
                "simulator.stage_visits": _visits(r),
                "simulator.sim_seconds": r.config.horizon_s,
            },
        ),
        "verify_against_static": ("simulator.verify", lambda r: {}),
        "queue_trend": ("simulator.queue_trend", lambda r: {}),
    },
}
COUNTED = {"model": ("line_cycle_time",)}


class Tracer:
    """Records spans and counters for one process. Not thread-safe."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.counts: Counter = Counter()
        self.job = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.remove(index)

    def _spanned(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if label == "io.emit_json":
                self.counts["io.json_bytes"] += len(result.encode())
            self.counts.update(counters(result))
            return result

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the functions in SPANNED and COUNTED wherever hangerline
        modules hold a reference to them (`from .x import f` copies)."""
        replacements = {}
        for mod, funcs in SPANNED.items():
            module = importlib.import_module(f"hangerline.{mod}")
            for fn_name, (name, counters) in funcs.items():
                fn = getattr(module, fn_name)
                replacements[id(fn)] = (fn, self._spanned(fn, name, counters))
        for mod, funcs in COUNTED.items():
            module = importlib.import_module(f"hangerline.{mod}")
            for fn_name in funcs:
                fn = getattr(module, fn_name)
                replacements[id(fn)] = (fn, self._counted(fn, f"{mod}.{fn_name}_calls"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hangerline" and not mod_name.startswith("hangerline."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, job) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end]
        out.append((end - start) - covered(inside))
    return out


def median_ms(spans, name: str) -> float:
    """Median duration in ms of the spans called `name`; 0 when there are none."""
    durations = [end - start for n, start, end, parent, job in spans if n == name]
    return 1000 * statistics.median(durations) if durations else 0.0


def total_s(spans, name: str) -> float:
    return sum(end - start for n, start, end, parent, job in spans if n == name)
