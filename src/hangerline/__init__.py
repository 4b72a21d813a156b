"""Line balancing, productivity metrics, uncertainty bounds and discrete-event
simulation for one-piece-flow hanger sewing lines.

Each public name is loaded from its module on first use (PEP 562), so
`import hangerline` loads no submodule and a caller compiles only the modules
it uses. A name is looked up in its module on every access and never cached
here, so a name rebound in its module reads the same through the package.
"""
import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_NAMES = {
    "balancer": ("BalanceResult", "greedy_balance", "optimal_balance"),
    "errors": ("DomainError", "InfeasibleError", "InvariantError", "ParseError"),
    "io": (
        "emit_plot_data", "emit_report", "emit_tasks", "fixture_path", "format_number", "format_percent",
        "format_seconds", "format_upph", "load_deviations", "load_tasks", "parse_deviations", "parse_report",
        "parse_tasks", "report_from_dict",
    ),
    "metrics": (
        "Comparison", "ProductivityReport", "compare", "eff_improvement", "productivity_report",
        "truncate_decimals", "upph",
    ),
    "model": (
        "MAX_DECIMAL_EXPONENT", "SECONDS_PER_HOUR", "Allocation", "ProcessPlan", "Task", "as_fraction",
        "bottleneck_tasks", "line_cycle_time", "parallel_lower_bound", "throughput", "work_content",
    ),
    "robust": (
        "CtInterval", "RobustReport", "alpha_sweep", "ct_interval", "effective_intervals", "robust_line_report",
    ),
    "simulator": (
        "SimConfig", "SimResult", "VerifyCheck", "VerifyResult", "WipSample", "queue_trend", "simulate",
        "verify_against_static",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
