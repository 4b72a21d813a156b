"""One fresh interpreter of the benchmark: set-up, then (in run mode) the
measured phase of one workload.

Usage: python worker.py ROOT WORKLOAD SEED MODE SECONDS TRACE

Set-up imports hangerline from ROOT/src, generates the workload's inputs and
builds its jobs, then prints `READY <input digest>`. In `setup` mode the
process exits there; run.py times it from spawn to that line. In `run` mode
it then runs whole passes over the job list for about SECONDS and prints one
JSON line with the raw results. It starts no pass that would end past
SECONDS at the mean pass time, except to reach MIN_SAMPLES jobs within
MAX_OVERRUN x SECONDS, and runs at least one. With TRACE=1 every other job is
traced, shifting by one each pass, so the tracing overhead is measured in the
same run on the same jobs.
"""
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("shirt_cli", "synth_balance", "synth_sim_exact", "synth_sim_uniform")
INTERPRETER_SAMPLES = 5
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
MAX_OVERRUN = 1.25


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


class Workload:
    """The jobs of one workload, built at set-up."""

    def __init__(self, root: Path, name: str, seed: int, workdir: Path):
        import gen
        import jobs

        self.name = name
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.probe = None
        self.import_samples: list[float] = []  # child-side `import hangerline.cli`, traced passes
        if name == "shirt_cli":
            mix, (probe, args, code, check), texts = jobs.shirt_invocations(root, workdir, seed)
            self.invocations = mix
            command = [sys.executable, "-m", "hangerline.cli", *args]
            self.probe = (probe, jobs.cli_job(command, self.env, root, code, check))
            calls = json.dumps([(name, args, code) for name, args, code, _ in mix])
            calls = calls.replace(str(workdir), "<work>").replace(str(root), "<root>")
            self.digest = gen.digest(texts + [calls])
        elif name == "synth_balance":
            lines = gen.balance_lines(seed)
            self.jobs = [(line.name, jobs.balance_job(line)) for line in lines]
            self.digest = gen.digest(line.csv for line in lines)
        else:
            service = "deterministic" if name == "synth_sim_exact" else "uniform"
            specs = gen.sim_specs(seed, service)
            cases = [jobs.SimCase(spec, service) for spec in specs]
            self.jobs = [(f"{c.spec.line.name}.{c.spec.shape}", c.job) for c in cases]
            if service == "deterministic":
                self.probe = (gen.SPLIT_FIRST_PROBE.name, jobs.SimCase.split_first_probe().job)
            self.digest = gen.digest(
                [s.line.csv for s in specs]
                + [f"{s.shape} {s.horizon_h} {s.alpha} {s.sim_seed}" for s in specs]
            )

    def job(self, k: int, tracer=None):
        """Job k of the pass, traced when a tracer is given. Traced CLI jobs
        run cli_runner.py in place of `python -m hangerline.cli`."""
        if self.name != "shirt_cli":
            return self.jobs[k]
        import jobs

        name, args, code, check = self.invocations[k]
        if tracer is None:
            command = [sys.executable, "-m", "hangerline.cli", *args]
            return name, jobs.cli_job(command, self.env, self.root, code, check)
        span_file = self.workdir / "spans.json"
        command = [sys.executable, str(Path(__file__).parent / "cli_runner.py"), str(span_file), *args]
        on_done = _merger(tracer, span_file, self.import_samples)
        return name, jobs.cli_job(command, self.env, self.root, code, check, on_done)

    def __len__(self):
        return len(self.invocations if self.name == "shirt_cli" else self.jobs)


def _merger(tracer, span_file: Path, import_samples: list):
    """Append a child's spans (parents re-indexed) and counters to tracer,
    and its import time to import_samples."""

    def merge():
        doc = json.loads(span_file.read_text())
        offset = len(tracer.spans)
        for name, start, end, parent, _ in doc["spans"]:
            tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1, tracer.job])
        tracer.counts.update(doc["counts"])
        import_samples.append(doc["import_s"])
        span_file.unlink()

    return merge


def layer_metrics(tracer, traced_passes: int, overhead_pct: float, interpreter_s, import_s) -> dict:
    import spans as sp

    s, c = tracer.spans, tracer.counts

    def per_pass(key):
        return float(c[key]) / traced_passes

    main_self = [t for t, span in zip(sp.self_times(s), s) if span[0] == "cli.main"]
    solve_s = sp.total_s(s, "balancer.greedy") + sp.total_s(s, "balancer.optimal")
    sim_s = sp.total_s(s, "simulator.simulate")
    return {
        "cli.interpreter_ms": 1000 * statistics.median(interpreter_s) if interpreter_s else 0.0,
        "cli.import_ms": 1000 * statistics.median(import_s) if import_s else 0.0,
        "cli.self_ms": 1000 * statistics.median(main_self) if main_self else 0.0,
        "io.parse_tasks_ms": sp.median_ms(s, "io.parse_tasks"),
        "io.rows_per_s": _ratio(c["io.rows"], sp.total_s(s, "io.parse_tasks")),
        "io.emit_json_ms": sp.median_ms(s, "io.emit_json"),
        "io.parse_report_ms": sp.median_ms(s, "io.parse_report"),
        "io.json_bytes": per_pass("io.json_bytes"),
        "io.emit_table_ms": sp.median_ms(s, "io.emit_table"),
        "io.emit_plot_data_ms": sp.median_ms(s, "io.emit_plot_data"),
        "model.line_cycle_time_calls": per_pass("model.line_cycle_time_calls"),
        "balancer.greedy_ms": sp.median_ms(s, "balancer.greedy"),
        "balancer.optimal_ms": sp.median_ms(s, "balancer.optimal"),
        "balancer.splits": per_pass("balancer.splits"),
        "balancer.splits_per_s": _ratio(c["balancer.splits"], solve_s),
        "metrics.compare_ms": sp.median_ms(s, "metrics.compare"),
        "robust.robust_line_report_ms": sp.median_ms(s, "robust.robust_line_report"),
        "robust.alpha_sweep_ms": sp.median_ms(s, "robust.alpha_sweep"),
        "robust.intervals_per_s": _ratio(c["robust.intervals"], sp.total_s(s, "robust.robust_line_report")),
        "simulator.simulate_ms": sp.median_ms(s, "simulator.simulate"),
        "simulator.stage_visits": per_pass("simulator.stage_visits"),
        "simulator.stage_visits_per_s": _ratio(c["simulator.stage_visits"], sim_s),
        "simulator.sim_hours_per_s": _ratio(float(c["simulator.sim_seconds"]) / 3600, sim_s),
        "simulator.verify_ms": sp.median_ms(s, "simulator.verify"),
        "simulator.queue_trend_ms": sp.median_ms(s, "simulator.queue_trend"),
        "trace.overhead_pct": overhead_pct,
    }


def measure(workload: Workload, seconds: float, traced: bool) -> dict:
    from harness import Tally
    from spans import Tracer

    tally = Tally()
    tracer = Tracer()
    job_s = {False: 0.0, True: 0.0}  # summed job latency, untraced / traced
    names = []  # job name per latency sample
    passes = 0
    start = time.perf_counter()
    while True:
        for k in range(len(workload)):
            # traced runs trace every other job, shifting by one each pass,
            # so over two passes each job runs once each way
            tracing = traced and (passes + k) % 2 == 1
            name, job = workload.job(k, tracer if tracing else None)
            tracer.job = f"{passes}:{k}"
            if tracing and workload.name != "shirt_cli":
                tracer.install()
            try:
                tally.run(name, job)
            finally:
                tracer.uninstall()
            job_s[tracing] += tally.latencies_s[-1]
            names.append(name)
        passes += 1
        elapsed = time.perf_counter() - start
        # stop before a pass that would end past the deadline at the mean pass
        # time, unless fewer than MIN_SAMPLES jobs have run and the pass would
        # still end within MAX_OVERRUN times the deadline
        next_end = elapsed * (passes + 1) / passes
        enough = tally.attempted >= MIN_SAMPLES or next_end > MAX_OVERRUN * seconds
        if next_end > seconds and enough and (not traced or passes % 2 == 0):
            break

    who = resource.RUSAGE_CHILDREN if workload.name == "shirt_cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    probe = None
    if workload.probe is not None:
        name, job = workload.probe
        probe_tally = Tally()
        passed = probe_tally.run(name, job)
        probe = {"name": name, "passed": passed, "detail": "" if passed else probe_tally.failures[0][1]}

    out = {
        "elapsed_s": elapsed,
        "passes": passes,
        "latencies_s": tally.latencies_s,
        "job_names": names,
        "failures": tally.failures,
        "peak_rss_mb": peak_rss_mb,
        "probe": probe,
    }
    if traced:
        interpreter_s = []
        if workload.name == "shirt_cli":
            for _ in range(INTERPRETER_SAMPLES):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], check=True)
                interpreter_s.append(time.perf_counter() - t0)
        overhead = 100 * (_ratio(job_s[True], job_s[False]) - 1)
        out["per_layer"] = layer_metrics(
            tracer, passes // 2, overhead, interpreter_s, workload.import_samples
        )
    return out


def main(argv) -> int:
    root, name, seed, mode, seconds, traced = argv
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    import hangerline

    if Path(hangerline.__file__).resolve().parent != (root / "src" / "hangerline").resolve():
        print(f"worker: imported hangerline from {hangerline.__file__}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(root, name, int(seed), workdir)
        print(f"READY {workload.digest}", flush=True)
        if mode == "setup":
            return 0
        result = measure(workload, float(seconds), traced == "1")
        result["digest"] = workload.digest
        numpy = sys.modules.get("numpy")
        result["numpy"] = getattr(numpy, "__version__", None)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
