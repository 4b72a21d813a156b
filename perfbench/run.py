"""hangerline benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of shirt_cli, synth_balance, synth_sim_exact, synth_sim_uniform,
or `all` to run the four in turn. With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it carries the per-layer metrics instead. The line before it is a
JSON report with the seed, the input digest, sample counts, each job's
median latency, the error rate, the failing jobs by name, the contract probe
and provenance.

Each run spawns SETUP_SAMPLES fresh interpreters that only set up, then one
that sets up and measures; setup_s is the median of all of them.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import percentile, provenance  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _spawn(root: Path, workload: str, seed: int, mode: str, seconds: int, trace: int):
    """Start a worker; return it and the seconds from spawn to its READY line."""
    command = [sys.executable, str(HERE / "worker.py"), str(root), workload, str(seed), mode,
               str(seconds), str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if not ready.startswith("READY "):
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker did not finish set-up (exit {proc.returncode})")
    return proc, setup_s, ready.split()[1]


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int, spec: dict) -> tuple[dict, dict]:
    """Returns (contract result, report)."""
    prov = provenance(root)
    setups, digests = [], set()
    for _ in range(SETUP_SAMPLES):
        proc, setup_s, digest = _spawn(root, workload, seed, "setup", seconds, trace)
        _finish(proc)
        setups.append(setup_s)
        digests.add(digest)
    proc, setup_s, digest = _spawn(root, workload, seed, "run", seconds, trace)
    raw = json.loads(_finish(proc).strip().splitlines()[-1])
    setups.append(setup_s)
    digests.add(digest)
    if len(digests) != 1:
        raise BenchError(f"set-ups of one seed generated different inputs: {sorted(digests)}")
    prov["loadavg_after"] = list(os.getloadavg())
    prov["numpy"] = raw["numpy"]

    latencies_ms = [1000 * x for x in raw["latencies_s"]]
    failures = raw["failures"]
    attempted, failed = len(latencies_ms), len(failures)
    p50, _ = percentile(latencies_ms, 50)
    p90, beyond_p90 = percentile(latencies_ms, 90)
    end_to_end = {
        "jobs_per_s": (attempted - failed) / raw["elapsed_s"],
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = raw["per_layer"] if trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "input_digest": digest,
        "samples": attempted,
        "samples_beyond_p90": beyond_p90,
        "passes": raw["passes"],
        "measured_s": raw["elapsed_s"],
        "setup_samples_s": setups,
        "job_median_ms": {
            name: statistics.median(ms for n, ms in zip(raw["job_names"], latencies_ms) if n == name)
            for name in dict.fromkeys(raw["job_names"])
        },
        "error_rate": failed / attempted,
        "failing_jobs": failures,
        "probe": raw["probe"],
        "provenance": prov,
    }
    return result, report


def _print_human(result: dict, report: dict) -> None:
    print(f"== {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['samples']} jobs ({report['samples_beyond_p90']} beyond p90) in "
          f"{report['passes']} passes, {report['measured_s']:.1f} s; "
          f"error_rate {report['error_rate']:.4f} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"   {name:32s} {m['value']:14.4f} {m['unit']}")
    for job, reason in report["failing_jobs"][:20]:
        print(f"   FAILED {job}: {reason}")
    probe = report["probe"]
    if probe is not None:
        status = "passes" if probe["passed"] else f"FAILS ({probe['detail']})"
        print(f"   contract probe {probe['name']} (not counted): {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="measured phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not (root / "src" / "hangerline" / "__init__.py").is_file():
        print(f"run.py: no hangerline sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = run_workload(root, name, args.seed, seconds, args.trace, spec)
            _print_human(result, report)
            print(json.dumps(report))
            results[name] = result
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (root / ".perfbench_work").rmdir()  # workers remove their own subdirectories
        except OSError:
            pass
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
