"""Measurement helpers shared by the benchmark's processes: the percentile
rule, failure counting and provenance. No hangerline import here."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples ranked above it.

    The value is the smallest sample with at least p% of all samples at or
    below it. A tail figure is trustworthy when the second item is >= 10.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


@dataclass
class Tally:
    """Outcome of every job in a measured phase. A failure never raises."""

    latencies_s: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (job, reason)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, name: str, job) -> bool:
        """Time job(); it returns a check callable listing problems in its output.

        The latency covers job() only. A job fails if job() or its check raises,
        or the check reports a problem. Returns whether the job passed.
        """
        start = time.perf_counter()
        elapsed = None
        try:
            check = job()
            elapsed = time.perf_counter() - start
            problems = check()
        except Exception as exc:  # a failing job is data, not a reason to stop
            if elapsed is None:
                elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        self.latencies_s.append(elapsed)
        if problems:
            self.failures.append((name, "; ".join(problems)[:300]))
        return not problems


def tree_digest(root: Path) -> str:
    """sha256 over the package sources, for runs outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hangerline").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(root: Path) -> dict:
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "src_digest": tree_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }
