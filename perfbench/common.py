"""Shared helpers: paths, statistics, host speed, memory and the
environment fingerprint."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (holds ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, state dirs and span dumps (git-ignored).
WORK = ROOT / ".perfbench-work"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[rank]


#: Iterations of the host-speed probe (:func:`spin_seconds`).
SPIN_ITERATIONS = 100_000
#: About the probe's time on the reference host (an "Intel(R) Xeon(R)
#: Processor" vCPU, Python 3.11), in seconds.
REFERENCE_SPIN_S = 0.025


def _spin(iterations: int) -> int:
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        items.append(key)
        if len(items) > 256:
            items.clear()
    return len(table)


def spin_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs now."""
    started = time.perf_counter()
    _spin(SPIN_ITERATIONS)
    return time.perf_counter() - started


class HostSpeed:
    """Host-speed probes bracketing consecutive pieces of measured work.

    A shared host's CPU speed drifts by 10-20% over tens of seconds and
    by up to 2x over tens of minutes, and the workloads drift with the
    probe loop, so dividing the drift out makes their times read as
    seconds on a host that keeps the reference speed.

    A probe is the median of ``spins`` loop timings: work measured only
    a few times in a run takes several, so one timing's jitter does not
    move its figure.
    """

    def __init__(self, spins: int = 1) -> None:
        self.spins = spins
        self.last = self.probe()

    def probe(self) -> float:
        return statistics.median(spin_seconds() for _ in range(self.spins))

    def scale(self, seconds: float) -> float:
        """``seconds`` of the work since the last probe, scaled to the
        reference speed by the probes before and after it."""
        after = self.probe()
        scaled = seconds * REFERENCE_SPIN_S * 2 / (self.last + after)
        self.last = after
        return scaled


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """The checkout's revision; exported trees without ``.git`` report
    ``unknown`` (``source_sha256`` identifies them)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


def source_digest() -> str:
    """sha256 over the package sources (a revision for git-less trees)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(**extra) -> dict:
    """Environment the numbers were measured on."""
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "source_sha256": source_digest(),
    }
    info.update(extra)
    return info
