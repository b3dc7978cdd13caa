"""Property-based tests: the thread pool never changes the bytes.

The executor assembles points by canonical task index and the cache
addresses cells by content, so any worker count, any benchmark subset
and any recoverable fault must produce points and cache contents
byte-identical to the serial sweep.  Every example replays on fresh
trace objects, so the pool threads also race on cold per-trace caches
(occurrence index, head arrivals, hot set) — a torn two-array cache
would surface as a spurious retry.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.engine import (
    SweepCache,
    autotune_chunk_size,
    chunk_tasks,
    group_by_benchmark,
    plan_sweep,
)
from repro.experiments.engine.executor import run_sweep
from repro.obs import Registry
from repro.resilience import RetryPolicy, corrupt_on, crash_on, plan
from repro.trace.recorder import PathTrace
from repro.workloads import BENCHMARK_ORDER

DELAYS = (10, 1_000)

#: Fast backoff so retried examples stay test-speed.
POLICY = RetryPolicy(max_retries=2, backoff_base=0.001, backoff_cap=0.01)


def _fresh(traces: dict[str, PathTrace]) -> dict[str, PathTrace]:
    """The same traces as new objects, with every derived cache cold."""
    return {
        name: PathTrace(trace.table, trace.path_ids, name=trace.name)
        for name, trace in traces.items()
    }


def _batch_count(names: list[str], workers: int) -> int:
    """How many batches the executor makes of a cold sweep."""
    groups = group_by_benchmark(plan_sweep(names, delays=DELAYS))
    if workers == 0:
        return len(groups)
    return sum(
        len(chunk_tasks(group, autotune_chunk_size(len(group), workers)))
        for group in groups.values()
    )


def _cache_fingerprint(root: Path) -> dict[str, str]:
    """Relative path → sha256 of every file under a cache directory."""
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workers=st.integers(min_value=0, max_value=4),
    subset=st.sets(st.sampled_from(BENCHMARK_ORDER), min_size=1),
    fault=st.sampled_from([None, "crash", "corrupt"]),
    data=st.data(),
)
def test_threaded_sweep_matches_serial(
    all_small_traces, workers, subset, fault, data
):
    names = [name for name in BENCHMARK_ORDER if name in subset]
    traces = {name: all_small_traces[name] for name in names}
    faults = None
    if fault is not None:
        batch = data.draw(
            st.integers(0, _batch_count(names, workers) - 1), label="batch"
        )
        make = crash_on if fault == "crash" else corrupt_on
        faults = plan(make(batch=batch, times=1))
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = Path(tmp) / "serial"
        threaded_dir = Path(tmp) / "threaded"
        serial = run_sweep(
            _fresh(traces), delays=DELAYS, cache=SweepCache(serial_dir)
        )
        registry = Registry()
        threaded = run_sweep(
            _fresh(traces),
            delays=DELAYS,
            workers=workers,
            cache=SweepCache(threaded_dir),
            obs=registry,
            resilience=POLICY,
            faults=faults,
        )
        assert threaded == serial
        assert _cache_fingerprint(threaded_dir) == _cache_fingerprint(
            serial_dir
        )
    counters = registry.snapshot()["counters"]
    assert counters["sweep.retries"] == (0 if fault is None else 1)
