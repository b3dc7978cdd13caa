"""Fault-injection suite for the resilient sweep executor.

Locks down the acceptance matrix of the resilience layer: a batch that
crashes twice then succeeds yields a sweep byte-identical to a
fault-free serial run; a hung batch on the thread pool trips the
timeout and is retried; a corrupt result is caught and retried; and an
interrupt mid-sweep leaves a cache from which a rerun serves every
completed cell without replay.  All of it deterministic — no real
thread or process murder, no flaky sleeps as synchronization.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BatchTimeoutError,
    ExperimentError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.experiments import run_sweep
from repro.experiments.engine import SweepCache
from repro.obs import Registry
from repro.resilience import (
    RetryPolicy,
    corrupt_on,
    crash_on,
    hang_on,
    interrupt_on,
    plan,
)

DELAYS = (10, 1_000)

#: Fast backoff so retried runs stay test-speed; determinism does not
#: depend on the delays, only on the (batch, attempt) decisions.
FAST = {"backoff_base": 0.001, "backoff_cap": 0.01}


@pytest.fixture(scope="module")
def trio(all_small_traces):
    """Three benchmarks: enough batches for mid-sweep faults."""
    return {
        name: all_small_traces[name]
        for name in ("compress", "deltablue", "go")
    }


@pytest.fixture(scope="module")
def baseline(trio):
    """The fault-free serial reference sweep."""
    return run_sweep(trio, delays=DELAYS)


def test_flaky_batch_serial_byte_identical(trio, baseline):
    """Crashes twice, succeeds on the third attempt — same bytes."""
    registry = Registry()
    points = run_sweep(
        trio,
        delays=DELAYS,
        resilience=RetryPolicy(max_retries=3, **FAST),
        faults=plan(crash_on(batch=1, times=2)),
        obs=registry,
    )
    assert points == baseline
    counters = registry.snapshot()["counters"]
    assert counters["sweep.retries"] == 2
    assert counters["sweep.timeouts"] == 0


def test_flaky_batch_parallel_byte_identical(trio, baseline):
    registry = Registry()
    points = run_sweep(
        trio,
        delays=DELAYS,
        workers=2,
        resilience=RetryPolicy(max_retries=3, **FAST),
        faults=plan(crash_on(batch=2, times=2)),
        obs=registry,
    )
    assert points == baseline
    assert registry.snapshot()["counters"]["sweep.retries"] == 2


@pytest.mark.parametrize("workers", [0, 2])
def test_crash_exhausts_retries(trio, workers):
    """A batch that always crashes fails the sweep with coordinates."""
    with pytest.raises(WorkerCrashError) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            workers=workers,
            resilience=RetryPolicy(max_retries=1, **FAST),
            faults=plan(crash_on(batch=0, times=None)),
        )
    error = excinfo.value
    assert error.batch_index == 0
    assert error.attempts == 2  # first try + one retry
    assert error.benchmark in trio


def test_corrupt_result_detected_and_retried(trio, baseline):
    """A mangled batch result is rejected, retried, and recovered."""
    registry = Registry()
    points = run_sweep(
        trio,
        delays=DELAYS,
        resilience=RetryPolicy(max_retries=2, **FAST),
        faults=plan(corrupt_on(batch=0, times=1)),
        obs=registry,
    )
    assert points == baseline
    assert registry.snapshot()["counters"]["sweep.retries"] == 1


def test_corrupt_result_exhausts_to_worker_crash(trio):
    with pytest.raises(
        WorkerCrashError, match="failed on every attempt"
    ) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            resilience=RetryPolicy(max_retries=1, **FAST),
            faults=plan(corrupt_on(batch=0, times=None)),
        )
    assert "corrupt batch result" in str(excinfo.value.__cause__)


def test_hung_batch_trips_timeout_and_is_retried(trio, baseline):
    """The hang outlives the deadline; the retry completes the sweep.

    One benchmark only: the abandoned sleeper keeps occupying a pool
    thread, so the retry must land on the free thread immediately.
    """
    solo = {"compress": trio["compress"]}
    registry = Registry()
    points = run_sweep(
        solo,
        delays=DELAYS,
        workers=2,
        resilience=RetryPolicy(max_retries=2, task_timeout=0.5, **FAST),
        faults=plan(hang_on(batch=0, seconds=3.0, times=1)),
        obs=registry,
    )
    assert points == run_sweep(solo, delays=DELAYS)
    counters = registry.snapshot()["counters"]
    assert counters["sweep.timeouts"] >= 1
    assert counters["sweep.retries"] >= 1


def test_timed_out_batches_are_counted_as_zombies(trio, baseline):
    """An abandoned attempt keeps burning a pool thread until it finishes;
    the engine must account for it and drain the gauge by sweep end."""
    solo = {"compress": trio["compress"]}
    registry = Registry()
    points = run_sweep(
        solo,
        delays=DELAYS,
        workers=2,
        resilience=RetryPolicy(max_retries=2, task_timeout=0.5, **FAST),
        faults=plan(hang_on(batch=0, seconds=3.0, times=1)),
        obs=registry,
    )
    assert points == run_sweep(solo, delays=DELAYS)
    snapshot = registry.snapshot()
    # One zombie per timeout: the counter is cumulative, the gauge is
    # the live population and must read zero once the sweep is done.
    assert snapshot["counters"]["sweep.zombies"] >= 1
    assert snapshot["counters"]["sweep.zombies"] == (
        snapshot["counters"]["sweep.timeouts"]
    )
    assert snapshot["gauges"]["sweep.zombie_slots"] == 0


def test_clean_sweep_reports_zero_zombies(trio):
    registry = Registry()
    run_sweep(trio, delays=DELAYS, workers=2, obs=registry)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["sweep.zombies"] == 0
    assert snapshot["gauges"]["sweep.zombie_slots"] == 0


def test_timeouts_exhaust_to_batch_timeout_error(trio):
    with pytest.raises(BatchTimeoutError) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            workers=2,
            resilience=RetryPolicy(max_retries=0, task_timeout=0.2, **FAST),
            faults=plan(hang_on(batch=0, seconds=1.0, times=None)),
        )
    assert excinfo.value.timeout_seconds == 0.2


def test_configuration_errors_are_not_retried(trio):
    """A deterministic ReproError fails fast instead of burning retries."""
    registry = Registry()
    with pytest.raises(
        ExperimentError, match="unknown sweep scheme"
    ) as excinfo:
        run_sweep(
            trio,
            schemes=("no-such-scheme",),
            delays=DELAYS,
            resilience=RetryPolicy(max_retries=5, **FAST),
            obs=registry,
        )
    assert not isinstance(excinfo.value, WorkerCrashError)
    assert registry.snapshot()["counters"]["sweep.retries"] == 0


def test_interrupt_mid_sweep_leaves_resumable_cache(
    trio, baseline, tmp_path
):
    """Ctrl-C mid-sweep: partial results are structured, cached cells
    are served on rerun without a single replay of them."""
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            cache=cache,
            faults=plan(interrupt_on(batch=1)),
        )
    stop = excinfo.value
    # Serial mode runs one batch per benchmark: batches 0 and 1 finish
    # (the interrupting batch completes before the flag is polled).
    cells_per_benchmark = 2 * len(DELAYS)
    assert stop.completed == 2 * cells_per_benchmark
    assert stop.total == len(baseline)
    assert stop.partial == baseline[: stop.completed]
    assert cache.stats.stores == stop.completed

    warm_registry = Registry()
    warm_cache = SweepCache(tmp_path / "cache")
    points = run_sweep(
        trio, delays=DELAYS, cache=warm_cache, obs=warm_registry
    )
    assert points == baseline
    assert warm_cache.stats.hits == stop.completed
    assert warm_cache.stats.misses == len(baseline) - stop.completed
    counters = warm_registry.snapshot()["counters"]
    assert counters["sweep.cells_replayed"] == (
        len(baseline) - stop.completed
    )


def test_mid_run_crash_leaves_resumable_cache(trio, baseline, tmp_path):
    """The incremental-write regression: a sweep killed mid-run must
    not lose the batches that already completed."""
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(WorkerCrashError):
        run_sweep(
            trio,
            delays=DELAYS,
            resilience=RetryPolicy(max_retries=0, **FAST),
            cache=cache,
            faults=plan(crash_on(batch=2, times=None)),
        )
    completed = 2 * 2 * len(DELAYS)  # two benchmarks finished
    assert cache.stats.stores == completed

    warm_cache = SweepCache(tmp_path / "cache")
    points = run_sweep(trio, delays=DELAYS, cache=warm_cache)
    assert points == baseline
    assert warm_cache.stats.hits == completed
    assert warm_cache.stats.misses == len(baseline) - completed


def test_faulted_retried_parallel_serial_all_equal(trio, baseline):
    """The equivalence guarantee under fire: serial, parallel, and a
    parallel run riddled with recoverable faults return equal lists."""
    parallel = run_sweep(trio, delays=DELAYS, workers=2)
    faulted = run_sweep(
        trio,
        delays=DELAYS,
        workers=2,
        resilience=RetryPolicy(max_retries=4, task_timeout=5.0, **FAST),
        faults=plan(
            crash_on(batch=0, times=1),
            corrupt_on(batch=1, times=1),
        ),
    )
    assert parallel == baseline
    assert faulted == baseline


def test_clean_run_reports_zeroed_resilience_counters(trio):
    """Healthy sweeps still intern the full counter set for manifests."""
    registry = Registry()
    run_sweep(trio, delays=DELAYS, obs=registry)
    counters = registry.snapshot()["counters"]
    for name in ("sweep.retries", "sweep.timeouts", "sweep.zombies"):
        assert counters[name] == 0
