"""Failure handling of the sweep executor: fail fast, resume from cache.

Every cell is a pure, deterministic function of its trace, so a batch
that raises would raise again: the executor runs it once and lets the
exception through, serially and on the thread pool alike.  What it
guarantees instead is that no finished work is lost — every batch that
completed before a failure or an interrupt is already in the cache, and
a rerun replays only the rest.
"""

from __future__ import annotations

import os
import signal
from types import SimpleNamespace

import pytest

from repro.errors import SweepInterrupted
from repro.experiments import run_sweep
from repro.experiments.engine import SweepCache, executor
from repro.obs import Registry

DELAYS = (10, 1_000)

#: Cells per benchmark, which is the serial executor's batch size.
CELLS_PER_BENCHMARK = 2 * len(DELAYS)

#: The one cell the failing predictor refuses to replay.
FAILING = ("deltablue", "net", 1_000)


class CellFailure(RuntimeError):
    """A failure no library code raises, so its type identifies it."""


@pytest.fixture(scope="module")
def trio(all_small_traces):
    """Three benchmarks: enough batches for a mid-sweep failure."""
    return {
        name: all_small_traces[name]
        for name in ("compress", "deltablue", "go")
    }


@pytest.fixture(scope="module")
def baseline(trio):
    """The healthy serial reference sweep."""
    return run_sweep(trio, delays=DELAYS)


def _probing(calls: list, on_call=None):
    """A ``make_predictor`` stand-in that records every replayed cell.

    ``on_call(cell, count)`` runs before each replay, with the number
    of cells replayed so far including this one.
    """
    real = executor.make_predictor

    def make(scheme, delay):
        predictor = real(scheme, delay)

        def run(trace):
            cell = (trace.name, scheme, delay)
            calls.append(cell)
            if on_call is not None:
                on_call(cell, len(calls))
            return predictor.run(trace)

        return SimpleNamespace(run=run)

    return make


@pytest.mark.parametrize("workers", [0, 2])
def test_failing_batch_fails_fast_and_leaves_resumable_cache(
    trio, baseline, tmp_path, monkeypatch, workers
):
    """The batch's own exception reaches the caller after one attempt,
    and a rerun serves everything that finished before it from cache."""

    def fail(cell, count):
        if cell == FAILING:
            raise CellFailure(f"cannot replay {cell}")

    calls: list = []
    monkeypatch.setattr(executor, "make_predictor", _probing(calls, fail))
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(CellFailure):
        run_sweep(trio, delays=DELAYS, workers=workers, cache=cache)
    assert calls.count(FAILING) == 1
    stored = cache.stats.stores
    if workers == 0:
        # Serial order: compress finished, deltablue failed, go never ran.
        assert stored == CELLS_PER_BENCHMARK
        assert all(cell[0] != "go" for cell in calls)
    monkeypatch.undo()

    rerun: list = []
    monkeypatch.setattr(executor, "make_predictor", _probing(rerun))
    warm_cache = SweepCache(tmp_path / "cache")
    registry = Registry()
    points = run_sweep(
        trio, delays=DELAYS, workers=workers, cache=warm_cache, obs=registry
    )
    assert points == baseline
    assert warm_cache.stats.hits == stored
    assert warm_cache.stats.misses == len(baseline) - stored
    assert len(rerun) == len(baseline) - stored
    assert registry.snapshot()["counters"]["sweep.cells_replayed"] == (
        len(baseline) - stored
    )


def test_interrupt_mid_sweep_leaves_resumable_cache(
    trio, baseline, tmp_path, monkeypatch
):
    """Ctrl-C mid-sweep: partial results are structured, cached cells
    are served on rerun without a single replay of them."""

    def interrupt(cell, count):
        # First cell of the second batch: Ctrl-C, as an operator would.
        if count == CELLS_PER_BENCHMARK + 1:
            os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(
        executor, "make_predictor", _probing([], interrupt)
    )
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(trio, delays=DELAYS, cache=cache)
    monkeypatch.undo()
    stop = excinfo.value
    # Serial mode runs one batch per benchmark: batches 0 and 1 finish
    # (the interrupted batch completes before the flag is polled).
    assert stop.completed == 2 * CELLS_PER_BENCHMARK
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
