"""Sweep planning: chunking and the autotuned chunk size."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.engine import (
    SweepCache,
    autotune_chunk_size,
    chunk_tasks,
    plan_sweep,
    run_sweep,
)
from repro.experiments.engine.planner import (
    AUTOTUNE_MAX_CHUNK,
    AUTOTUNE_WAVES_PER_WORKER,
)
from repro.obs import Registry


def test_chunk_tasks_splits_in_canonical_order():
    tasks = plan_sweep(["compress"], delays=(1, 10, 100, 1_000))
    chunks = chunk_tasks(tasks, 3)
    assert [len(chunk) for chunk in chunks] == [3, 3, 2]
    assert [task for chunk in chunks for task in chunk] == tasks


def test_chunk_tasks_rejects_nonpositive_size():
    tasks = plan_sweep(["compress"], delays=(1,))
    with pytest.raises(ExperimentError, match="chunk size"):
        chunk_tasks(tasks, 0)


def test_autotune_targets_waves_per_worker_within_bounds():
    assert autotune_chunk_size(0, 2) == 1
    assert autotune_chunk_size(10, 1) == -(-10 // AUTOTUNE_WAVES_PER_WORKER)
    assert autotune_chunk_size(10_000, 2) == AUTOTUNE_MAX_CHUNK
    with pytest.raises(ExperimentError):
        autotune_chunk_size(10, 0)


def test_autotune_sizes_on_dirty_cells_only(all_small_traces, tmp_path):
    """Regression: a warm cache must shrink the chunks to the pending
    set, not size them on the full plan."""
    solo = {"compress": all_small_traces["compress"]}
    full_delays = tuple(range(1, 1 + 2 * AUTOTUNE_MAX_CHUNK))
    run_sweep(solo, delays=full_delays, cache=SweepCache(tmp_path / "c"))
    # Warm the cache, then dirty exactly three cells per scheme.
    registry = Registry()
    run_sweep(
        solo,
        delays=full_delays + (9_001, 9_002, 9_003),
        cache=SweepCache(tmp_path / "c"),
        workers=2,
        obs=registry,
    )
    snapshot = registry.snapshot()
    assert snapshot["counters"]["sweep.cells_replayed"] == 2 * 3
    chunk = snapshot["gauges"]["sweep.chunk_size"]
    assert chunk == autotune_chunk_size(2 * 3, 2)
    assert chunk < AUTOTUNE_MAX_CHUNK
