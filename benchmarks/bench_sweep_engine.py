"""Times the sweep engine on the Figure 2 sweep: cold-serial vs
cold-parallel vs warm-cache, plus the observability and resilience
overheads.

One full-scale sweep is 9 benchmarks × 17 delays × 2 schemes = 306
trace replays, historically the repo's hottest path.  This bench runs
it several ways — serial replays, replays on a ``workers=2`` thread
pool, and a rerun served entirely from the on-disk result cache —
asserts all of them produce identical points, and records the timings
in ``benchmarks/results/sweep_engine.txt`` and ``BENCH_sweep.json``.

A second measurement times the same serial sweep with a live metrics
``Registry`` attached (the ``--metrics-json`` configuration) against
the default null-registry run, and reports the overhead percentage.
Observability is designed to publish at cell granularity, never per
occurrence, so the overhead must stay in the low single digits.

A third measurement times the parallel sweep with an explicit
resilience policy (per-batch deadline armed, retries budgeted — the
``--task-timeout``/``--max-retries`` configuration) against the plain
parallel run.  On a healthy sweep the resilience machinery is pure
bookkeeping — deadline arithmetic in the streaming wait loop — so its
overhead must also stay small.

Every leg starts from cold per-trace caches (occurrence index, head
arrivals), so no leg inherits precomputation from the one before it.
The legs run :data:`ROUNDS` times in alternating order and every gate
reads the per-leg median.
"""

from __future__ import annotations

import os
import statistics
import time

from conftest import BENCH_FLOW_SCALE, emit, emit_json

from repro.experiments.engine import SweepCache, run_sweep, trace_digest
from repro.experiments.report import fmt, render_table
from repro.obs import Registry
from repro.resilience import RetryPolicy

#: Thread-pool size for the cold-parallel legs.
WORKERS = 2

#: Repeats of every leg; the order alternates between rounds.
ROUNDS = 3

#: On a multi-core box the pool must pay for itself: two threads at
#: least 1.2x faster than cold serial.
MIN_PARALLEL_SPEEDUP_MULTI_CORE = 1.2

#: On a single-core container true parallel speedup is physically
#: impossible (two threads timeshare one CPU); the bar is instead a
#: regression guard on pool overhead.
MIN_PARALLEL_SPEEDUP_SINGLE_CORE = 0.6

#: Generous ceiling for the observed-run overhead (the acceptance bar
#: is < 5%; the assert leaves headroom so a noisy machine cannot flake).
MAX_OBS_OVERHEAD_PERCENT = 25.0

#: Ceiling for the resilient-vs-plain parallel overhead, equally padded
#: against machine noise.
MAX_RESILIENCE_OVERHEAD_PERCENT = 25.0

#: A policy with every fault-handling feature armed; the deadline is
#: far above any healthy batch, so nothing ever trips on this bench.
RESILIENT = RetryPolicy(max_retries=2, task_timeout=600.0)


def _summary(seconds: list[float]) -> dict:
    """Median, quartiles and min of one leg's repeats."""
    if len(seconds) > 1:
        low, _, high = statistics.quantiles(seconds, n=4)
    else:
        low = high = seconds[0]
    return {
        "seconds": statistics.median(seconds),
        "q1": low,
        "q3": high,
        "min": min(seconds),
        "runs": seconds,
    }


def test_sweep_engine(full_traces, results_dir, engine_cache_dir):
    # Digests are memoized per trace: whichever leg computes them first
    # would otherwise eat the whole hashing bill and skew its timing.
    # Pay it once, as setup, so every leg measures only its own work.
    for trace in full_traces.values():
        trace_digest(trace)

    registry = Registry()
    caches: list[SweepCache] = []

    def cache_fill():
        caches.append(SweepCache(engine_cache_dir / f"round{len(caches)}"))
        return run_sweep(full_traces, cache=caches[-1])

    legs = {
        "cold_serial": lambda: run_sweep(full_traces),
        "cold_serial_observed": lambda: run_sweep(
            full_traces, obs=registry
        ),
        "cold_parallel": lambda: run_sweep(full_traces, workers=WORKERS),
        "cold_parallel_resilient": lambda: run_sweep(
            full_traces, workers=WORKERS, resilience=RESILIENT
        ),
        "cold_serial_cache_fill": cache_fill,
        "warm_cache": lambda: run_sweep(full_traces, cache=caches[-1]),
    }
    seconds: dict[str, list[float]] = {name: [] for name in legs}
    serial = None
    for round_index in range(ROUNDS):
        names = list(legs)
        if round_index % 2:
            # Alternate the order, keeping each warm leg after its fill.
            names = names[-2:] + names[:-2][::-1]
        for name in names:
            # Cold per-trace caches: no leg inherits the occurrence
            # index or head arrivals another leg computed.
            for trace in full_traces.values():
                trace._cache.clear()
            start = time.perf_counter()
            points = legs[name]()
            seconds[name].append(time.perf_counter() - start)
            if serial is None:
                serial = points
            # Metrics, threads, fault handling and the cache never
            # change results.
            assert points == serial, name
    modes = {name: _summary(runs) for name, runs in seconds.items()}
    serial_s = modes["cold_serial"]["seconds"]
    for mode in modes.values():
        mode["speedup"] = serial_s / mode["seconds"]
    observed_s = modes["cold_serial_observed"]["seconds"]
    parallel_s = modes["cold_parallel"]["seconds"]
    resilient_s = modes["cold_parallel_resilient"]["seconds"]

    overhead_percent = 100.0 * (observed_s / serial_s - 1.0)
    assert overhead_percent < MAX_OBS_OVERHEAD_PERCENT
    resilience_percent = 100.0 * (resilient_s / parallel_s - 1.0)
    assert resilience_percent < MAX_RESILIENCE_OVERHEAD_PERCENT
    cells = len(serial)
    counters = registry.snapshot()["counters"]
    assert counters["sweep.cells_replayed"] == ROUNDS * cells
    # Each warm leg replayed nothing: every cell was a cache hit.
    for cache in caches:
        assert cache.stats.hits == cells
        assert cache.stats.misses == cells  # all from the fill leg
        assert cache.stats.stores == cells

    cpu_count = os.cpu_count() or 1
    parallel_speedup = serial_s / parallel_s
    min_parallel_speedup = (
        MIN_PARALLEL_SPEEDUP_MULTI_CORE
        if cpu_count >= WORKERS
        else MIN_PARALLEL_SPEEDUP_SINGLE_CORE
    )
    # Only hold the full calibrated workload to the speedup bar: at
    # smoke scale pool spin-up dominates the replay work it amortizes.
    if BENCH_FLOW_SCALE >= 1.0:
        assert parallel_speedup >= min_parallel_speedup, (
            f"cold parallel (workers={WORKERS}) ran at "
            f"{parallel_speedup:.2f}x cold serial on {cpu_count} CPU(s); "
            f"the floor is {min_parallel_speedup:.2f}x"
        )

    labels = {
        "cold_serial": "cold serial (null registry)",
        "cold_serial_observed": "cold serial + metrics",
        "cold_parallel": f"cold parallel (workers={WORKERS} threads)",
        "cold_parallel_resilient": (
            "cold parallel + resilience "
            f"(timeout={RESILIENT.task_timeout:g}s)"
        ),
        "cold_serial_cache_fill": "cold serial + cache fill",
        "warm_cache": "warm cache",
    }
    rows = [
        [
            labels[name],
            fmt(mode["seconds"], 2),
            f"{fmt(mode['q1'], 2)}-{fmt(mode['q3'], 2)}",
            fmt(mode["speedup"], 2),
        ]
        for name, mode in modes.items()
    ]
    emit(
        results_dir,
        "sweep_engine",
        render_table(
            headers=["mode", "median s", "IQR s", "speedup vs cold serial"],
            rows=rows,
            title=(
                f"Sweep engine: Figure 2 sweep ({cells} cells), "
                f"median of {ROUNDS} interleaved rounds on "
                f"{cpu_count} CPU(s)"
            ),
        )
        + f"\nmetrics overhead: {overhead_percent:+.2f}% "
        "(observed vs null registry)"
        + f"\nresilience overhead: {resilience_percent:+.2f}% "
        "(deadline-armed vs plain parallel)"
        + f"\n{caches[-1].stats.render()}",
    )
    emit_json(
        results_dir,
        "sweep",
        {
            "cells": cells,
            "cpu_count": cpu_count,
            "flow_scale": BENCH_FLOW_SCALE,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "min_parallel_speedup": min_parallel_speedup,
            "speedup_gate_applied": BENCH_FLOW_SCALE >= 1.0,
            "modes": modes,
            "overheads_percent": {
                "metrics": overhead_percent,
                "resilience": resilience_percent,
            },
        },
    )
