"""Times the branch-event pipeline: object stream vs columnar batches.

The §4 overhead study replays one generated-program run through every
profiler.  Production moves that stream as numpy-column batches end to
end — ``CFGWalker.walk_batched`` fills the buffers,
``record_path_trace`` segments them with vectorized cut-finding, and
the profilers consume them through their batch paths.  The object leg
is the scalar oracle in ``tests/trace/event_oracle.py``: one Python
object per control transfer, a per-event segmenter and per-event
profilers.

This bench runs the same workload both ways, asserts the results are
bit-identical (equal trace digests and exactly equal overhead rows),
and records the throughputs in ``benchmarks/results/event_pipeline.txt``
plus machine-readable ``BENCH_events.json``.  At full scale the
columnar pipeline must clear a 5x end-to-end throughput floor.
"""

from __future__ import annotations

import time

from conftest import BENCH_FLOW_SCALE, emit, emit_json

from repro.cfg import generate_program, procedure_loops
from repro.experiments.engine.cache import trace_digest
from repro.experiments.report import fmt, render_table
from repro.obs import Registry
from repro.profiling import compare_schemes
from repro.trace import (
    CFGWalker,
    EventBatch,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from tests.trace import event_oracle

#: Full-scale event budget; matches the §4 overhead study's stream.
FULL_EVENTS = 400_000

#: Smallest stream worth timing — below this the fixed costs dominate.
MIN_EVENTS = 20_000

#: At full scale the columnar consumption side (segmentation into a
#: PathTrace + all §4 profilers) must beat the object path's events/sec
#: by this factor.  Generation is reported but not gated: the CFG walk
#: is data-dependent and stays a Python loop in both pipelines.
MIN_COLUMNAR_SPEEDUP = 5.0

#: Workload knobs, matching ``overhead_rows``.
SEED = 25
TRIPS = 25


def _make_oracle() -> tuple:
    program = generate_program(seed=SEED, num_procedures=4)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = TRIPS
    oracle = TripCountOracle(RandomOracle(5, default_bias=0.5), trip_counts)
    return program, oracle


def test_event_pipeline(results_dir):
    max_events = max(int(FULL_EVENTS * BENCH_FLOW_SCALE), MIN_EVENTS)

    # Object pipeline: the oracle's walker, one BranchEvent per
    # transfer, its per-event extractor and per-event profilers.
    program, oracle = _make_oracle()
    start = time.perf_counter()
    events = []
    for event in event_oracle.walk(program, oracle):
        events.append(event)
        if len(events) >= max_events:
            break
    object_gen_s = time.perf_counter() - start
    start = time.perf_counter()
    object_trace = event_oracle.record(program, events)
    object_rows = event_oracle.compare_schemes(program, events)
    object_s = time.perf_counter() - start

    # Columnar pipeline: batched walker, vectorized extractor, batched
    # profilers — with live metrics attached.
    registry = Registry()
    program, oracle = _make_oracle()
    walker = CFGWalker(program, oracle)
    start = time.perf_counter()
    batches = list(
        walker.walk_batched(
            max_events=max_events, truncate=True, obs=registry
        )
    )
    columnar_gen_s = time.perf_counter() - start
    start = time.perf_counter()
    columnar_trace = record_path_trace(program, iter(batches))
    columnar_rows = compare_schemes(program, EventBatch.concat(batches))
    columnar_s = time.perf_counter() - start

    # The two pipelines carry the same stream and must agree exactly.
    num_events = sum(len(batch) for batch in batches)
    assert num_events == len(events)
    assert trace_digest(columnar_trace) == trace_digest(object_trace)
    assert columnar_rows == object_rows

    counters = registry.snapshot()["counters"]
    assert counters["tracegen.events"] == num_events
    assert counters["tracegen.batches"] == len(batches)

    speedup = object_s / columnar_s
    gen_speedup = object_gen_s / columnar_gen_s
    if BENCH_FLOW_SCALE >= 1.0:
        assert speedup >= MIN_COLUMNAR_SPEEDUP, (
            f"columnar segmentation+profiling ran at {speedup:.2f}x "
            f"the object path over {num_events:,} events; the floor "
            f"is {MIN_COLUMNAR_SPEEDUP:.1f}x"
        )

    rows = [
        [
            "object stream",
            fmt(object_gen_s, 2),
            fmt(object_s, 2),
            f"{num_events / object_s:,.0f}",
            fmt(1.0, 2),
        ],
        [
            "columnar batches",
            fmt(columnar_gen_s, 2),
            fmt(columnar_s, 2),
            f"{num_events / columnar_s:,.0f}",
            fmt(speedup, 2),
        ],
    ]
    emit(
        results_dir,
        "event_pipeline",
        render_table(
            headers=[
                "pipeline",
                "generate s",
                "segment+profile s",
                "events/sec",
                "speedup",
            ],
            rows=rows,
            title=(
                f"Event pipeline over {num_events:,} events: "
                "segmentation into a PathTrace + all §4 profilers"
            ),
        )
        + f"\ngeneration speedup (not gated): {gen_speedup:.2f}x",
    )
    emit_json(
        results_dir,
        "events",
        {
            "events": num_events,
            "batches": len(batches),
            "flow_scale": BENCH_FLOW_SCALE,
            "min_columnar_speedup": MIN_COLUMNAR_SPEEDUP,
            "speedup_gate_applied": BENCH_FLOW_SCALE >= 1.0,
            "modes": {
                "object": {
                    "generate_seconds": object_gen_s,
                    "seconds": object_s,
                    "events_per_sec": num_events / object_s,
                    "speedup": 1.0,
                },
                "columnar": {
                    "generate_seconds": columnar_gen_s,
                    "seconds": columnar_s,
                    "events_per_sec": num_events / columnar_s,
                    "speedup": speedup,
                },
            },
            "generation_speedup": gen_speedup,
        },
    )
