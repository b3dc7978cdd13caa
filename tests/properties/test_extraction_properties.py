"""Property-based tests: path extraction invariants.

For arbitrary generated programs and random decision streams, the
extractor must (a) partition every executed block into exactly one path,
(b) start every non-initial path where the previous one handed off, and
(c) cut any chunking of the stream exactly as the per-event oracle in
:mod:`tests.trace.event_oracle` does; and the bit-tracing profiler must
(d) count, for any chunking, exactly the signatures the oracle's
per-branch shift register builds.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfg import GeneratorParams, generate_program, procedure_loops
from repro.profiling import BitTracingProfiler
from repro.trace import (
    PathExtractor,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from tests.conftest import walk_events
from tests.trace import event_oracle

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bounded_events(program_seed: int, oracle_seed: int, trips: int):
    params = GeneratorParams(max_depth=2, max_elements=3)
    program = generate_program(
        seed=program_seed, num_procedures=2, params=params
    )
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(
        RandomOracle(oracle_seed, default_bias=0.5), trip_counts
    )
    return program, walk_events(program, oracle, max_events=100_000)


def _extract(program, events):
    """(path ids, table) of the extractor over one event batch."""
    extractor = PathExtractor(program)
    return extractor.extract_batch_ids(events).tolist(), extractor.table


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
)
@_settings
def test_paths_partition_block_entries(program_seed, oracle_seed, trips):
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    occurrences, table = _extract(program, events)
    block_entries = 1 + int(np.count_nonzero(events.dst != -1))
    total_path_blocks = sum(
        table.path(path_id).num_blocks for path_id in occurrences
    )
    assert total_path_blocks == block_entries


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
)
@_settings
def test_consecutive_paths_chain(program_seed, oracle_seed, trips):
    """Each path starts at the block the previous transfer targeted."""
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    occurrences, table = _extract(program, events)
    paths = [table.path(path_id) for path_id in occurrences]
    # Rebuild the block-entry sequence and compare against concatenation.
    entered = [program.entry_block.uid]
    entered += events.dst[events.dst != -1].tolist()
    concatenated = [uid for path in paths for uid in path.blocks]
    assert concatenated == entered


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
    chunk=st.integers(1, 200),
)
@_settings
def test_bit_tracing_equals_register_oracle(
    program_seed, oracle_seed, trips, chunk
):
    """Any chunking of the stream profiles exactly what a signature
    register shifted per branch counts: same signatures, same counter
    space, same shift and update operations."""
    program, batch = _bounded_events(program_seed, oracle_seed, trips)
    scalar = event_oracle.BitTracing(program).run(
        event_oracle.from_batch(batch)
    )
    chunks = [
        batch.slice(start, start + chunk)
        for start in range(0, len(batch), chunk)
    ]
    assert BitTracingProfiler(program).run(iter(chunks)) == scalar


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
    chunk=st.integers(1, 200),
)
@_settings
def test_batched_extraction_partitions_block_entries(
    program_seed, oracle_seed, trips, chunk
):
    """Any chunking of the stream keeps the partition invariant (every
    executed block lands in exactly one path) and cuts exactly where
    the per-event oracle does."""
    program, batch = _bounded_events(program_seed, oracle_seed, trips)
    chunks = [
        batch.slice(start, start + chunk)
        for start in range(0, len(batch), chunk)
    ]
    trace = record_path_trace(program, iter(chunks))
    block_entries = 1 + int(np.count_nonzero(batch.dst != -1))
    total_path_blocks = int(trace.blocks_per_path()[trace.path_ids].sum())
    assert total_path_blocks == block_entries
    scalar = event_oracle.record(program, event_oracle.from_batch(batch))
    assert np.array_equal(trace.path_ids, scalar.path_ids)


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(1, 8),
)
@_settings
def test_backward_ending_paths_start_next_at_branch_target(
    program_seed, oracle_seed, trips
):
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    occurrences, table = _extract(program, events)
    heads = program.backward_branch_targets()
    for previous, current in zip(occurrences, occurrences[1:]):
        if table.path(previous).ends_with_backward_branch:
            assert table.path(current).start_uid in heads
