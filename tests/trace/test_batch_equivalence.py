"""Extraction must be digest-identical to the scalar oracle's.

The columnar pipeline (``EventBatch`` → ``find_cuts`` → segment memo)
re-derives the paper's §3 segmentation; these tests pin it to the
per-event reference in :mod:`tests.trace.event_oracle` on every bundled
ISA program and on generated CFG workloads, across chunk boundaries and
every ``max_blocks`` regime.
"""

import numpy as np
import pytest

from repro.cfg import generate_program, procedure_loops
from repro.errors import TraceError
from repro.experiments.engine.cache import trace_digest
from repro.isa import run_to_completion
from repro.isa.programs import (
    hashtable,
    lexer,
    matmul,
    propagate,
    rle,
    sort,
    stackvm,
)
from repro.trace import (
    EventBatch,
    PathExtractor,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from tests.conftest import walk_events
from tests.trace import event_oracle

#: Every bundled ISA program with a small input (name, assembled, memory).
ISA_RUNS = [
    ("rle", rle, lambda m: m.make_memory(seed=5, size=200)),
    ("stackvm", stackvm, lambda m: m.make_memory(m.sum_program(60))),
    ("sort", sort, lambda m: m.make_memory(seed=5, size=60)),
    ("matmul", matmul, lambda m: m.make_memory(seed=5)),
    ("propagate", propagate, lambda m: m.make_memory(seed=5)),
    ("hashtable", hashtable, lambda m: m.make_memory(seed=5)),
    ("lexer", lexer, lambda m: m.make_memory(seed=5)),
]


def _chunks(batch: EventBatch, size: int) -> list[EventBatch]:
    return [
        batch.slice(start, start + size)
        for start in range(0, len(batch), size)
    ]


def _cfg_oracle(seed=19, trips=9):
    program = generate_program(seed=seed, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    return program, lambda: TripCountOracle(
        RandomOracle(7, default_bias=0.5), trip_counts
    )


@pytest.mark.parametrize(
    "name,module,make_memory", ISA_RUNS, ids=[r[0] for r in ISA_RUNS]
)
def test_isa_programs_extract_digest_identically(name, module, make_memory):
    assembled = module.build()
    events, _ = event_oracle.run_to_completion(
        assembled, make_memory(module)
    )
    batch, _ = run_to_completion(assembled, make_memory(module))
    program = assembled.cfg

    assert batch == event_oracle.to_batch(events)
    scalar = event_oracle.record(program, events)
    whole = record_path_trace(program, batch)
    chunked = record_path_trace(program, iter(_chunks(batch, 777)))

    assert trace_digest(whole) == trace_digest(scalar)
    assert trace_digest(chunked) == trace_digest(scalar)


@pytest.mark.parametrize(
    "name,module,make_memory", ISA_RUNS, ids=[r[0] for r in ISA_RUNS]
)
def test_isa_batched_paths_partition_block_entries(
    name, module, make_memory
):
    assembled = module.build()
    batch, _ = run_to_completion(assembled, make_memory(module))
    program = assembled.cfg
    trace = record_path_trace(program, iter(_chunks(batch, 509)))
    block_entries = 1 + int(np.count_nonzero(batch.dst != -1))
    total_path_blocks = int(trace.blocks_per_path()[trace.path_ids].sum())
    assert total_path_blocks == block_entries


@pytest.mark.parametrize("max_blocks", [256, 7, 1, None])
def test_generated_cfg_extraction_agrees_per_max_blocks(max_blocks):
    program, make_oracle = _cfg_oracle()
    events = list(event_oracle.walk(program, make_oracle(), 500_000))
    scalar = event_oracle.record(program, events, max_blocks=max_blocks)
    batch = walk_events(program, make_oracle(), 500_000)
    whole = record_path_trace(program, batch, max_blocks=max_blocks)
    chunked = record_path_trace(
        program, iter(_chunks(batch, 97)), max_blocks=max_blocks
    )
    assert trace_digest(whole) == trace_digest(scalar)
    assert trace_digest(chunked) == trace_digest(scalar)


def test_empty_stream_yields_single_entry_path(fig1_program):
    scalar = event_oracle.record(fig1_program, [])
    batched = record_path_trace(fig1_program, EventBatch.empty())
    assert scalar.flow == batched.flow == 1
    assert trace_digest(batched) == trace_digest(scalar)
    (path,) = list(batched.table)
    assert path.blocks == (fig1_program.entry_block.uid,)


def test_batch_continuity_validated_at_stream_head(fig1_program):
    extractor = PathExtractor(fig1_program)
    wrong_head = EventBatch([99], [1], [0], [False])
    with pytest.raises(TraceError, match="does not match current block"):
        extractor.extract_batch_ids(wrong_head)


def test_batch_continuity_validated_mid_batch(fig1_program):
    batch = walk_events(fig1_program, RandomOracle(0, default_bias=0.5))
    src = batch.src.copy()
    src[2] = 99  # break the src/dst chain
    broken = EventBatch(src, batch.dst, batch.kind, batch.backward)
    with pytest.raises(TraceError, match="does not match current block"):
        PathExtractor(fig1_program).extract_batch_ids(broken)


def test_extract_batch_occurrences_match_scalar(fig1_program):
    events = list(
        event_oracle.walk(fig1_program, RandomOracle(4, default_bias=0.5))
    )
    scalar_ids, scalar_table = event_oracle.extract(fig1_program, events)
    batched = PathExtractor(fig1_program)
    ids = batched.extract_batch_ids(
        walk_events(fig1_program, RandomOracle(4, default_bias=0.5))
    )
    assert ids.tolist() == scalar_ids
    assert list(batched.table) == list(scalar_table)
