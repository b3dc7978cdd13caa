"""Every profiler's report must equal its per-event oracle's exactly.

``compare_schemes`` and the §4 cost tables are only trustworthy if the
vectorized ``observe_batch`` implementations produce byte-for-byte the
reports a per-event simulation does (the scalar profilers in
:mod:`tests.trace.event_oracle`) — same frequencies, same counter
space, same operation counts — for any chunking of the stream.
"""

import numpy as np
import pytest

from repro.cfg import generate_program, procedure_loops
from repro.errors import TraceError
from repro.profiling import (
    BallLarusProfiler,
    BitTracingProfiler,
    BlockProfiler,
    EdgeProfiler,
    KBoundedPathProfiler,
    compare_schemes,
)
from repro.profiling.overhead import HeadCounterProfiler
from repro.trace import RandomOracle, TripCountOracle, find_cuts
from tests.conftest import walk_events
from tests.trace import event_oracle

#: name -> (production profiler factory, oracle profiler factory).
PROFILER_FACTORIES = {
    "bit-tracing": (
        lambda program: BitTracingProfiler(program),
        lambda program: event_oracle.BitTracing(program),
    ),
    "bit-tracing-short": (
        lambda program: BitTracingProfiler(program, max_blocks=7),
        lambda program: event_oracle.BitTracing(program, max_blocks=7),
    ),
    "ball-larus": (
        lambda program: BallLarusProfiler(program),
        lambda program: event_oracle.BallLarus(program),
    ),
    "kpaths-inter": (
        lambda program: KBoundedPathProfiler(k=8, intraprocedural=False),
        lambda program: event_oracle.KBounded(k=8, intraprocedural=False),
    ),
    "kpaths-intra": (
        lambda program: KBoundedPathProfiler(k=3, intraprocedural=True),
        lambda program: event_oracle.KBounded(k=3, intraprocedural=True),
    ),
    "edge": (
        lambda program: EdgeProfiler(),
        lambda program: event_oracle.Edge(),
    ),
    "block": (
        lambda program: BlockProfiler(entry_uid=program.entry_block.uid),
        lambda program: event_oracle.Block(entry_uid=program.entry_block.uid),
    ),
    "net-heads": (
        lambda program: HeadCounterProfiler(),
        lambda program: event_oracle.HeadCounter(),
    ),
}


def _stream(seed=11, trips=8):
    """(program, oracle events, the production walker's batch)."""
    program = generate_program(seed=seed, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips

    def oracle():
        return TripCountOracle(RandomOracle(3, default_bias=0.5), trip_counts)

    events = list(event_oracle.walk(program, oracle(), 500_000))
    batch = walk_events(program, oracle(), 500_000)
    assert batch == event_oracle.to_batch(events)
    return program, events, batch


def _chunks(batch, size):
    return [
        batch.slice(start, start + size)
        for start in range(0, len(batch), size)
    ]


@pytest.fixture(scope="module")
def stream():
    return _stream()


@pytest.mark.parametrize("name", sorted(PROFILER_FACTORIES))
def test_batch_reports_equal_scalar_reports(name, stream):
    program, events, batch = stream
    factory, oracle_factory = PROFILER_FACTORIES[name]
    scalar = oracle_factory(program).run(events)

    assert factory(program).run(batch) == scalar
    assert factory(program).run(iter(_chunks(batch, 613))) == scalar
    assert factory(program).run(iter(_chunks(batch, 3))) == scalar


def test_compare_schemes_rows_identical_across_representations(stream):
    program, events, batch = stream
    scalar = event_oracle.compare_schemes(program, events)
    assert compare_schemes(program, batch) == scalar
    assert compare_schemes(program, _chunks(batch, 919)) == scalar
    assert compare_schemes(program, iter(_chunks(batch, 919))) == scalar


def test_bit_tracing_batch_ignores_events_after_halt(stream):
    program, events, batch = stream
    scalar = event_oracle.BitTracing(program).run(events)
    profiler = BitTracingProfiler(program)
    profiler.observe_batch(batch)
    # The stream halted; later batches must not change the profile.
    profiler.observe_batch(batch.slice(0, 5))
    assert profiler.report() == scalar


def test_bit_tracing_never_fed_reports_nothing(stream):
    program, _, batch = stream
    profiler = BitTracingProfiler(program)
    profiler.observe_batch(batch.slice(0, 0))
    report = profiler.report()
    # No phantom path at the entry block: an unfed stream has no paths.
    assert report.num_units == 0
    assert report.profiling_ops == 0
    assert report.counter_space == 0


def test_bit_tracing_mid_program_start_equals_oracle(stream):
    """A stream that opens after its first cut starts at that cut's
    target, not at the program entry."""
    program, events, batch = stream
    cuts = find_cuts(batch.dst, batch.kind, batch.backward, 256)
    start = int(cuts[0]) + 1
    assert batch.src[start] != program.entry_block.uid
    scalar = event_oracle.BitTracing(program).run(events[start:])
    tail = batch.slice(start, len(batch))
    assert BitTracingProfiler(program).run(tail) == scalar
    assert BitTracingProfiler(program).run(iter(_chunks(tail, 97))) == scalar


def test_bit_tracing_report_is_idempotent(stream):
    program, events, batch = stream
    half = len(batch) // 2
    scalar = event_oracle.BitTracing(program).run(events[:half])
    profiler = BitTracingProfiler(program)
    profiler.observe_batch(batch.slice(0, half))
    # The stream stopped mid-path: the first report flushes that path,
    # the second must not flush it again.
    assert profiler.report() == scalar
    assert profiler.report() == scalar


def test_bit_tracing_rejects_discontinuous_stream(stream):
    program, _, batch = stream
    profiler = BitTracingProfiler(program)
    profiler.observe_batch(batch.slice(0, 100))
    gap = 101 + int(np.flatnonzero(batch.src[101:] != batch.dst[99])[0])
    with pytest.raises(TraceError):
        profiler.observe_batch(batch.slice(gap, gap + 10))
