"""PathTrace containers: arrays, masks, slicing, caches."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import (
    PathTable,
    PathTrace,
    ScriptedOracle,
    record_path_trace,
)
from tests.conftest import make_path, walk_events


def _two_path_trace() -> PathTrace:
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1, 2), ends_backward=True)
    b = make_path(table, 40, "0", (10, 11))
    return PathTrace(table, [a, b, a, a, b], name="two-path")


def test_record_matches_extraction(fig1_program):
    decisions = [True, True, True, True, False, False]
    events = walk_events(fig1_program, ScriptedOracle(decisions), 1000)
    trace = record_path_trace(fig1_program, events, name="fig1")
    assert trace.flow == 3  # two loop iterations + the exit path
    assert trace.freqs().sum() == 3


def test_trace_validates_ids():
    table = PathTable()
    make_path(table, 0, "1", (0, 1))
    with pytest.raises(TraceError):
        PathTrace(table, [0, 5])
    with pytest.raises(TraceError):
        PathTrace(table, [[0], [0]])


def test_per_path_arrays():
    table = PathTable()
    p0 = make_path(table, 0, "1", (0, 1, 2))
    p1 = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [p0, p1, p0])
    assert list(trace.freqs()) == [2, 1]
    assert list(trace.start_uids()) == [0, 10]
    assert list(trace.blocks_per_path()) == [3, 2]
    assert list(trace.instructions_per_path()) == [9, 6]
    assert list(trace.head_sequence()) == [0, 10, 0]


def test_backward_arrival_mask_uses_previous_path():
    table = PathTable()
    ends = make_path(table, 0, "1", (0, 1), ends_backward=True)
    stops = make_path(table, 40, "0", (10, 11), ends_backward=False)
    trace = PathTrace(table, [ends, stops, ends, ends])
    mask = trace.backward_arrival_mask()
    # First occurrence never arrives via a branch; second follows a
    # backward-ending path; third follows the non-backward path.
    assert list(mask) == [False, True, False, True]


def test_dynamic_head_uids():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [a, b, a, b])
    # Arrivals via backward branches land at heads 10, 0, 10.
    assert trace.dynamic_head_uids() == {0, 10}


def test_slice_and_concat():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [a, a, b, b])
    head = trace.slice(0, 2)
    tail = trace.slice(2, 4)
    assert head.flow == 2 and list(head.freqs()) == [2, 0]
    merged = head.concat(tail)
    assert merged.flow == 4
    assert np.array_equal(merged.path_ids, trace.path_ids)


def test_concat_requires_shared_table():
    table_a, table_b = PathTable(), PathTable()
    a = make_path(table_a, 0, "1", (0, 1))
    b = make_path(table_b, 0, "1", (0, 1))
    with pytest.raises(TraceError):
        PathTrace(table_a, [a]).concat(PathTrace(table_b, [b]))


def test_summarize(fig1_program):
    from repro.trace import summarize

    decisions = [True, True, True, True, False, False]
    events = walk_events(fig1_program, ScriptedOracle(decisions), 1000)
    trace = record_path_trace(fig1_program, events, name="fig1")
    summary = summarize(trace)
    assert summary.flow == 3
    assert summary.num_paths == 2
    assert summary.num_unique_heads == 1
    assert "fig1" in summary.render()


def test_occurrence_index_matches_helper_and_is_cached():
    from repro.prediction.base import occurrence_index_arrays

    trace = _two_path_trace()
    order, starts = trace.occurrence_index()
    ref_order, ref_starts = occurrence_index_arrays(
        trace.path_ids, trace.num_paths
    )
    assert np.array_equal(order, ref_order)
    assert np.array_equal(starts, ref_starts)
    # Cached: the same objects come back on the second call.
    order2, starts2 = trace.occurrence_index()
    assert order2 is order and starts2 is starts


class _ReaderBetweenStores(dict):
    """A trace cache whose first store lets another reader in.

    Stands in for a second thread that reads the trace's cache between
    two stores of one accessor: after the first ``__setitem__`` lands,
    the accessor runs again before the original call carries on.
    """

    def __init__(self, reader):
        super().__init__()
        self.reader = reader
        self.results = []

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if self.reader is not None:
            reader, self.reader = self.reader, None
            self.results.append(reader())


@pytest.mark.parametrize(
    "accessor",
    [
        lambda trace: trace.occurrence_index(),
        lambda trace: trace.head_arrivals(backward_only=True),
        lambda trace: trace.head_arrivals(backward_only=False),
    ],
    ids=["occurrence_index", "head_arrivals_backward", "head_arrivals_all"],
)
def test_two_array_caches_are_atomic_for_a_concurrent_reader(accessor):
    """A reader between the stores sees the whole pair, never half."""
    reference = accessor(_two_path_trace())
    trace = _two_path_trace()
    # Warm the single-array dependencies so the only store left to
    # interleave with is the accessor's own.
    trace.head_sequence()
    trace.backward_arrival_mask()
    cache = _ReaderBetweenStores(lambda: accessor(trace))
    cache.update(trace._cache)
    trace._cache = cache
    result = accessor(trace)
    assert len(cache.results) == 1
    for seen in (result, cache.results[0]):
        for got, want in zip(seen, reference):
            assert np.array_equal(got, want)
