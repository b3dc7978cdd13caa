"""Property-based tests: sweep-cache key and digest laws.

The cache is only sound if the key is a faithful content address: equal
inputs always digest equally (stability), any differing input —
trace content, scheme, τ, code version — changes the key (sensitivity),
and a stored point survives the write/read round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine import (
    CODE_VERSION,
    SweepCache,
    cache_key,
    trace_digest,
)
from repro.experiments.sweep import SweepPoint
from repro.trace.io import path_record
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace

_settings = settings(max_examples=60, deadline=None)


def _build_trace(
    name: str, num_paths: int, sequence: list[int], start_base: int = 0
) -> PathTrace:
    """A tiny deterministic trace with ``num_paths`` distinct paths."""
    table = PathTable()
    for index in range(num_paths):
        table.intern(
            Path(
                signature=PathSignature.from_bits(
                    start_base + index * 4, format(index, "04b")
                ),
                blocks=(index, 100 + index),
                start_uid=index,
                num_instructions=3 + index,
                num_cond_branches=1,
                num_indirect_branches=0,
                ends_with_backward_branch=True,
            )
        )
    ids = np.asarray([s % num_paths for s in sequence], dtype=np.int64)
    return PathTrace(table, ids, name=name)


trace_inputs = st.tuples(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 8),
    st.lists(st.integers(0, 1_000), min_size=0, max_size=50),
)


@given(inputs=trace_inputs)
@_settings
def test_digest_stable_across_rebuilds(inputs):
    name, num_paths, sequence = inputs
    first = _build_trace(name, num_paths, sequence)
    second = _build_trace(name, num_paths, sequence)
    assert trace_digest(first) == trace_digest(second)


@given(inputs=trace_inputs, other=trace_inputs)
@_settings
def test_digest_differs_when_content_differs(inputs, other):
    a = _build_trace(*inputs)
    b = _build_trace(*other)
    same_content = (
        inputs[0] == other[0]
        and inputs[1] == other[1]
        and a.path_ids.tolist() == b.path_ids.tolist()
    )
    assert (trace_digest(a) == trace_digest(b)) == same_content


@given(inputs=trace_inputs)
@_settings
def test_digest_independent_of_byte_order(inputs):
    """The digest is a property of values, not of host byte order.

    The constructor canonicalizes ``path_ids`` to the native int64, so
    the foreign-order array is planted directly — the in-memory shape a
    trace would have on an opposite-endian host.  Hashing raw
    ``tobytes()`` (the old behavior) digests these differently.
    """
    name, num_paths, sequence = inputs
    native = _build_trace(name, num_paths, sequence)
    foreign = _build_trace(name, num_paths, sequence)
    swapped = foreign.path_ids.astype(
        np.dtype(np.int64).newbyteorder()
    )
    assert swapped.dtype.byteorder != native.path_ids.dtype.byteorder
    foreign.path_ids = swapped
    assert trace_digest(foreign) == trace_digest(native)


@given(inputs=trace_inputs)
@_settings
def test_digest_independent_of_dtype_spelling(inputs):
    """Equal values in a narrower integer dtype digest equally too."""
    name, num_paths, sequence = inputs
    native = _build_trace(name, num_paths, sequence)
    narrow = _build_trace(name, num_paths, sequence)
    narrow.path_ids = narrow.path_ids.astype(np.int32)
    assert trace_digest(narrow) == trace_digest(native)


@given(inputs=trace_inputs)
@_settings
def test_digest_sensitive_to_name_and_sequence(inputs):
    name, num_paths, sequence = inputs
    base = _build_trace(name, num_paths, sequence)
    renamed = _build_trace(name + "'", num_paths, sequence)
    assert trace_digest(base) != trace_digest(renamed)
    extended = _build_trace(name, num_paths, sequence + [0])
    assert trace_digest(base) != trace_digest(extended)


def _signature_edit(**change):
    def edit(path: Path) -> Path:
        signature = path.signature
        values = {
            key: fn(getattr(signature, key)) for key, fn in change.items()
        }
        return dataclasses.replace(
            path, signature=dataclasses.replace(signature, **values)
        )

    return edit


def _path_edit(key, fn):
    return lambda path: dataclasses.replace(
        path, **{key: fn(getattr(path, key))}
    )


#: One single-field edit per ``path_record`` key.  A key added to the
#: record without an entry here fails the coverage check below, so the
#: digest cannot silently stop covering a field (stale cache keys).
FIELD_EDITS = {
    "start_address": _signature_edit(start_address=lambda v: v + 1),
    "history_hex": _signature_edit(history=lambda v: v ^ 1),
    "bit_count": _signature_edit(bit_count=lambda v: v + 1),
    "indirect_targets": _signature_edit(
        indirect_targets=lambda v: v + (7,)
    ),
    "blocks": _path_edit("blocks", lambda v: v + (999,)),
    "num_instructions": _path_edit("num_instructions", lambda v: v + 1),
    "num_cond_branches": _path_edit("num_cond_branches", lambda v: v + 1),
    "num_indirect_branches": _path_edit(
        "num_indirect_branches", lambda v: v + 1
    ),
    "ends_with_backward_branch": _path_edit(
        "ends_with_backward_branch", lambda v: not v
    ),
}


def _rebuild(trace: PathTrace, paths: list[Path]) -> PathTrace:
    table = PathTable()
    for path in paths:
        table.intern(path)
    return PathTrace(table, trace.path_ids, name=trace.name)


def test_field_edits_cover_every_path_record_key():
    base = _build_trace("t", 1, [0])
    assert set(FIELD_EDITS) == set(path_record(base.table.path(0)))


@pytest.mark.parametrize("field", sorted(FIELD_EDITS))
@given(inputs=trace_inputs, which=st.integers(0, 7))
@_settings
def test_digest_sensitive_to_every_path_record_field(field, inputs, which):
    base = _build_trace(*inputs)
    paths = base.table.paths()
    index = which % len(paths)
    edited = FIELD_EDITS[field](paths[index])
    assert path_record(edited) != path_record(paths[index])
    paths[index] = edited
    assert trace_digest(_rebuild(base, paths)) != trace_digest(base)


def _numpy_scalars(path: Path) -> Path:
    signature = path.signature
    return Path(
        signature=PathSignature(
            start_address=np.int64(signature.start_address),
            history=np.int64(signature.history),
            bit_count=np.int32(signature.bit_count),
            indirect_targets=tuple(
                np.int64(t) for t in signature.indirect_targets
            ),
        ),
        blocks=tuple(np.int64(b) for b in path.blocks),
        start_uid=np.int64(path.start_uid),
        num_instructions=np.int64(path.num_instructions),
        num_cond_branches=np.int16(path.num_cond_branches),
        num_indirect_branches=np.uint8(path.num_indirect_branches),
        ends_with_backward_branch=np.bool_(path.ends_with_backward_branch),
    )


@given(inputs=trace_inputs)
@_settings
def test_digest_of_numpy_int_table_equals_python_int_table(inputs):
    native = _build_trace(*inputs)
    numpy_table = _rebuild(
        native, [_numpy_scalars(path) for path in native.table]
    )
    assert trace_digest(numpy_table) == trace_digest(native)


@given(
    digest=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    scheme=st.sampled_from(["net", "path-profile"]),
    delay=st.integers(1, 1_000_000),
    other_scheme=st.sampled_from(["net", "path-profile"]),
    other_delay=st.integers(1, 1_000_000),
)
@_settings
def test_key_distinct_exactly_when_cell_differs(
    digest, scheme, delay, other_scheme, other_delay
):
    key = cache_key(digest, scheme, delay)
    other = cache_key(digest, other_scheme, other_delay)
    assert (key == other) == (scheme == other_scheme and delay == other_delay)
    # Same cell under a bumped code version is a different address.
    assert key != cache_key(digest, scheme, delay, version=CODE_VERSION + "!")
    # Keys are themselves stable.
    assert key == cache_key(digest, scheme, delay)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    point=st.builds(
        SweepPoint,
        benchmark=st.text(min_size=1, max_size=16),
        scheme=st.sampled_from(["net", "path-profile"]),
        delay=st.integers(0, 10**9),
        profiled_flow_percent=finite,
        hit_rate=finite,
        noise_rate=finite,
        num_predicted=st.integers(0, 2**50),
        num_predicted_hot=st.integers(0, 2**50),
    )
)
@_settings
def test_point_survives_cache_round_trip(point):
    with tempfile.TemporaryDirectory() as root:
        cache = SweepCache(root)
        key = cache_key("0" * 64, point.scheme, point.delay)
        cache.put(key, point)
        # A fresh cache instance over the same directory reads it back
        # bit-exactly (floats included).
        assert SweepCache(root).get(key) == point
