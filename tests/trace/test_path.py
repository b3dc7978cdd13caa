"""Path signatures, the shift register and the interning table."""

import sys
import threading

import numpy as np
import pytest

from repro.cfg import GeneratorParams, generate_program, procedure_loops
from repro.errors import TraceError
from repro.experiments.engine.cache import trace_digest
from repro.trace import (
    CFGWalker,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from repro.trace.path import (
    Path,
    PathColumns,
    PathSignature,
    PathTable,
)
from repro.trace.recorder import PathTrace
from tests.trace.event_oracle import SignatureRegister


def test_signature_from_bits_round_trip():
    signature = PathSignature.from_bits(12, "0101")
    assert signature.history == 0b0101
    assert signature.bit_count == 4
    assert signature.bits == "0101"


def test_signature_preserves_leading_zeros():
    a = PathSignature.from_bits(0, "001")
    b = PathSignature.from_bits(0, "01")
    assert a != b
    assert a.bits == "001" and b.bits == "01"


def test_signature_rejects_overflowing_history():
    with pytest.raises(TraceError):
        PathSignature(start_address=0, history=4, bit_count=2)
    with pytest.raises(TraceError):
        PathSignature(start_address=0, history=1, bit_count=0)


def test_signature_render_includes_indirect_targets():
    signature = PathSignature.from_bits(7, "11", indirect_targets=(40, 52))
    assert signature.render() == "7.11,[40,52]"


def test_register_builds_signature_like_the_paper():
    register = SignatureRegister(start_address=0)
    for bit in (0, 1, 0, 1):
        register.shift(bit)
    register.record_indirect(99)
    snapshot = register.snapshot()
    assert snapshot == PathSignature.from_bits(0, "0101", (99,))


def test_register_rejects_non_bits():
    register = SignatureRegister(0)
    with pytest.raises(TraceError):
        register.shift(2)


def test_path_requires_blocks_and_consistent_head():
    signature = PathSignature.from_bits(0, "1")
    with pytest.raises(TraceError):
        Path(
            signature=signature,
            blocks=(),
            start_uid=0,
            num_instructions=1,
            num_cond_branches=1,
            num_indirect_branches=0,
        )
    with pytest.raises(TraceError):
        Path(
            signature=signature,
            blocks=(1, 2),
            start_uid=9,
            num_instructions=1,
            num_cond_branches=1,
            num_indirect_branches=0,
        )


def test_path_head_and_tail():
    signature = PathSignature.from_bits(0, "1")
    path = Path(
        signature=signature,
        blocks=(5, 6, 7),
        start_uid=5,
        num_instructions=9,
        num_cond_branches=1,
        num_indirect_branches=0,
    )
    assert path.head == 5
    assert path.tail == (6, 7)
    assert path.num_blocks == 3


def test_table_interns_by_signature():
    table = PathTable()
    signature = PathSignature.from_bits(0, "10")

    def build():
        return Path(
            signature=signature,
            blocks=(1, 2),
            start_uid=1,
            num_instructions=4,
            num_cond_branches=2,
            num_indirect_branches=0,
        )

    first = table.intern(build())
    second = table.intern(build())
    assert first == second
    assert len(table) == 1
    assert table.lookup(signature) == first
    assert table.path(first).blocks == (1, 2)


def test_table_lookup_missing_and_bad_id():
    table = PathTable()
    assert table.lookup(PathSignature.from_bits(0, "1")) is None
    with pytest.raises(TraceError):
        table.path(0)


# ----------------------------------------------------------------------
# Column-backed table
# ----------------------------------------------------------------------
def _columns(**overrides) -> PathColumns:
    """Two valid rows (head 5 and head 9), with fields overridden."""
    fields = dict(
        start_address=[20, 36],
        history=[0b10, 0],
        bit_count=[2, 0],
        start_uid=[5, 9],
        num_instructions=[9, 3],
        num_cond_branches=[2, 0],
        num_indirect_branches=[0, 1],
        ends_backward=[True, False],
        block_offsets=[0, 3, 4],
        blocks=[5, 6, 7, 9],
        target_offsets=[0, 0, 1],
        indirect_targets=[44],
    )
    fields.update(overrides)
    return PathColumns(**fields)


def test_bulk_rows_materialize_as_paths():
    table = PathTable()
    assert table.append_unique(_columns()) == range(0, 2)
    first = table.path(0)
    assert first is table.path(0)  # memoized, not rebuilt
    assert first == Path(
        signature=PathSignature.from_bits(20, "10"),
        blocks=(5, 6, 7),
        start_uid=5,
        num_instructions=9,
        num_cond_branches=2,
        num_indirect_branches=0,
    )
    second = table.path(1)
    assert second.signature.indirect_targets == (44,)
    assert second.ends_with_backward_branch is False
    assert type(second.start_uid) is int
    assert list(table) == [first, second]


def test_intern_and_lookup_see_bulk_rows():
    table = PathTable()
    extra = Path(
        signature=PathSignature.from_bits(0, "1"),
        blocks=(1,),
        start_uid=1,
        num_instructions=1,
        num_cond_branches=1,
        num_indirect_branches=0,
    )
    assert table.intern(extra) == 0
    table.append_unique(_columns())
    assert table.lookup(PathSignature.from_bits(20, "10")) == 1
    assert table.lookup(PathSignature(36, 0, 0, (44,))) == 2
    # Interning an equal path returns the bulk row's id, adds nothing.
    assert table.intern(table.path(1)) == 1
    assert table.intern(extra) == 0
    assert len(table) == 3
    # Columns cover interned and bulk rows alike, in id order.
    assert table.columns().start_uid.tolist() == [1, 5, 9]


def test_bulk_rows_repeating_a_signature_are_rejected_on_index():
    table = PathTable()
    table.append_unique(_columns())
    table.append_unique(_columns())
    with pytest.raises(TraceError, match="repeats the signature"):
        table.lookup(PathSignature.from_bits(20, "10"))


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(history=[0b100, 0]), "does not fit in 2 bits"),
        (dict(bit_count=[-1, 0]), "non-negative"),
        (dict(history=[1 << 70, 0]), "does not fit"),
        (dict(start_uid=[5, 8]), "start_uid must match"),
        (
            dict(block_offsets=[0, 4, 4], blocks=[5, 6, 7, 9]),
            "at least one block",
        ),
        (dict(block_offsets=[0, 3, 5]), "offsets"),
        (dict(bit_count=[2]), "entries"),
    ],
)
def test_bad_bulk_rows_raise(overrides, message):
    with pytest.raises(TraceError, match=message):
        _columns(**overrides)


def test_wide_histories_keep_python_ints():
    columns = _columns(history=[(1 << 70) + 1, 0], bit_count=[71, 0])
    assert columns.history.dtype == object
    table = PathTable()
    table.append_unique(columns)
    assert table.path(0).signature.history == (1 << 70) + 1
    merged = PathColumns.concat([columns, _columns()])
    assert merged.history.tolist()[0] == (1 << 70) + 1
    assert merged.block_offsets.tolist() == [0, 3, 4, 7, 8]


def test_columns_are_read_only():
    table = PathTable()
    table.append_unique(_columns())
    with pytest.raises(ValueError):
        table.columns().start_uid[0] = 1


#: Digests of the two traces below, recorded when the table held Path
#: objects only: the columnar table must hash them identically.
EXTRACTED_DIGEST = (
    "59a4d54005e694828e2ef7ded27252f306f5486bc1ea90714e2b88682d44d0dc"
)
HAND_BUILT_DIGEST = (
    "dacd1c0878a8a0381b1d9adbcbe921911312e4e7bdc365f0b176fe3d81bae284"
)


def test_extracted_table_digest_is_unchanged():
    params = GeneratorParams(max_depth=3, max_elements=5, weight_switch=2.0)
    program = generate_program(seed=1, num_procedures=4, params=params)
    trips = {
        header: 12
        for name in program.procedures
        for header in procedure_loops(program, name).headers
    }
    walker = CFGWalker(program, TripCountOracle(RandomOracle(1), trips))
    trace = record_path_trace(
        program,
        walker.walk_batched(5_000_000, truncate=True),
        name="extracted",
    )
    assert any(path.signature.indirect_targets for path in trace.table)
    assert trace_digest(trace) == EXTRACTED_DIGEST


def test_hand_built_table_digest_is_unchanged():
    table = PathTable()
    rows = [
        (0, (1 << 70) + 5, 71, (), (3, 4, 5), True),
        (8, 0, 0, (40, 52), (9,), False),
        (16, 0b101, 3, (7,), (11, 12), True),
    ]
    for address, history, bits, targets, blocks, backward in rows:
        table.intern(
            Path(
                signature=PathSignature(address, history, bits, targets),
                blocks=blocks,
                start_uid=blocks[0],
                num_instructions=3 * len(blocks),
                num_cond_branches=bits,
                num_indirect_branches=len(targets),
                ends_with_backward_branch=backward,
            )
        )
    trace = PathTrace(table, [0, 1, 2, 2, 1, 0], name="hand")
    assert trace_digest(trace) == HAND_BUILT_DIGEST


def test_concurrent_readers_and_a_writer_keep_the_table_whole():
    """More threads than cores and a tiny switch interval: readers
    materialize rows, read the columns and look signatures up while a
    writer interns new paths.  No row may be lost, repeated or torn."""
    bulk = 2000
    table = PathTable()
    table.append_unique(
        PathColumns(
            start_address=np.arange(bulk) * 4,
            history=np.arange(bulk),
            bit_count=np.full(bulk, 16),
            start_uid=np.arange(bulk),
            num_instructions=np.full(bulk, 3),
            num_cond_branches=np.full(bulk, 16),
            num_indirect_branches=np.zeros(bulk),
            ends_backward=np.ones(bulk, dtype=bool),
            block_offsets=np.arange(bulk + 1),
            blocks=np.arange(bulk),
            target_offsets=np.zeros(bulk + 1),
            indirect_targets=[],
        )
    )
    extra = [
        Path(
            signature=PathSignature(10**6 + index, 0, 0),
            blocks=(10**6 + index,),
            start_uid=10**6 + index,
            num_instructions=1,
            num_cond_branches=0,
            num_indirect_branches=0,
        )
        for index in range(300)
    ]
    errors: list[Exception] = []

    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for row in rng.integers(0, bulk, size=400).tolist():
                assert table.path(row).start_uid == row
                signature = PathSignature(row * 4, row, 16)
                assert table.lookup(signature) == row
                columns = table.columns()
                assert len(columns) <= len(table)
                assert columns.start_uid[row] == row
        except Exception as error:
            errors.append(error)

    def writer() -> None:
        try:
            for index, path in enumerate(extra):
                assert table.intern(path) == bulk + index
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(s,)) for s in range(6)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(table) == len(table.columns()) == bulk + len(extra)
    assert table.columns().start_uid.tolist() == list(range(bulk)) + [
        path.start_uid for path in extra
    ]
    for index, path in enumerate(extra):
        assert table.path(bulk + index) is path
        assert table.lookup(path.signature) == bulk + index
