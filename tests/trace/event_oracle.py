"""Scalar reference for the branch-event pipeline.

Production code moves a branch stream only as
:class:`~repro.trace.batch.EventBatch` columns.  This module keeps the
original one-object-per-transfer pipeline as the oracle the columnar
code is checked against:

* :class:`BranchEvent`, one Python object per control transfer, with
  :func:`to_batch` / :func:`from_batch` to cross to and from columns;
* the scalar producers, :func:`walk` (CFG walker) and
  :func:`run_machine` (ISA machine), which emit the events one at a time;
* the scalar §3 segmenter, :func:`extract` / :func:`record`, which keeps
  a :class:`SignatureRegister` (the paper's run-time shift register) and
  a block list per open path;
* the six §4 profilers' per-event ``observe`` loops and
  :func:`compare_schemes` over them;
* the per-event replay of the §7 hardware models,
  :func:`simulate_predictor` and :func:`simulate_trace_cache`.

Each piece is a direct simulation of the rule it implements, written
for clarity rather than speed.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.cfg.block import BasicBlock, BranchKind
from repro.cfg.edge import EdgeKind
from repro.cfg.program import Program
from repro.cfg.spanning_tree import number_program
from repro.errors import MachineError, MachineLimitExceeded, TraceError
from repro.hardware import BranchPredictionStats, TraceCacheStats
from repro.isa.instructions import COND_BRANCHES, Op
from repro.isa.machine import Machine
from repro.profiling.base import ProfileReport
from repro.profiling.counters import CounterTable
from repro.profiling.overhead import OverheadRow
from repro.trace.batch import CODE_KIND, EventBatch
from repro.trace.events import HALT_DST
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BranchEvent:
    """One dynamic control transfer.

    ``src``/``dst`` are block uids (``dst`` is :data:`HALT_DST` for a
    halt), ``kind`` drives history bits and call accounting, and
    ``backward`` marks a backward taken branch: the target address does
    not exceed the branch instruction's.
    """

    src: int
    dst: int
    kind: EdgeKind
    backward: bool

    @property
    def history_bit(self) -> int | None:
        """The bit-tracing history bit: 1 taken, 0 fall-through, else None."""
        if self.kind is EdgeKind.TAKEN:
            return 1
        if self.kind is EdgeKind.FALLTHROUGH:
            return 0
        return None

    @property
    def is_indirect(self) -> bool:
        return self.kind is EdgeKind.INDIRECT

    @property
    def is_call(self) -> bool:
        return self.kind is EdgeKind.CALL

    @property
    def is_return(self) -> bool:
        return self.kind is EdgeKind.RETURN


def halt_event(src: int) -> BranchEvent:
    """The synthetic event ending a trace when the program halts."""
    return BranchEvent(src=src, dst=HALT_DST, kind=EdgeKind.JUMP, backward=False)


#: EdgeKind -> its ``CODE_*`` value (the inverse of ``CODE_KIND``).
KIND_CODE = {kind: code for code, kind in enumerate(CODE_KIND)}


def to_batch(events: Iterable[BranchEvent]) -> EventBatch:
    """Pack an event iterable into one columnar batch."""
    events = list(events)
    return EventBatch(
        [event.src for event in events],
        [event.dst for event in events],
        [KIND_CODE[event.kind] for event in events],
        [event.backward for event in events],
    )


def from_batch(batches: EventBatch | Iterable[EventBatch]) -> list[BranchEvent]:
    """Unpack a batch, or a stream of batches, into event objects."""
    if isinstance(batches, EventBatch):
        batches = (batches,)
    events = []
    for batch in batches:
        for s, d, k, b in zip(
            batch.src.tolist(),
            batch.dst.tolist(),
            batch.kind.tolist(),
            batch.backward.tolist(),
        ):
            events.append(
                BranchEvent(src=s, dst=d, kind=CODE_KIND[k], backward=b)
            )
    return events


# ----------------------------------------------------------------------
# Producers
# ----------------------------------------------------------------------
def walk(
    program: Program, oracle, max_events: int | None = None
) -> Iterator[BranchEvent]:
    """Execute ``program`` block by block, yielding one event per transfer.

    Ends with the halt event; a return from the entry procedure with an
    empty call stack halts.  Raises :class:`MachineLimitExceeded` when
    ``max_events`` runs out before the program halts.
    """
    if not program.finalized:
        raise TraceError("program must be finalized before walking")
    block = program.entry_block
    call_stack: list[int] = []
    emitted = 0
    while True:
        if max_events is not None and emitted >= max_events:
            raise MachineLimitExceeded(emitted)
        event, next_uid = _step(program, oracle, block, call_stack)
        emitted += 1
        yield event
        if next_uid is None:
            return
        block = program.block_by_uid(next_uid)


def _step(
    program: Program, oracle, block: BasicBlock, call_stack: list[int]
) -> tuple[BranchEvent, int | None]:
    """Execute one terminator; return (event, next block uid or None)."""
    term = block.terminator
    src_addr = block.branch_address

    def make(dst_uid: int, kind: EdgeKind) -> tuple[BranchEvent, int]:
        dst = program.block_by_uid(dst_uid)
        backward = (
            kind not in (EdgeKind.FALLTHROUGH, EdgeKind.STRAIGHT)
            and dst.address <= src_addr
        )
        event = BranchEvent(
            src=block.uid, dst=dst_uid, kind=kind, backward=backward
        )
        return event, dst_uid

    if term.kind is BranchKind.COND:
        if oracle.decide_cond(block):
            return make(block.taken_uid, EdgeKind.TAKEN)
        return make(block.fallthrough_uid, EdgeKind.FALLTHROUGH)
    if term.kind is BranchKind.JUMP:
        return make(block.taken_uid, EdgeKind.JUMP)
    if term.kind is BranchKind.INDIRECT:
        index = oracle.decide_multiway(block, len(block.target_uids))
        return make(block.target_uids[index], EdgeKind.INDIRECT)
    if term.kind is BranchKind.CALL:
        call_stack.append(block.fallthrough_uid)
        return make(block.taken_uid, EdgeKind.CALL)
    if term.kind is BranchKind.ICALL:
        index = oracle.decide_multiway(block, len(block.target_uids))
        call_stack.append(block.fallthrough_uid)
        return make(block.target_uids[index], EdgeKind.CALL)
    if term.kind is BranchKind.RETURN:
        if not call_stack:
            return halt_event(block.uid), None
        return make(call_stack.pop(), EdgeKind.RETURN)
    if term.kind is BranchKind.FALLTHROUGH:
        return make(block.fallthrough_uid, EdgeKind.STRAIGHT)
    if term.kind is BranchKind.HALT:
        return halt_event(block.uid), None
    raise TraceError(f"unknown terminator kind {term.kind!r}")


def run_machine(
    machine: Machine, max_steps: int = 10_000_000
) -> Iterator[BranchEvent]:
    """Execute ``machine`` until HALT, yielding one event per transfer.

    The instruction semantics are the machine's own; this loop only
    re-derives which transfers it reports and how.
    """
    state = machine.state
    instructions = machine.program.instructions
    block_of = machine.program.block_of
    regs = state.registers
    memory = state.memory

    def event(dst_index: int, kind: EdgeKind) -> BranchEvent:
        backward = (
            kind not in (EdgeKind.FALLTHROUGH, EdgeKind.STRAIGHT)
            and dst_index <= state.pc
        )
        return BranchEvent(
            src=block_of[state.pc],
            dst=block_of[dst_index],
            kind=kind,
            backward=backward,
        )

    while True:
        if state.steps >= max_steps:
            raise MachineLimitExceeded(state.steps)
        if not 0 <= state.pc < len(instructions):
            raise MachineError(f"pc {state.pc} outside the program")
        instr = instructions[state.pc]
        state.steps += 1
        op = instr.op

        if op in COND_BRANCHES:
            if machine._compare(op, regs[instr.rs], regs[instr.rt]):
                yield event(instr.target, EdgeKind.TAKEN)
                state.pc = instr.target
            else:
                yield event(state.pc + 1, EdgeKind.FALLTHROUGH)
                state.pc += 1
            continue
        if op is Op.JMP:
            yield event(instr.target, EdgeKind.JUMP)
            state.pc = instr.target
            continue
        if op is Op.JR:
            target = regs[instr.rs]
            machine._check_leader(target, "jr")
            yield event(target, EdgeKind.INDIRECT)
            state.pc = target
            continue
        if op is Op.CALL:
            state.call_stack.append(state.pc + 1)
            yield event(instr.target, EdgeKind.CALL)
            state.pc = instr.target
            continue
        if op is Op.CALLR:
            target = regs[instr.rs]
            machine._check_leader(target, "callr")
            state.call_stack.append(state.pc + 1)
            yield event(target, EdgeKind.CALL)
            state.pc = target
            continue
        if op is Op.RET:
            if not state.call_stack:
                yield halt_event(block_of[state.pc])
                return
            target = state.call_stack.pop()
            yield event(target, EdgeKind.RETURN)
            state.pc = target
            continue
        if op is Op.HALT:
            yield halt_event(block_of[state.pc])
            return

        machine._execute_straightline(instr, regs, memory)
        next_pc = state.pc + 1
        if next_pc >= len(instructions):
            raise MachineError("execution ran past the last instruction")
        if block_of[next_pc] != block_of[state.pc]:
            yield event(next_pc, EdgeKind.STRAIGHT)
        state.pc = next_pc


def run_to_completion(
    program, memory_image: list[int] | None = None, max_steps=10_000_000
) -> tuple[list[BranchEvent], Machine]:
    """Run an assembled program; return (events, machine)."""
    machine = Machine(program)
    if memory_image:
        machine.load_memory(memory_image)
    return list(run_machine(machine, max_steps=max_steps)), machine


# ----------------------------------------------------------------------
# §3 segmentation
# ----------------------------------------------------------------------
class SignatureRegister:
    """The run-time shift register that builds signatures incrementally.

    Mirrors the paper's description of bit tracing: "path signatures are
    constructed as the program executes by shifting a 1 or 0 value into
    the current signature register".
    """

    def __init__(self, start_address: int):
        self._start_address = start_address
        self._history = 0
        self._bit_count = 0
        self._indirect: list[int] = []

    def shift(self, bit: int) -> None:
        """Shift one conditional-branch outcome into the register."""
        if bit not in (0, 1):
            raise TraceError(f"history bit must be 0 or 1, got {bit!r}")
        self._history = (self._history << 1) | bit
        self._bit_count += 1

    def record_indirect(self, target_address: int) -> None:
        """Append an indirect-branch target to the signature."""
        self._indirect.append(target_address)

    @property
    def bit_count(self) -> int:
        """Number of bits shifted so far."""
        return self._bit_count

    def snapshot(self) -> PathSignature:
        """Freeze the register into an immutable signature."""
        return PathSignature(
            start_address=self._start_address,
            history=self._history,
            bit_count=self._bit_count,
            indirect_targets=tuple(self._indirect),
        )


def _make_path(
    program: Program,
    blocks: list[int],
    signature: PathSignature,
    ends_backward: bool,
) -> Path:
    return Path(
        signature=signature,
        blocks=tuple(blocks),
        start_uid=blocks[0],
        num_instructions=sum(program.block_by_uid(u).size for u in blocks),
        num_cond_branches=signature.bit_count,
        num_indirect_branches=len(signature.indirect_targets),
        ends_with_backward_branch=ends_backward,
    )


def extract(
    program: Program,
    events: Iterable[BranchEvent],
    table: PathTable | None = None,
    max_blocks: int | None = 256,
    start_uid: int | None = None,
) -> tuple[list[int], PathTable]:
    """Segment ``events`` into paths; return (path ids, table).

    A segment ends at a backward taken transfer (which belongs to it),
    at a forward return closing an in-path call, when ``max_blocks``
    blocks are reached, at a halt, or when the stream ends.
    """
    if max_blocks is not None and max_blocks < 1:
        raise TraceError("max_blocks must be positive or None")
    table = table if table is not None else PathTable()
    uid = start_uid if start_uid is not None else program.entry_block.uid
    ids: list[int] = []
    blocks = [uid]
    register = SignatureRegister(program.block_by_uid(uid).address)
    open_calls = 0

    def flush(ends_backward: bool) -> None:
        path = _make_path(program, blocks, register.snapshot(), ends_backward)
        ids.append(table.intern(path))

    def start(next_uid: int) -> None:
        nonlocal blocks, register, open_calls
        blocks = [next_uid]
        register = SignatureRegister(program.block_by_uid(next_uid).address)
        open_calls = 0

    for event in events:
        if event.src != blocks[-1]:
            raise TraceError(
                f"event source {event.src} does not match current "
                f"block {blocks[-1]}"
            )
        bit = event.history_bit
        if bit is not None:
            register.shift(bit)
        if event.is_indirect and event.dst != HALT_DST:
            register.record_indirect(program.block_by_uid(event.dst).address)

        if event.dst == HALT_DST:
            flush(False)
            return ids, table
        if event.backward:
            flush(True)
            start(event.dst)
            continue
        if event.is_call:
            open_calls += 1
        elif event.is_return and open_calls > 0:
            flush(False)
            start(event.dst)
            continue
        if max_blocks is not None and len(blocks) >= max_blocks:
            flush(False)
            start(event.dst)
        else:
            blocks.append(event.dst)

    flush(False)
    return ids, table


def record(
    program: Program,
    events: Iterable[BranchEvent],
    name: str = "trace",
    max_blocks: int | None = 256,
) -> PathTrace:
    """The :class:`PathTrace` the scalar segmenter builds from ``events``."""
    ids, table = extract(program, events, max_blocks=max_blocks)
    return PathTrace(table, ids, name=name)


# ----------------------------------------------------------------------
# §4 profilers
# ----------------------------------------------------------------------
class _Scalar:
    """Per-event profiler: ``observe`` each event, then ``report``."""

    name = "abstract"

    def run(self, events: Iterable[BranchEvent]) -> ProfileReport:
        for event in events:
            self.observe(event)
        return self.report()

    def _report(self, counters: CounterTable, extra_ops: int = 0):
        return ProfileReport(
            scheme=self.name,
            frequencies=dict(counters.items()),
            counter_space=counters.high_water,
            profiling_ops=extra_ops + counters.updates,
        )


class BitTracing(_Scalar):
    """A signature register shifted per branch, bumped per path end."""

    name = "bit-tracing"

    def __init__(self, program: Program, max_blocks: int | None = 256):
        self._program = program
        self._max_blocks = max_blocks
        self._counters = CounterTable("paths")
        self._register: SignatureRegister | None = None
        self._blocks_in_path = 1
        self._open_calls = 0
        self._shift_ops = 0
        self._started = False

    def _start(self, uid: int) -> None:
        address = self._program.block_by_uid(uid).address
        self._register = SignatureRegister(address)
        self._blocks_in_path = 1
        self._open_calls = 0

    def _finish(self) -> None:
        if self._register is not None:
            self._counters.bump(self._register.snapshot())
            self._register = None

    def observe(self, event: BranchEvent) -> None:
        if not self._started:
            self._started = True
            self._start(event.src)
        if self._register is None:
            return  # halted
        bit = event.history_bit
        if bit is not None:
            self._register.shift(bit)
            self._shift_ops += 1
        if event.is_indirect and event.dst != HALT_DST:
            self._register.record_indirect(
                self._program.block_by_uid(event.dst).address
            )
            self._shift_ops += 1

        if event.dst == HALT_DST:
            self._finish()
            return
        if event.backward:
            self._finish()
            self._start(event.dst)
            return
        if event.is_call:
            self._open_calls += 1
        elif event.is_return and self._open_calls > 0:
            self._finish()
            self._start(event.dst)
            return
        if (
            self._max_blocks is not None
            and self._blocks_in_path >= self._max_blocks
        ):
            self._finish()
            self._start(event.dst)
        else:
            self._blocks_in_path += 1

    def report(self) -> ProfileReport:
        self._finish()
        return self._report(self._counters, self._shift_ops)


class BallLarus(_Scalar):
    """A per-activation register summing chord increments."""

    name = "ball-larus"

    def __init__(self, program: Program):
        self._program = program
        self._numberings = number_program(program)
        self._chords: dict[str, dict[tuple[int, int], int]] = {}
        for name, numbering in self._numberings.items():
            chord_set = set(numbering.chord_indices)
            self._chords[name] = {
                (edge.src, edge.dst): numbering.increments[edge.index]
                for edge in numbering.edges
                if edge.index in chord_set
            }
        self._counters = CounterTable("bl-paths")
        self._increment_ops = 0
        # Activation stack: [proc_name, register, current uid].
        self._stack: list[list] = []
        self._started = False

    def _apply(self, proc: str, src: int, dst: int, register: int) -> int:
        increment = self._chords[proc].get((src, dst))
        if increment is not None:
            register += increment
            self._increment_ops += 1
        return register

    def _enter(self, uid: int) -> None:
        proc = self._program.block_by_uid(uid).proc_name
        entry = self._numberings[proc].virtual_entry
        self._stack.append([proc, self._apply(proc, entry, uid, 0), uid])

    def _end_path(self, last_uid: int, restart_uid: int | None) -> None:
        if not self._stack:
            return
        proc, register, _ = self._stack[-1]
        numbering = self._numberings[proc]
        register = self._apply(proc, last_uid, numbering.virtual_exit, register)
        self._counters.bump((proc, register))
        if restart_uid is not None:
            self._stack[-1][1] = self._apply(
                proc, numbering.virtual_entry, restart_uid, 0
            )
            self._stack[-1][2] = restart_uid

    def observe(self, event: BranchEvent) -> None:
        if not self._started:
            self._started = True
            self._enter(event.src)
        if event.dst == HALT_DST:
            self._end_path(event.src, None)
            self._stack.clear()
            return
        term = self._program.block_by_uid(event.src).terminator.kind
        if event.is_call:
            self._enter(event.dst)
            return
        if event.is_return or term is BranchKind.RETURN:
            self._end_path(event.src, None)
            if self._stack:
                self._stack.pop()
            if self._stack:
                proc, register, current = self._stack[-1]
                self._stack[-1][1] = self._apply(
                    proc, current, event.dst, register
                )
                self._stack[-1][2] = event.dst
            return
        if event.backward:
            self._end_path(event.src, event.dst)
            return
        if not self._stack:
            return  # halted
        proc, register, _ = self._stack[-1]
        self._stack[-1][1] = self._apply(proc, event.src, event.dst, register)
        self._stack[-1][2] = event.dst

    def report(self) -> ProfileReport:
        while self._stack:
            self._end_path(self._stack[-1][2], None)
            self._stack.pop()
        return self._report(self._counters, self._increment_ops)


class KBounded(_Scalar):
    """A FIFO of the last ``k`` branches, bumped per full window."""

    name = "k-bounded"

    def __init__(self, k: int = 8, intraprocedural: bool = True):
        self.k = k
        self.intraprocedural = intraprocedural
        self._window: deque[tuple[int, int]] = deque(maxlen=k)
        self._counters = CounterTable("k-paths")
        self._queue_ops = 0

    def observe(self, event: BranchEvent) -> None:
        if event.dst == HALT_DST:
            self._window.clear()
            return
        if self.intraprocedural and (event.is_call or event.is_return):
            self._window.clear()
            return
        self._window.append((event.src, event.dst))
        self._queue_ops += 1
        if len(self._window) == self.k:
            self._counters.bump(tuple(self._window))

    def report(self) -> ProfileReport:
        return self._report(self._counters, self._queue_ops)


class Edge(_Scalar):
    """One counter per traversed (src, dst) pair."""

    name = "edge"

    def __init__(self) -> None:
        self._counters = CounterTable("edges")

    def observe(self, event: BranchEvent) -> None:
        if event.dst != HALT_DST:
            self._counters.bump((event.src, event.dst))

    def report(self) -> ProfileReport:
        return self._report(self._counters)


class Block(_Scalar):
    """One counter per entered block."""

    name = "block"

    def __init__(self, entry_uid: int | None = None):
        self._counters = CounterTable("blocks")
        if entry_uid is not None:
            self._counters.bump(entry_uid)

    def observe(self, event: BranchEvent) -> None:
        if event.dst != HALT_DST:
            self._counters.bump(event.dst)

    def report(self) -> ProfileReport:
        return self._report(self._counters)


class HeadCounter(_Scalar):
    """One counter per backward-branch target (NET's profiling)."""

    name = "net-heads"

    def __init__(self) -> None:
        self._counters = CounterTable("heads")

    def observe(self, event: BranchEvent) -> None:
        if event.backward:
            self._counters.bump(event.dst)

    def report(self) -> ProfileReport:
        return self._report(self._counters)


def compare_schemes(
    program: Program, events: list[BranchEvent], k: int = 8
) -> list[OverheadRow]:
    """The §4 overhead rows, from the per-event profilers."""
    profilers = [
        BitTracing(program),
        BallLarus(program),
        KBounded(k=k),
        Edge(),
        Block(entry_uid=program.entry_block.uid),
        HeadCounter(),
    ]
    rows = []
    for profiler in profilers:
        report = profiler.run(events)
        rows.append(
            OverheadRow(
                scheme=report.scheme,
                counter_space=report.counter_space,
                profiling_ops=report.profiling_ops,
                num_units=report.num_units,
            )
        )
    return rows


# ----------------------------------------------------------------------
# §7 hardware models
# ----------------------------------------------------------------------
def simulate_predictor(predictor, events) -> BranchPredictionStats:
    """What ``predictor.simulate`` must return, one event at a time."""
    stats = BranchPredictionStats(scheme=predictor.name)
    for event in events:
        bit = event.history_bit
        if bit is None:
            continue
        taken = bool(bit)
        stats.conditional_branches += 1
        if predictor.predict(event.src) == taken:
            stats.correct += 1
        predictor.update(event.src, taken)
    stats.table_bits = predictor.table_bits
    return stats


def simulate_trace_cache(cache, events, entry_uid: int) -> TraceCacheStats:
    """What ``cache.simulate`` must return, from per-event block and
    outcome streams."""
    blocks: list[int] = [entry_uid]
    outcomes: list[tuple[int, int]] = []
    for event in events:
        bit = event.history_bit
        if bit is not None:
            outcomes.append((len(blocks) - 1, bit))
        if event.dst == HALT_DST:
            break
        blocks.append(event.dst)
    outcome_at = dict(outcomes)
    position = 0
    while position < len(blocks):
        cache.stats.fetches += 1
        line = cache.lookup(blocks[position])
        if line is not None and cache._matches(
            line, blocks, outcome_at, position
        ):
            cache.stats.hits += 1
            position += len(line.blocks)
            continue
        position += cache._fill(blocks, outcome_at, position)
    return cache.stats
