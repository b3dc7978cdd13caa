"""Segmentation of a branch-event stream into interprocedural forward paths.

Implements the paper's path definition (§3):

    "An interprocedural forward path starts at the target of a backward
    taken branch and extends up to the next backward taken branch.  The
    path may extend across procedure call or return statements unless the
    call or return is a backward branch.  If a path includes a (forward)
    procedure call it will terminate at the corresponding return branch,
    if not earlier."

Operationally the extractor partitions the event stream into consecutive
segments.  A segment ends when

* a backward taken transfer executes (of any kind — conditional, jump,
  indirect, call or return); the transfer belongs to the ending segment
  and the next segment starts at its target;
* a *forward* return executes while the segment has an open in-path call
  (the "corresponding return" rule); nested call/return pairs therefore
  never appear inside one path, matching the rule's "if not earlier";
* the configured maximum path length is reached (Dynamo bounds trace
  length the same way); or
* the program halts.

Every executed block belongs to exactly one segment, so total flow equals
the number of emitted path occurrences — the partition invariant the
metrics rely on (and that the property tests assert).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.cfg.program import Program
from repro.errors import TraceError
from repro.trace.batch import (
    CODE_FALLTHROUGH,
    CODE_INDIRECT,
    CODE_TAKEN,
    EventBatch,
)
from repro.trace.columnar import find_cuts
from repro.trace.events import HALT_DST
from repro.trace.path import Path, PathSignature, PathTable


#: Segment-memo markers distinguishing how a segment ended (two
#: segments with identical event columns but different endings resolve
#: to different paths: a cut segment excludes the cut event's target
#: from its block list, the unterminated tail includes every target).
_END_FORWARD = 0
_END_BACKWARD = 1
_END_TAIL = 2


class PathExtractor:
    """Stateful segmenter turning branch events into path occurrences.

    Parameters
    ----------
    program:
        The program the events were produced from (provides block sizes
        and addresses for signatures and size figures).
    table:
        Path interning table; supply one to share across runs, otherwise a
        fresh table is created and exposed as :attr:`table`.
    max_blocks:
        Maximum number of blocks per path before a forced cut.  Dynamo
        bounds trace length the same way; ``None`` disables the cap.
    """

    def __init__(
        self,
        program: Program,
        table: PathTable | None = None,
        max_blocks: int | None = 256,
    ):
        if max_blocks is not None and max_blocks < 1:
            raise TraceError("max_blocks must be positive or None")
        self._program = program
        self.table = table if table is not None else PathTable()
        self._max_blocks = max_blocks
        # Extraction interns whole segments through this memo:
        # a segment's path (and thus its table id) is a pure function of
        # (start uid, event targets, event kinds, how it ended), so a
        # byte-string key resolves repeated segments without rebuilding
        # Path objects.  See :meth:`PathStream._consume_batch`.
        self._segment_memo: dict[tuple, int] = {}

    def extract_batch_ids(
        self,
        batches: EventBatch | Iterable[EventBatch],
        start_uid: int | None = None,
    ) -> np.ndarray:
        """Path ids for a columnar stream, one entry per occurrence.

        Accepts a single :class:`EventBatch` or an iterable of batches
        forming one stream (events carried across batch boundaries stay
        in their segment).  Segment boundaries come from
        :func:`repro.trace.columnar.find_cuts`; each segment resolves to
        a table id through a byte-string memo, so repeated segments —
        the overwhelmingly common case on loopy programs — cost no
        per-event Python work at all.
        """
        if isinstance(batches, EventBatch):
            batches = (batches,)
        stream = self.stream(start_uid=start_uid)
        ids: list[int] = []
        for batch in batches:
            ids.extend(stream.feed(batch))
        ids.extend(stream.finish())
        return np.asarray(ids, dtype=np.int64)

    def stream(self, start_uid: int | None = None) -> "PathStream":
        """An incremental extraction session over one event stream.

        Where :meth:`extract_batch_ids` consumes a complete stream in
        one call, the returned :class:`PathStream` accepts batches one
        at a time as they arrive — the online form the prediction
        server ingests tenants through.  Feeding every batch and then
        finishing yields exactly the ids :meth:`extract_batch_ids`
        returns for the same stream.
        """
        uid = (
            start_uid
            if start_uid is not None
            else self._program.entry_block.uid
        )
        return PathStream(self, uid)

    def resume_stream(self, state: dict) -> "PathStream":
        """Rebuild a :class:`PathStream` from a :meth:`PathStream.checkpoint`.

        The extractor must share the path table the checkpointed stream
        was interning into (restored tables re-intern paths in their
        original order, so ids keep meaning the same paths).
        """
        stream = PathStream(self, int(state["uid"]))
        stream._expect_src = int(state["expect_src"])
        stream._halted = bool(state["halted"])
        stream._finished = bool(state.get("finished", False))
        if state["carry_dst"]:
            stream._carry_dst = np.asarray(state["carry_dst"], dtype=np.int64)
            stream._carry_kind = np.asarray(
                state["carry_kind"], dtype=np.uint8
            )
            stream._carry_backward = np.asarray(
                state["carry_backward"], dtype=np.uint8
            ).astype(bool)
        return stream

    def _intern_segment(
        self,
        uid: int,
        dst_slice: np.ndarray,
        kind_slice: np.ndarray,
        marker: int,
    ) -> int:
        """Rebuild one segment's Path and intern it.

        Runs once per *distinct* segment (memo misses only); the block
        list, signature bits and indirect targets are reconstructed
        exactly as a signature register shifting per branch builds them.
        """
        program = self._program
        dsts = dst_slice.tolist()
        kinds = kind_slice.tolist()
        # A cut segment's final event belongs to it (its history bit is
        # shifted in) but its target opens the next segment; the tail
        # segment keeps every target.
        block_dsts = dsts if marker == _END_TAIL else dsts[:-1]
        blocks = [uid]
        blocks.extend(block_dsts)
        history = 0
        bit_count = 0
        indirect: list[int] = []
        for dst, code in zip(dsts, kinds):
            if code == CODE_TAKEN:
                history = (history << 1) | 1
                bit_count += 1
            elif code == CODE_FALLTHROUGH:
                history <<= 1
                bit_count += 1
            elif code == CODE_INDIRECT and dst != HALT_DST:
                indirect.append(program.block_by_uid(dst).address)
        signature = PathSignature(
            start_address=program.block_by_uid(uid).address,
            history=history,
            bit_count=bit_count,
            indirect_targets=tuple(indirect),
        )
        path = self._make_path(blocks, signature, marker == _END_BACKWARD)
        return self.table.intern(path)

    def _make_path(
        self,
        blocks: list[int],
        signature: PathSignature,
        ends_backward: bool,
    ) -> Path:
        program = self._program
        num_instructions = 0
        num_cond = signature.bit_count
        num_indirect = len(signature.indirect_targets)
        for uid in blocks:
            num_instructions += program.block_by_uid(uid).size
        return Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=blocks[0],
            num_instructions=num_instructions,
            num_cond_branches=num_cond,
            num_indirect_branches=num_indirect,
            ends_with_backward_branch=ends_backward,
        )


class PathStream:
    """One live event stream being segmented incrementally.

    Created by :meth:`PathExtractor.stream`.  :meth:`feed` consumes one
    columnar batch and returns the ids of the segments that *completed*
    inside it; events after the last cut stay buffered as the open
    segment until a later batch (or :meth:`finish`) closes them.
    :meth:`finish` ends the stream, emitting the final unterminated
    segment exactly as :meth:`PathExtractor.extract_batch_ids` does.

    The stream shares its extractor's path table and segment memo, so
    ids are directly comparable with any other extraction over the same
    extractor, and repeated segments cost no per-event Python work.
    """

    __slots__ = (
        "_extractor",
        "_uid",
        "_expect_src",
        "_halted",
        "_finished",
        "_carry_dst",
        "_carry_kind",
        "_carry_backward",
    )

    def __init__(self, extractor: PathExtractor, uid: int):
        self._extractor = extractor
        self._uid = uid  # start uid of the open segment
        self._expect_src = uid  # src the next event must carry
        self._halted = False
        self._finished = False
        # The open segment's events so far, carried between batches.
        self._carry_dst: np.ndarray | None = None
        self._carry_kind: np.ndarray | None = None
        self._carry_backward: np.ndarray | None = None

    @property
    def halted(self) -> bool:
        """Whether the stream saw a halt event (further feeds are no-ops)."""
        return self._halted

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    @property
    def position(self) -> int:
        """The block uid the stream is at: the src the next event must
        carry.  A new stream over the same program can resume here
        (``PathExtractor.stream(start_uid=position)``) after the open
        segment's buffered events are discarded — how the serving layer
        re-admits an evicted tenant mid-stream."""
        return self._expect_src

    def feed(self, batch: EventBatch) -> list[int]:
        """Consume one batch; return ids of segments it completed."""
        if self._finished:
            raise TraceError("cannot feed a finished path stream")
        if self._halted or len(batch) == 0:
            # The stream ends at halt; events past it are ignored, not
            # validated.
            return []
        return self._consume_batch(batch)

    def finish(self) -> list[int]:
        """End the stream; return ids the final flush completed."""
        if self._finished:
            raise TraceError("path stream already finished")
        self._finished = True
        if self._halted:
            return []
        return [self._flush_tail()]

    def _consume_batch(self, batch: EventBatch) -> list[int]:
        src = batch.src
        dst = batch.dst
        kind = batch.kind
        backward = batch.backward

        # Truncate at the first halt: the stream ends there, and events
        # beyond it are never even validated.
        halts = np.flatnonzero(dst == HALT_DST)
        if halts.size:
            end = int(halts[0]) + 1
            src = src[:end]
            dst = dst[:end]
            kind = kind[:end]
            backward = backward[:end]
            self._halted = True

        # Continuity validation: every event's src must be the previous
        # event's dst (the first continuing from the open segment).
        if int(src[0]) != self._expect_src:
            raise TraceError(
                f"event source {int(src[0])} does not match current "
                f"block {self._expect_src}"
            )
        if len(src) > 1:
            mismatch = np.flatnonzero(src[1:] != dst[:-1])
            if mismatch.size:
                at = int(mismatch[0])
                raise TraceError(
                    f"event source {int(src[at + 1])} does not match "
                    f"current block {int(dst[at])}"
                )
        self._expect_src = int(dst[-1])

        # Prepend the open segment's carried events (bounded by
        # max_blocks: a length cut fires before the carry can grow past
        # it) so cuts are found with full segment context.
        if self._carry_dst is not None:
            dst = np.concatenate((self._carry_dst, dst))
            kind = np.concatenate((self._carry_kind, kind))
            backward = np.concatenate((self._carry_backward, backward))
        self._carry_dst = None
        self._carry_kind = None
        self._carry_backward = None

        extractor = self._extractor
        cuts = find_cuts(dst, kind, backward, extractor._max_blocks)

        prev = -1
        uid = self._uid
        memo = extractor._segment_memo
        intern = extractor._intern_segment
        ids: list[int] = []
        for cut in cuts.tolist():
            begin = prev + 1
            dst_slice = dst[begin : cut + 1]
            kind_slice = kind[begin : cut + 1]
            marker = _END_BACKWARD if backward[cut] else _END_FORWARD
            key = (uid, dst_slice.tobytes(), kind_slice.tobytes(), marker)
            path_id = memo.get(key)
            if path_id is None:
                path_id = intern(uid, dst_slice, kind_slice, marker)
                memo[key] = path_id
            ids.append(path_id)
            prev = cut
            uid = int(dst[cut])

        self._uid = uid
        begin = prev + 1
        if not self._halted and begin < len(dst):
            # Events after the last cut stay buffered as the open
            # segment (copied: the slices would pin the whole batch).
            self._carry_dst = dst[begin:].copy()
            self._carry_kind = kind[begin:].copy()
            self._carry_backward = backward[begin:].copy()
        return ids

    def _flush_tail(self) -> int:
        """Id of the final, unterminated segment (every stream has one)."""
        if self._carry_dst is None:
            dst_slice = np.empty(0, dtype=np.int64)
            kind_slice = np.empty(0, dtype=np.uint8)
        else:
            dst_slice = self._carry_dst
            kind_slice = self._carry_kind
        key = (self._uid, dst_slice.tobytes(), kind_slice.tobytes(), _END_TAIL)
        extractor = self._extractor
        path_id = extractor._segment_memo.get(key)
        if path_id is None:
            path_id = extractor._intern_segment(
                self._uid, dst_slice, kind_slice, _END_TAIL
            )
            extractor._segment_memo[key] = path_id
        return path_id

    # ------------------------------------------------------------------
    # Durable state (serving checkpoints)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """The stream's state as plain JSON-able data.

        Captures everything :meth:`feed` carries between batches: the
        open segment's start uid, the continuity expectation, the halt
        flag and the buffered (carried) open-segment columns.
        :meth:`PathExtractor.resume_stream` is the inverse; a resumed
        stream continues the event stream byte-identically (same cuts,
        same interned paths, same ids).
        """
        carry = self._carry_dst is not None
        return {
            "uid": int(self._uid),
            "expect_src": int(self._expect_src),
            "halted": bool(self._halted),
            "finished": self._finished,
            "carry_dst": self._carry_dst.tolist() if carry else [],
            "carry_kind": self._carry_kind.tolist() if carry else [],
            "carry_backward": (
                self._carry_backward.astype(np.uint8).tolist()
                if carry
                else []
            ),
        }
