"""Bit tracing: on-the-fly path signatures (paper §2).

A path is identified by ``<start_address>.<history>,<indirect targets>``.
In the paper's scheme a signature register shifts in one bit per
conditional branch outcome, appends indirect branch targets, and on
reaching a path end uses the signature as a hash-table key to bump the
path's counter.  No preparatory static analysis is needed — the
advantage over Ball–Larus numbering the paper highlights — at the price
of per-branch shift operations on *every* branch.

That signature is exactly the identity :class:`~repro.trace.path.PathTable`
interns paths by, so the simulation counts the path occurrences of a
:class:`~repro.trace.extractor.PathStream` by their signatures: the
register's content at each path end is the completed path's signature,
and the shifts it took are the path's conditional plus indirect branch
counts, charged once per occurrence.
"""

from __future__ import annotations

import numpy as np

from repro.cfg.program import Program
from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.counters import CounterTable
from repro.trace.batch import EventBatch
from repro.trace.extractor import PathExtractor, PathStream


class BitTracingProfiler(Profiler):
    """Online path profiling via signature registers.

    Parameters
    ----------
    program:
        Supplies block addresses for the signatures.
    max_blocks:
        Path-length cap, matching the extractor's.
    """

    name = "bit-tracing"

    def __init__(self, program: Program, max_blocks: int | None = 256):
        self._extractor = PathExtractor(program, max_blocks=max_blocks)
        # Opened at the first non-empty batch, from that batch's source.
        self._stream: PathStream | None = None
        self._counters = CounterTable("paths")
        self._shift_ops = 0

    def observe_batch(self, batch: EventBatch) -> None:
        """Segment the batch and bump each completed path's signature.

        Events after a halt are ignored (the trace has ended).
        """
        if self._stream is None:
            if len(batch) == 0:
                return
            self._stream = self._extractor.stream(start_uid=int(batch.src[0]))
        self._count(self._stream.feed(batch))

    def _count(self, path_ids: list[int]) -> None:
        """Bump each occurring path's signature, charge its shifts.

        The private table interns paths in order of first occurrence,
        so bumping the distinct ids in id order with their counts
        builds the counters one bump per occurrence would.
        """
        if not path_ids:
            return
        counts = np.bincount(path_ids)
        seen = np.flatnonzero(counts).tolist()
        amounts = counts[seen].tolist()
        paths = [self._extractor.table.path(path_id) for path_id in seen]
        self._counters.bump_many([path.signature for path in paths], amounts)
        self._shift_ops += sum(
            [
                (path.num_cond_branches + path.num_indirect_branches) * amount
                for path, amount in zip(paths, amounts)
            ]
        )

    def report(self) -> ProfileReport:
        stream = self._stream
        if stream is not None and not stream.finished:
            # Flush the path in flight when the stream ended.
            self._count(stream.finish())
        return self._report(self._counters, self._shift_ops)
