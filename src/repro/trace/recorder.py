"""Materialized path traces.

:class:`PathTrace` is the central exchange format of the library: a dense
sequence of path ids plus the interning table behind them.  Everything
downstream — profilers, predictors, metrics, the Dynamo simulator — runs
over path traces, whether they came from a real execution (CFG walker or
ISA machine, through the extractor) or straight from a workload's
stochastic path model.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.cfg.program import Program
from repro.errors import TraceError
from repro.trace.batch import EventBatch
from repro.trace.extractor import PathExtractor
from repro.trace.path import PathTable


class PathTrace:
    """A recorded execution as a sequence of path occurrences.

    Attributes
    ----------
    table:
        The :class:`PathTable` mapping ids to paths.
    path_ids:
        ``int64`` array, one entry per path occurrence, in execution
        order.  ``len(path_ids)`` is the total *flow* of the trace (the
        paper's ``Flow``).
    name:
        Optional label (the workload/benchmark name) used in reports.
    """

    def __init__(
        self,
        table: PathTable,
        path_ids: np.ndarray | Iterable[int],
        name: str = "trace",
    ):
        self.table = table
        self.path_ids = np.asarray(path_ids, dtype=np.int64)
        self.name = name
        if self.path_ids.ndim != 1:
            raise TraceError("path_ids must be one-dimensional")
        if len(self.path_ids) and (
            self.path_ids.min() < 0 or self.path_ids.max() >= len(table)
        ):
            raise TraceError("path_ids reference paths outside the table")
        # The occurrence array is content: the engine's trace_digest is
        # memoized per trace object, so mutating it in place would
        # silently re-serve a stale digest (and poison the sweep cache).
        # Everything downstream only reads the array.
        self.path_ids.flags.writeable = False
        self._cache: dict[str, np.ndarray | tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def flow(self) -> int:
        """Total number of path executions (the paper's ``Flow``)."""
        return int(len(self.path_ids))

    @property
    def num_paths(self) -> int:
        """Number of distinct paths registered in the table."""
        return len(self.table)

    def freqs(self) -> np.ndarray:
        """Per-path execution frequency ``freq(p)``, indexed by path id."""
        return self.cached(
            "freqs",
            lambda: np.bincount(self.path_ids, minlength=len(self.table)),
        )

    # ------------------------------------------------------------------
    # Per-path static attribute arrays (indexed by path id)
    # ------------------------------------------------------------------
    def _per_path(self, key: str, column) -> np.ndarray:
        """One of the table's columns, as it stands on first use."""
        return self.cached(key, lambda: column(self.table.columns()))

    def start_uids(self) -> np.ndarray:
        """Head block uid per path id."""
        return self._per_path("start_uids", lambda c: c.start_uid)

    def instructions_per_path(self) -> np.ndarray:
        """Instruction count per path id (Dynamo cost model input)."""
        return self._per_path("instr", lambda c: c.num_instructions)

    def cond_branches_per_path(self) -> np.ndarray:
        """Conditional branch count per path id (bit-tracing cost input)."""
        return self._per_path("cond", lambda c: c.num_cond_branches)

    def indirect_branches_per_path(self) -> np.ndarray:
        """Indirect branch count per path id."""
        return self._per_path("indirect", lambda c: c.num_indirect_branches)

    def blocks_per_path(self) -> np.ndarray:
        """Block count per path id."""
        return self._per_path("blocks", lambda c: c.num_blocks)

    def ends_backward_per_path(self) -> np.ndarray:
        """Whether each path id ends with a backward taken branch."""
        return self._per_path("ends_backward", lambda c: c.ends_backward)

    # ------------------------------------------------------------------
    # Derived sequences (one entry per occurrence)
    # ------------------------------------------------------------------
    def head_sequence(self) -> np.ndarray:
        """Head block uid of every occurrence, in execution order."""
        return self.start_uids()[self.path_ids]

    def backward_arrival_mask(self) -> np.ndarray:
        """Whether each occurrence was *entered via* a backward taken branch.

        Occurrence ``i`` arrives via a backward branch exactly when
        occurrence ``i-1``'s path ended with one.  The first occurrence is
        reached from the program entry, not a branch.  This is the precise
        condition under which Dynamo's NET implementation bumps the head
        counter.
        """

        def build() -> np.ndarray:
            ends = self.ends_backward_per_path()[self.path_ids]
            mask = np.empty(len(self.path_ids), dtype=bool)
            if len(mask):
                mask[0] = False
                mask[1:] = ends[:-1]
            return mask

        return self.cached("backward_arrival", build)

    def dynamic_head_uids(self) -> set[int]:
        """Distinct targets of backward taken branches observed in the trace.

        This is the paper's "#Unique Path Heads" (Table 2): the number of
        counters the NET scheme allocates during the run.
        """
        heads = self.head_sequence()[self.backward_arrival_mask()]
        return set(int(uid) for uid in np.unique(heads))

    def occurrence_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Occurrence indices grouped by path id (cached).

        Returns ``(order, starts)`` exactly as
        :func:`repro.prediction.base.occurrence_index_arrays` does:
        ``order`` is a stable argsort of :attr:`path_ids` and
        ``order[starts[i]:starts[i+1]]`` lists path ``i``'s occurrence
        indices in execution order.  The grouping is a pure function of
        the trace, so it is computed once and shared by every predictor
        replaying this trace — the sweep engine's per-cell argsort used
        to be one of its hottest redundant computations.
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            order = np.argsort(self.path_ids, kind="stable")
            starts = np.searchsorted(
                self.path_ids[order],
                np.arange(len(self.table) + 1),
                side="left",
            )
            return order, starts

        return self.cached("occurrence_index", build)

    def head_arrivals(
        self, backward_only: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counted arrivals at each head, running and total (cached).

        An occurrence's arrival at its head is *counted* when it came
        via a backward taken branch (``backward_only``, the rule of
        Dynamo's NET head counters) or, otherwise, always.  Returns
        ``(running, per_head)``: ``running[i]`` is the number of counted
        arrivals at occurrence ``i``'s head among occurrences ``0..i``,
        and ``per_head`` lists the total counted arrivals of every head
        that has any, in head-uid order.  Both are independent of the
        prediction delay: a NET head is hot at occurrence ``i`` under
        delay τ exactly when ``running[i] > τ``, so every NET cell over
        this trace shares one computation.
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            head_seq = self.head_sequence()
            n = len(head_seq)
            if backward_only:
                counted = self.backward_arrival_mask()
            else:
                counted = np.ones(n, dtype=bool)
            # Group occurrences by head, keeping execution order within
            # a head; a running count is then a cumulative sum minus the
            # count before the head's group starts.
            order = np.argsort(head_seq, kind="stable")
            sorted_heads = head_seq[order]
            counted_sorted = counted[order]
            cumulative = np.cumsum(counted_sorted, dtype=np.int64)
            group_start = np.ones(n, dtype=bool)
            np.not_equal(
                sorted_heads[1:], sorted_heads[:-1], out=group_start[1:]
            )
            starts = np.flatnonzero(group_start)
            before = cumulative[starts] - counted_sorted[starts]
            running = np.empty(n, dtype=np.int64)
            running[order] = cumulative - before[np.cumsum(group_start) - 1]
            totals = np.diff(np.append(before, cumulative[-1:]))
            return running, totals[totals > 0]

        mode = "backward" if backward_only else "all"
        return self.cached(f"head_arrivals_{mode}", build)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "PathTrace":
        """A sub-trace sharing the table (used by phase experiments)."""
        return PathTrace(
            self.table, self.path_ids[start:stop], name=f"{self.name}[{start}:{stop}]"
        )

    def concat(self, other: "PathTrace") -> "PathTrace":
        """Concatenate two traces that share one table."""
        if other.table is not self.table:
            raise TraceError("can only concatenate traces sharing a table")
        return PathTrace(
            self.table,
            np.concatenate([self.path_ids, other.path_ids]),
            name=f"{self.name}+{other.name}",
        )

    def cached(self, key: str, builder):
        """``builder()``, computed once per trace and kept under ``key``.

        For values that are a pure function of the trace's content,
        such as per-path or per-occurrence arrays every predictor
        replaying the trace shares.  A value made of several arrays is
        stored as one tuple under one key, so a reader on another
        thread sees all of it or none of it: the sweep's thread pool
        replays one trace from several threads at once.
        """
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def __len__(self) -> int:
        return self.flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathTrace({self.name!r}, flow={self.flow}, "
            f"paths={self.num_paths})"
        )


def record_path_trace(
    program: Program,
    events: EventBatch | Iterable[EventBatch],
    name: str = "trace",
    table: PathTable | None = None,
    max_blocks: int | None = 256,
) -> PathTrace:
    """Run the extractor over ``events`` and materialize a path trace.

    ``events`` is one :class:`~repro.trace.batch.EventBatch` or an
    iterable of batches forming one stream (e.g. the output of
    ``CFGWalker.walk_batched``); any chunking of a stream gives the
    same trace.
    """
    extractor = PathExtractor(program, table=table, max_blocks=max_blocks)
    ids = extractor.extract_batch_ids(events)
    return PathTrace(extractor.table, ids, name=name)
