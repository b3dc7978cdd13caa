"""Program paths and their bit-tracing signatures.

The paper identifies a path by the signature
``<start_address>.<history>,<indirect_branch_target_list>`` — the start
address, one bit per conditional branch outcome, and the target address of
every indirect branch on the path (§2, Figure 1).  Signatures are the
canonical identity of a path here as well: two executions are the same
path exactly when their signatures are equal.

:class:`Path` additionally carries the resolved block sequence and the
static size figures (instructions, conditional branches, indirect
branches) that the profiling overhead and Dynamo cost models consume.

:class:`PathTable` stores its rows as columns (:class:`PathColumns`), so
a workload surrogate can append tens of thousands of paths in one
vectorized step and the per-path arrays and the trace digest read them
without touching a :class:`Path` object; a row becomes a :class:`Path`
only when someone asks for it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import TraceError


@dataclass(frozen=True, slots=True)
class PathSignature:
    """Bit-tracing identity of a path.

    ``history`` packs the branch outcome bits into an integer, most recent
    bit in the least-significant position exactly as a shift register would
    build it; ``bit_count`` disambiguates leading zeros.
    """

    start_address: int
    history: int
    bit_count: int
    indirect_targets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.bit_count < 0:
            raise TraceError("bit_count must be non-negative")
        if not 0 <= self.history < (1 << self.bit_count):
            raise TraceError(
                f"history {self.history:#x} does not fit in "
                f"{self.bit_count} bits"
            )

    @property
    def bits(self) -> str:
        """The outcome bits as a string, oldest branch first."""
        if self.bit_count == 0:
            return ""
        return format(self.history, f"0{self.bit_count}b")

    def render(self) -> str:
        """Human-readable form: ``<start>.<history>,<indirect targets>``."""
        text = f"{self.start_address}.{self.bits or '-'}"
        if self.indirect_targets:
            targets = ",".join(str(t) for t in self.indirect_targets)
            text += f",[{targets}]"
        return text

    @staticmethod
    def from_bits(
        start_address: int,
        bits: str,
        indirect_targets: tuple[int, ...] = (),
    ) -> "PathSignature":
        """Build a signature from a ``"0101"``-style bit string."""
        history = int(bits, 2) if bits else 0
        return PathSignature(
            start_address=start_address,
            history=history,
            bit_count=len(bits),
            indirect_targets=indirect_targets,
        )


@dataclass(frozen=True, slots=True)
class Path:
    """A fully-resolved program path.

    Attributes
    ----------
    signature:
        Bit-tracing identity.
    blocks:
        Uids of the blocks on the path, in execution order.
    start_uid:
        Uid of the first block — the path *head* in NET terminology.
    num_instructions / num_cond_branches / num_indirect_branches:
        Static size figures used by the overhead and Dynamo cost models.
    ends_with_backward_branch:
        True when the path terminated at a backward taken branch (the
        common, loop-closing case) rather than at a return or the halt.
    """

    signature: PathSignature
    blocks: tuple[int, ...]
    start_uid: int
    num_instructions: int
    num_cond_branches: int
    num_indirect_branches: int
    ends_with_backward_branch: bool = True

    def __post_init__(self) -> None:
        if not self.blocks:
            raise TraceError("a path must contain at least one block")
        if self.blocks[0] != self.start_uid:
            raise TraceError("start_uid must match the first block")

    @property
    def num_blocks(self) -> int:
        """Number of blocks on the path."""
        return len(self.blocks)

    @property
    def head(self) -> int:
        """Alias for :attr:`start_uid` (NET terminology)."""
        return self.start_uid

    @property
    def tail(self) -> tuple[int, ...]:
        """The path minus its head block (NET terminology)."""
        return self.blocks[1:]

    def describe(self) -> str:
        """Compact human-readable rendering."""
        return (
            f"Path[{self.signature.render()}] "
            f"blocks={len(self.blocks)} instr={self.num_instructions}"
        )




def _history_column(histories) -> np.ndarray:
    """``int64`` histories, or Python ints when one exceeds ``int64``."""
    try:
        return np.asarray(histories, dtype=np.int64)
    except OverflowError:
        return np.array([int(h) for h in histories], dtype=object)


def _offsets(lengths) -> np.ndarray:
    """``n + 1`` cut points of a flat array holding ``n`` ragged rows."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False)
class PathColumns:
    """Consecutive :class:`PathTable` rows, one array per field.

    Every fixed-width field has one entry per row.  The ragged fields
    are flat arrays cut by ``n + 1`` offsets: row ``i``'s blocks are
    ``blocks[block_offsets[i]:block_offsets[i + 1]]`` and likewise its
    indirect targets.  ``history`` is ``int64`` unless some history
    does not fit (long extracted paths can exceed 64 bits); then it is
    an ``object`` column of Python ints.

    Construction coerces every column and freezes it in place — the
    columns own the arrays they are given, and share them with every
    trace over the table — then makes the checks
    :class:`PathSignature` and :class:`Path` make, raising
    :class:`~repro.errors.TraceError` on the first bad row.
    """

    start_address: np.ndarray
    history: np.ndarray
    bit_count: np.ndarray
    start_uid: np.ndarray
    num_instructions: np.ndarray
    num_cond_branches: np.ndarray
    num_indirect_branches: np.ndarray
    ends_backward: np.ndarray
    block_offsets: np.ndarray
    blocks: np.ndarray
    target_offsets: np.ndarray
    indirect_targets: np.ndarray

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "history":
                column = (
                    value
                    if isinstance(value, np.ndarray) and value.dtype == object
                    else _history_column(value)
                )
            elif field.name == "ends_backward":
                column = np.asarray(value, dtype=bool)
            else:
                column = np.asarray(value, dtype=np.int64)
            if column.ndim != 1:
                raise TraceError(f"path column {field.name} must be 1-D")
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)
        self._validate()

    def _validate(self) -> None:
        rows = len(self.start_uid)
        for field in fields(self):
            if field.name in ("blocks", "indirect_targets"):
                continue
            expected = rows + 1 if field.name.endswith("_offsets") else rows
            entries = len(getattr(self, field.name))
            if entries != expected:
                raise TraceError(
                    f"path column {field.name} has {entries} entries, "
                    f"expected {expected}"
                )
        for offsets, flat in (
            (self.block_offsets, self.blocks),
            (self.target_offsets, self.indirect_targets),
        ):
            if (
                offsets[0] != 0
                or offsets[-1] != len(flat)
                or (np.diff(offsets) < 0).any()
            ):
                raise TraceError("path column offsets do not cut their array")

        def first(bad: np.ndarray) -> int | None:
            rows_bad = np.flatnonzero(bad)
            return int(rows_bad[0]) if len(rows_bad) else None

        row = first(self.bit_count < 0)
        if row is not None:
            raise TraceError(f"row {row}: bit_count must be non-negative")
        history, bit_count = self.history, self.bit_count
        if history.dtype == object:
            fits = np.array(
                [
                    0 <= h < (1 << b)
                    for h, b in zip(history.tolist(), bit_count.tolist())
                ],
                dtype=bool,
            )
        else:
            # Below 63 bits the bound fits int64; at 63 or more every
            # non-negative int64 fits.
            bound = np.left_shift(1, np.minimum(bit_count, 62))
            fits = (history >= 0) & ((bit_count >= 63) | (history < bound))
        row = first(~fits)
        if row is not None:
            raise TraceError(
                f"row {row}: history {int(history[row]):#x} does not fit "
                f"in {int(bit_count[row])} bits"
            )
        row = first(np.diff(self.block_offsets) < 1)
        if row is not None:
            raise TraceError(
                f"row {row}: a path must contain at least one block"
            )
        if rows:
            heads = self.blocks[self.block_offsets[:-1]]
            row = first(heads != self.start_uid)
            if row is not None:
                raise TraceError(
                    f"row {row}: start_uid must match the first block"
                )

    def __len__(self) -> int:
        return len(self.start_uid)

    @property
    def num_blocks(self) -> np.ndarray:
        """Block count per row."""
        return np.diff(self.block_offsets)

    @property
    def num_targets(self) -> np.ndarray:
        """Indirect-target count per row (signature length, not branches)."""
        return np.diff(self.target_offsets)

    @classmethod
    def from_paths(cls, paths: list[Path]) -> "PathColumns":
        """Columns of ``paths``, in order."""
        signatures = [path.signature for path in paths]
        blocks = [path.blocks for path in paths]
        targets = [signature.indirect_targets for signature in signatures]
        block_offsets = _offsets([len(row) for row in blocks])
        target_offsets = _offsets([len(row) for row in targets])
        return cls(
            start_address=[s.start_address for s in signatures],
            history=_history_column([s.history for s in signatures]),
            bit_count=[s.bit_count for s in signatures],
            start_uid=[path.start_uid for path in paths],
            num_instructions=[path.num_instructions for path in paths],
            num_cond_branches=[path.num_cond_branches for path in paths],
            num_indirect_branches=[
                path.num_indirect_branches for path in paths
            ],
            ends_backward=[path.ends_with_backward_branch for path in paths],
            block_offsets=block_offsets,
            blocks=np.fromiter(
                itertools.chain.from_iterable(blocks),
                dtype=np.int64,
                count=int(block_offsets[-1]),
            ),
            target_offsets=target_offsets,
            indirect_targets=np.fromiter(
                itertools.chain.from_iterable(targets),
                dtype=np.int64,
                count=int(target_offsets[-1]),
            ),
        )

    @classmethod
    def concat(cls, parts: list["PathColumns"]) -> "PathColumns":
        """The rows of ``parts``, one after another."""
        parts = [part for part in parts if len(part)]
        if len(parts) <= 1:
            return parts[0] if parts else cls.from_paths([])
        # An int64 history column joined with an object one is object.
        joined = {
            field.name: np.concatenate(
                [getattr(part, field.name) for part in parts]
            )
            for field in fields(cls)
            if not field.name.endswith("_offsets")
        }
        for offsets in ("block_offsets", "target_offsets"):
            joined[offsets] = _offsets(
                np.concatenate(
                    [np.diff(getattr(part, offsets)) for part in parts]
                )
            )
        return cls(**joined)

    def paths(self, start: int, stop: int) -> list[Path]:
        """Rows ``start:stop`` as :class:`Path` objects."""
        block_cuts = self.block_offsets[start : stop + 1].tolist()
        target_cuts = self.target_offsets[start : stop + 1].tolist()
        blocks = self.blocks[block_cuts[0] : block_cuts[-1]].tolist()
        targets = self.indirect_targets[
            target_cuts[0] : target_cuts[-1]
        ].tolist()
        block_ends = [cut - block_cuts[0] for cut in block_cuts]
        target_ends = [cut - target_cuts[0] for cut in target_cuts]
        rows = zip(
            self.start_address[start:stop].tolist(),
            self.history[start:stop].tolist(),
            self.bit_count[start:stop].tolist(),
            self.start_uid[start:stop].tolist(),
            self.num_instructions[start:stop].tolist(),
            self.num_cond_branches[start:stop].tolist(),
            self.num_indirect_branches[start:stop].tolist(),
            self.ends_backward[start:stop].tolist(),
            zip(block_ends, block_ends[1:]),
            zip(target_ends, target_ends[1:]),
        )
        return [
            Path(
                signature=PathSignature(
                    start_address=address,
                    history=history,
                    bit_count=bits,
                    indirect_targets=tuple(targets[t_lo:t_hi]),
                ),
                blocks=tuple(blocks[b_lo:b_hi]),
                start_uid=uid,
                num_instructions=instructions,
                num_cond_branches=cond,
                num_indirect_branches=indirect,
                ends_with_backward_branch=backward,
            )
            for (
                address,
                history,
                bits,
                uid,
                instructions,
                cond,
                indirect,
                backward,
                (b_lo, b_hi),
                (t_lo, t_hi),
            ) in rows
        ]


#: The columns of a table with no column rows yet.
_NO_ROWS = PathColumns.from_paths([])


class PathTable:
    """Interning table assigning dense integer ids to paths.

    The table is the shared vocabulary between the extractor, the
    profilers, the predictors and the metrics: every occurrence stream
    speaks in table ids.

    Rows arrive two ways.  :meth:`intern` adds one :class:`Path`
    (deduplicated by signature) and keeps that object.
    :meth:`append_unique` adds a whole :class:`PathColumns` block whose
    signatures the caller guarantees are new and distinct — a workload
    surrogate's path space — without building a single :class:`Path`.
    :meth:`columns` gives every row as columns; :meth:`path` builds a
    column row's :class:`Path` on first access and keeps it, so repeated
    lookups return the same object.  The signature index covers column
    rows too: it is extended on the first :meth:`lookup` or
    :meth:`intern` after an :meth:`append_unique`.
    """

    def __init__(self) -> None:
        #: Row objects; ``None`` marks a column row not yet materialized.
        self._paths: list[Path | None] = []
        self._ids: dict[PathSignature, int] = {}
        #: Column rows from ``_indexed`` on are missing from ``_ids``
        #: while ``_index_stale`` is set (interned rows are indexed as
        #: they arrive).
        self._indexed = 0
        self._index_stale = False
        #: Columns of rows ``[0, len(_columns))``; rows interned after
        #: them join on the next :meth:`columns` or :meth:`append_unique`.
        self._columns = _NO_ROWS
        self._lock = threading.Lock()

    def intern(self, path: Path) -> int:
        """Return the id for ``path``, registering it if new."""
        if self._index_stale:
            self._index()
        existing = self._ids.get(path.signature)
        if existing is not None:
            return existing
        path_id = len(self._paths)
        self._paths.append(path)
        self._ids[path.signature] = path_id
        return path_id

    def append_unique(self, columns: PathColumns) -> range:
        """Append ``columns`` as new rows; returns their ids.

        The rows' signatures must be pairwise distinct and absent from
        the table (true by construction for a surrogate's fresh path
        space); the index check that would catch a violation runs when
        the index is next extended.
        """
        with self._lock:
            first = len(self._paths)
            if not self._index_stale:
                self._indexed = first
            self._columns = PathColumns.concat([self._caught_up(), columns])
            self._paths.extend([None] * len(columns))
            self._index_stale = bool(len(columns)) or self._index_stale
        return range(first, first + len(columns))

    def lookup(self, signature: PathSignature) -> int | None:
        """Id of the path with ``signature``, or ``None`` if unseen."""
        if self._index_stale:
            self._index()
        return self._ids.get(signature)

    def path(self, path_id: int) -> Path:
        """The path registered under ``path_id``."""
        try:
            path = self._paths[path_id]
        except IndexError:
            raise TraceError(f"no path with id {path_id}") from None
        if path is None:
            if path_id < 0:
                path_id += len(self._paths)
            path = self._columns.paths(path_id, path_id + 1)[0]
            self._paths[path_id] = path
        return path

    def columns(self) -> PathColumns:
        """Every row as columns, in id order (rebuilt only after growth)."""
        with self._lock:
            return self._caught_up()

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self):
        with self._lock:
            self._materialize(0, len(self._paths))
        return iter(self._paths)

    def paths(self) -> list[Path]:
        """All registered paths in id order."""
        return list(self)

    # ------------------------------------------------------------------
    def _caught_up(self) -> PathColumns:
        """The columns, extended by any rows interned since (locked)."""
        covered = len(self._columns)
        if covered < len(self._paths):
            self._columns = PathColumns.concat(
                [self._columns, PathColumns.from_paths(self._paths[covered:])]
            )
        return self._columns

    def _materialize(self, start: int, stop: int) -> None:
        """Build the missing :class:`Path` objects of rows ``start:stop``."""
        stop = min(stop, len(self._columns))
        if start < stop and None in self._paths[start:stop]:
            built = self._columns.paths(start, stop)
            for path_id, path in enumerate(built, start):
                if self._paths[path_id] is None:
                    self._paths[path_id] = path

    def _index(self) -> None:
        with self._lock:
            if not self._index_stale:
                return
            stop = len(self._paths)
            self._materialize(self._indexed, stop)
            for path_id in range(self._indexed, stop):
                signature = self._paths[path_id].signature
                if self._ids.setdefault(signature, path_id) != path_id:
                    raise TraceError(
                        f"path {path_id} repeats the signature of path "
                        f"{self._ids[signature]}"
                    )
            self._indexed = stop
            self._index_stale = False
