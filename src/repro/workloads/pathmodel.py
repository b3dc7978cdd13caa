"""Synthetic path construction for workload surrogates.

The abstract experiments of the paper depend only on the *path sequence
statistics* of a run — how many distinct paths exist, how they share
heads, how skewed their frequencies are — not on the instructions behind
them.  :class:`PathLayout` builds families of paths with consistent
geometry (unique block uids and addresses per loop, plausible per-path
block/instruction counts, distinct bit-tracing signatures) so that every
downstream consumer (predictors, metrics, overhead models, the Dynamo
simulator) sees exactly what it would see from an extracted trace.

Block-uid and address ranges are allocated per loop so that heads are
genuine "targets of backward taken branches" in the address sense: every
synthetic path ends with a backward taken branch to the head of the next
executing path, which is how the loop-structured programs the paper
studies behave.

Generation runs in two passes.  Regions first *register* their loops
(:meth:`PathLayout.add_loop`: a few integers and the loop's block
counts), which fixes every path id.  :meth:`PathLayout.columns` then
builds every path of the workload at once, as the columns of a
:class:`~repro.trace.path.PathTable`: a surrogate's path space runs to
tens of thousands of paths, and no :class:`~repro.trace.path.Path`
object is made for any of them unless a consumer asks.

A loop owns a head block plus a reserved range of body blocks and has
two kinds of path, both starting at the head and ending with a
backward branch:

* *tail* variant ``v`` with ``b`` blocks visits
  ``head, first + (v + i) mod 2b`` for ``i < b - 1`` (``first`` is the
  loop's first body uid); its branch history is ``v``, over
  ``max(b - 1, bit_length(v), 1)`` bits, with ``max(b - 1, 1)``
  conditional branches;
* the *exit* path (the loop test falling through into the next loop's
  latch) visits ``head, first`` and has an all-ones history one bit
  longer than any tail uses, with one conditional branch.

Distinct variants have distinct histories and distinct loops distinct
start addresses, so every signature of a layout is unique by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.trace.path import PathColumns

#: Address stride between consecutive synthetic blocks.
_BLOCK_SPACING = 4

#: Signature of every exit path: all-ones history, longer than any tail.
_EXIT_BITS = 62
_EXIT_HISTORY = (1 << _EXIT_BITS) - 1

#: Blocks on an exit path (the head plus the first body block).
_EXIT_BLOCKS = 2


class PathLayout:
    """The loops of one workload, and the path columns they make."""

    def __init__(self) -> None:
        self._block_counts: list = []
        self._first_variant: list[int] = []
        self._reserved: list[int] = []
        self._has_exit: list[bool] = []
        self._instructions: list[int] = []
        self._cdfs: dict[tuple[int, float], np.ndarray] = {}
        #: Paths registered so far (the next loop's first path id).
        self.num_paths = 0

    def add_loop(
        self,
        block_counts,
        first_variant: int,
        instructions_per_block: int,
        exit_path: bool = True,
        reserved_blocks: int | None = None,
    ) -> int:
        """Register one loop; returns the id of its first tail.

        The loop has one tail per entry of ``block_counts`` (that many
        blocks each), variants ``first_variant, first_variant + 1, …``,
        then its exit path if ``exit_path``; they get consecutive ids.
        The loop reserves ``reserved_blocks`` body blocks, by default
        twice its longest tail.
        """
        first = self.num_paths
        self._block_counts.append(block_counts)
        self._first_variant.append(first_variant)
        self._reserved.append(
            -1 if reserved_blocks is None else reserved_blocks
        )
        self._has_exit.append(exit_path)
        self._instructions.append(instructions_per_block)
        self.num_paths += len(block_counts) + exit_path
        return first

    def tail_cdf(self, count: int, skew: float) -> np.ndarray:
        """Normalized cumulative :func:`zipf_probabilities`, one per shape.

        ``cdf.searchsorted(rng.random(n), side="right")`` draws exactly
        the indices ``rng.choice(count, n, p=zipf_probabilities(count,
        skew))`` draws, from the same stream: that is how
        ``Generator.choice`` samples with ``p``, minus its per-call
        validation and cumsum.  Loops of one workload share the arrays.
        """
        cdf = self._cdfs.get((count, skew))
        if cdf is None:
            cdf = zipf_probabilities(count, skew).cumsum()
            cdf /= cdf[-1]
            cdf.flags.writeable = False
            self._cdfs[(count, skew)] = cdf
        return cdf

    def columns(self) -> PathColumns:
        """Every registered path, in id order, built in one pass."""
        if not self._block_counts:
            return PathColumns.from_paths([])
        tails_per_loop = np.array(
            [len(counts) for counts in self._block_counts], dtype=np.int64
        )
        if (tails_per_loop < 1).any():
            raise WorkloadError("every loop needs at least one tail")
        tail_blocks = np.concatenate(self._block_counts).astype(np.int64)
        if (tail_blocks < 1).any():
            raise WorkloadError("a path needs at least one block")

        # Uid allocation: each loop takes its head plus its reserved
        # body blocks, loops in registration order.
        first_tails = np.cumsum(tails_per_loop) - tails_per_loop
        reserved = np.array(self._reserved, dtype=np.int64)
        reserved = np.where(
            reserved < 0,
            2 * np.maximum.reduceat(tail_blocks, first_tails),
            reserved,
        )
        head_uid = np.cumsum(1 + reserved) - (1 + reserved)

        # One row per path: the loop's tails, then its exit.
        has_exit = np.array(self._has_exit, dtype=np.int64)
        rows_per_loop = tails_per_loop + has_exit
        loop = np.repeat(np.arange(len(rows_per_loop)), rows_per_loop)
        first_rows = np.cumsum(rows_per_loop) - rows_per_loop
        rank = np.arange(len(loop)) - first_rows[loop]
        is_exit = rank == tails_per_loop[loop]
        first_variant = np.array(self._first_variant, dtype=np.int64)
        variant = np.where(is_exit, 0, first_variant[loop] + rank)
        num_blocks = np.full(len(loop), _EXIT_BLOCKS, dtype=np.int64)
        num_blocks[~is_exit] = tail_blocks
        cond = np.where(is_exit, 1, np.maximum(num_blocks - 1, 1))
        # bit_length(v) is frexp's exponent (exact: variants stay far
        # below 2**53).
        variant_bits = np.frexp(variant.astype(np.float64))[1]
        bit_count = np.where(
            is_exit,
            _EXIT_BITS,
            np.maximum(np.maximum(cond, variant_bits), 1),
        )

        # Blocks: the head, then body blocks (the exit is variant 0).
        block_offsets = np.zeros(len(loop) + 1, dtype=np.int64)
        np.cumsum(num_blocks, out=block_offsets[1:])
        owner = np.repeat(np.arange(len(loop)), num_blocks)
        step = np.arange(block_offsets[-1]) - block_offsets[owner]
        owner_loop = loop[owner]
        body = (variant[owner] + step - 1) % (2 * num_blocks[owner])
        blocks = np.where(
            step == 0,
            head_uid[owner_loop],
            head_uid[owner_loop] + 1 + body,
        )

        start_uid = head_uid[loop]
        return PathColumns(
            start_address=start_uid * _BLOCK_SPACING,
            history=np.where(is_exit, _EXIT_HISTORY, variant),
            bit_count=bit_count,
            start_uid=start_uid,
            num_instructions=num_blocks
            * np.array(self._instructions, dtype=np.int64)[loop],
            num_cond_branches=cond,
            num_indirect_branches=np.zeros(len(loop), dtype=np.int64),
            ends_backward=np.ones(len(loop), dtype=bool),
            block_offsets=block_offsets,
            blocks=blocks,
            target_offsets=np.zeros(len(loop) + 1, dtype=np.int64),
            indirect_targets=np.zeros(0, dtype=np.int64),
        )


def zipf_probabilities(count: int, skew: float) -> np.ndarray:
    """Zipf-like tail distribution: ``p_j ∝ (j+1)^−skew``.

    ``skew=0`` is uniform; larger skews concentrate flow on the first
    tails (dominant-path loops).
    """
    if count < 1:
        raise WorkloadError("count must be positive")
    if skew < 0:
        raise WorkloadError("skew must be non-negative")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks**-skew
    return weights / weights.sum()
