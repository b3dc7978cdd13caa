"""Per-τ reference implementation of the NET predictor.

The original, direct simulation of NET: for every prediction delay τ it
groups the counted head arrivals by head, reads off each head's
(τ+1)-th arrival as its hot time, and derives the predictions from
those hot times.  Production :class:`~repro.prediction.net.NETPredictor`
computes the τ-independent part once per trace instead; this module is
the oracle the kernel is checked against, field for field.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.base import PredictionOutcome, remaining_after
from repro.trace.recorder import PathTrace


def reference_outcome(
    trace: PathTrace,
    delay: int,
    count_backward_arrivals_only: bool = True,
    retire_heads: bool = False,
) -> PredictionOutcome:
    """What ``NETPredictor(delay, …).run(trace)`` must return."""
    head_seq = trace.head_sequence()
    if count_backward_arrivals_only:
        counted = trace.backward_arrival_mask()
    else:
        counted = np.ones(len(head_seq), dtype=bool)

    hot_time, num_heads, counted_heads = _head_hot_times(
        delay, head_seq, counted
    )
    if retire_heads:
        predicted, times, captured = _single_shot(trace, hot_time)
    else:
        predicted, times, captured = _region_model(trace, head_seq, hot_time)

    by_time = np.argsort(times, kind="stable")
    return PredictionOutcome(
        scheme="net",
        delay=delay,
        predicted_ids=predicted[by_time],
        prediction_times=times[by_time],
        captured=captured[by_time],
        counter_space=num_heads,
        profiling_ops=_profiling_ops(
            delay, trace, counted_heads, predicted[by_time]
        ),
    )


def _head_hot_times(
    tau: int, head_seq: np.ndarray, counted: np.ndarray
) -> tuple[dict[int, int], int, np.ndarray]:
    """Occurrence index at which each head turns hot.

    Returns ``(hot_time, num_heads, counted_heads)`` where ``hot_time``
    maps head uid → index of its (τ+1)-th counted arrival (heads that
    never reach it are absent), ``num_heads`` is the number of heads
    with a counter, and ``counted_heads`` is the sequence of counted
    head arrivals.
    """
    counted_indices = np.flatnonzero(counted)
    counted_heads = head_seq[counted_indices]
    hot_time: dict[int, int] = {}
    if not len(counted_heads):
        return hot_time, 0, counted_heads

    unique_heads, inverse = np.unique(counted_heads, return_inverse=True)
    head_order = np.argsort(inverse, kind="stable")
    head_starts = np.searchsorted(
        inverse[head_order], np.arange(len(unique_heads) + 1), "left"
    )
    for h, uid in enumerate(unique_heads):
        arrivals = counted_indices[
            head_order[head_starts[h] : head_starts[h + 1]]
        ]
        if len(arrivals) > tau:
            hot_time[int(uid)] = int(arrivals[tau])
    return hot_time, len(unique_heads), counted_heads


def _region_model(
    trace: PathTrace, head_seq: np.ndarray, hot_time: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capture every tail executing from a head after it turned hot."""
    n = len(trace.path_ids)
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    if not n or not hot_time:
        return empty

    max_uid = int(head_seq.max())
    hot_lookup = np.full(max_uid + 1, n, dtype=np.int64)
    for uid, time in hot_time.items():
        hot_lookup[uid] = time
    occurrence_hot = np.arange(n) >= hot_lookup[head_seq]

    captured_per_path = np.bincount(
        trace.path_ids[occurrence_hot], minlength=trace.num_paths
    )
    predicted = np.flatnonzero(captured_per_path > 0).astype(np.int64)

    times_per_path = np.full(trace.num_paths, n, dtype=np.int64)
    hot_indices = np.flatnonzero(occurrence_hot)
    np.minimum.at(times_per_path, trace.path_ids[hot_indices], hot_indices)

    return (
        predicted,
        times_per_path[predicted],
        captured_per_path[predicted].astype(np.int64),
    )


def _single_shot(
    trace: PathTrace, hot_time: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One prediction per head: the tail executing at hot-time."""
    order, starts = trace.occurrence_index()
    predicted: list[int] = []
    times: list[int] = []
    captured: list[int] = []
    for _, time in sorted(hot_time.items(), key=lambda item: item[1]):
        path_id = int(trace.path_ids[time])
        predicted.append(path_id)
        times.append(time)
        captured.append(remaining_after(order, starts, path_id, time))
    return (
        np.asarray(predicted, dtype=np.int64),
        np.asarray(times, dtype=np.int64),
        np.asarray(captured, dtype=np.int64),
    )


def _profiling_ops(
    tau: int,
    trace: PathTrace,
    counted_heads: np.ndarray,
    predicted_ids: np.ndarray,
) -> int:
    """Head counter increments (≤ τ+1 per head) plus tail collection."""
    if len(counted_heads):
        _, arrivals_per_head = np.unique(counted_heads, return_counts=True)
        increments = int(np.minimum(arrivals_per_head, tau + 1).sum())
    else:
        increments = 0
    if len(predicted_ids):
        collection = int(trace.blocks_per_path()[predicted_ids].sum())
    else:
        collection = 0
    return increments + collection
