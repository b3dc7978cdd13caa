"""NET — Next Executing Tail prediction (paper §4.1/§4.2).

NET splits a path into its *head* (the starting block, a target of a
backward taken branch) and its *tail* (the remainder).  Profiling is
limited to heads: one counter per head, bumped whenever a backward taken
branch lands there.  Once a head's counter exceeds the prediction delay τ
the head is *hot*, and the next executing tail is speculatively selected
as a hot path — no per-branch history shifting, no path table.

Two models of what happens after the first selection are provided:

* ``retire_heads=False`` (default) — the *region* model used for the
  paper's abstract evaluation: once a head is hot, every distinct tail
  that subsequently executes from it is materialized at its first
  post-hot execution and captured from then on.  This abstracts Dynamo's
  secondary trace selection, where exits of an existing fragment become
  new trace heads, so the second (third, …) hot path through a loop is
  still captured shortly after the region turns hot.
* ``retire_heads=True`` — the literal single-shot model: the head
  counter is retired after its first prediction and only the one
  next-executing tail is ever selected for that head.  Useful as an
  ablation; it shows how much of NET's hit rate rests on secondary
  selection when loops have more than one dominant path.

Either way the counter population is bounded by the number of
backward-branch targets (a fraction of |B|), against up to 2^|B| path
counters for path-profile based prediction.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.base import (
    OnlinePredictor,
    PredictionOutcome,
    remaining_after,
)
from repro.trace.recorder import PathTrace


class NETPredictor(OnlinePredictor):
    """The paper's NET prediction scheme.

    Parameters
    ----------
    delay:
        The prediction delay τ.  A head turns hot at its (τ+1)-th counted
        execution; tails captured from a hot head include the execution
        that materializes them, mirroring the ``freq(p) − τ`` accounting
        of path-profile prediction.
    count_backward_arrivals_only:
        When True (default, matching Dynamo) the head counter is bumped
        only when control reaches the head *via a backward taken branch*.
        When False every path start bumps the counter.
    retire_heads:
        Single-shot ablation; see the module docstring.
    """

    name = "net"

    def __init__(
        self,
        delay: int,
        count_backward_arrivals_only: bool = True,
        retire_heads: bool = False,
    ):
        super().__init__(delay)
        self.count_backward_arrivals_only = count_backward_arrivals_only
        self.retire_heads = retire_heads

    # ------------------------------------------------------------------
    def run(self, trace: PathTrace) -> PredictionOutcome:
        # The τ-independent part (counted arrivals per head, running and
        # total) is computed once per trace and shared by every delay.
        running, arrivals = trace.head_arrivals(
            self.count_backward_arrivals_only
        )
        if self.retire_heads:
            predicted, times, captured = self._single_shot(trace, running)
        else:
            predicted, times, captured = self._region_model(
                trace, running > self.delay
            )

        by_time = np.argsort(times, kind="stable")
        predicted = predicted[by_time]
        # Each head performs at most τ+1 counter increments before
        # turning hot; collecting a selected tail costs one incremental
        # instrumentation step per block of the tail (paper §4.2).
        increments = int(np.minimum(arrivals, self.delay + 1).sum())
        collection = int(trace.blocks_per_path()[predicted].sum())
        return PredictionOutcome(
            scheme=self.name,
            delay=self.delay,
            predicted_ids=predicted,
            prediction_times=times[by_time],
            captured=captured[by_time],
            counter_space=len(arrivals),
            profiling_ops=increments + collection,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _region_model(
        trace: PathTrace, occurrence_hot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Capture every tail executing from a head after it turned hot."""
        hot_indices = np.flatnonzero(occurrence_hot)
        hot_paths = trace.path_ids[hot_indices]
        captured_per_path = np.bincount(hot_paths, minlength=trace.num_paths)
        predicted = np.flatnonzero(captured_per_path > 0).astype(np.int64)

        # Prediction time of a path: its first post-hot occurrence.
        times_per_path = np.full(trace.num_paths, trace.flow, dtype=np.int64)
        np.minimum.at(times_per_path, hot_paths, hot_indices)

        return (
            predicted,
            times_per_path[predicted],
            captured_per_path[predicted].astype(np.int64),
        )

    # ------------------------------------------------------------------
    def _single_shot(
        self, trace: PathTrace, running: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One prediction per head: the tail executing at hot-time.

        A head's hot time is its (τ+1)-th counted arrival: the one
        occurrence where its running count reaches τ+1 on a counted
        arrival.
        """
        hot = running == self.delay + 1
        if self.count_backward_arrivals_only:
            hot &= trace.backward_arrival_mask()
        times = np.flatnonzero(hot).astype(np.int64)
        predicted = trace.path_ids[times]
        order, starts = trace.occurrence_index()
        captured = np.array(
            [
                remaining_after(order, starts, path_id, time)
                for path_id, time in zip(predicted.tolist(), times.tolist())
            ],
            dtype=np.int64,
        )
        return predicted, times, captured
