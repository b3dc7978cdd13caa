"""Path-profile based prediction (paper §4).

The straightforward adaptation of an offline path profiling scheme to the
online setting: maintain one counter per dynamic path (bit tracing builds
the path signature as the program runs, then bumps the signature's table
entry); as soon as a path's counter exceeds the prediction delay τ the
path is predicted hot.

The captured flow of a predicted path is exactly ``freq(p) − τ``: the
execution that pushes the counter past τ and everything after it run
under the prediction (paper §3).
"""

from __future__ import annotations

import numpy as np

from repro.prediction.base import OnlinePredictor, PredictionOutcome
from repro.trace.recorder import PathTrace


class PathProfilePredictor(OnlinePredictor):
    """Online predictor derived from a full path profile.

    ``delay`` is τ: a path is predicted when it has executed τ times, at
    its (τ+1)-th execution.  With ``delay=0`` every path is predicted on
    first execution (the trivial maximal-hit-rate, maximal-noise scheme
    the paper uses to motivate the noise metric).
    """

    name = "path-profile"

    def run(self, trace: PathTrace) -> PredictionOutcome:
        freqs = trace.freqs()
        tau = self.delay
        predicted = np.flatnonzero(freqs > tau)

        # Cached on the trace: one argsort per trace, not one per cell.
        order, starts = trace.occurrence_index()
        # The prediction moment is the (τ+1)-th occurrence of the path.
        times = order[starts[predicted] + tau]
        captured = freqs[predicted] - tau

        # Sort predictions by the moment they were made, as a real online
        # system would emit them.
        by_time = np.argsort(times, kind="stable")

        return PredictionOutcome(
            scheme=self.name,
            delay=tau,
            predicted_ids=predicted[by_time].astype(np.int64),
            prediction_times=times[by_time].astype(np.int64),
            captured=captured[by_time].astype(np.int64),
            # One counter per dynamic path seen during the run (§5.2).
            counter_space=int(
                trace.cached("dynamic_paths", lambda: np.count_nonzero(freqs))
            ),
            profiling_ops=self._profiling_ops(trace, freqs),
        )

    def _profiling_ops(self, trace: PathTrace, freqs: np.ndarray) -> int:
        """Dynamic profiling operations under bit tracing.

        Every profiled path execution shifts one history bit per
        conditional branch, records every indirect target, and performs
        one path-table update at the path end.  Executions after a path
        is predicted run out of the code cache and are not profiled, so
        each path is profiled at most τ times (plus the triggering
        execution, whose profiling work has already been spent when the
        prediction fires).
        """
        profiled_execs = np.minimum(freqs, self.delay + 1)
        ops_per_exec = trace.cached(
            "bit_tracing_ops",
            lambda: trace.cond_branches_per_path()
            + trace.indirect_branches_per_path()
            + 1,  # the path-table update
        )
        return int((profiled_execs * ops_per_exec).sum())
