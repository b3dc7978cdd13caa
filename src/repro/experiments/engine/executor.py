"""Sweep execution: cache lookup, fail-fast parallel replay,
deterministic assembly.

:func:`run_sweep` is the one entry point every delay sweep goes
through.  It plans the (benchmark, scheme, τ) grid, serves whatever the
cache already holds, and replays only the remaining cells on one of two
substrates: the in-process **serial** loop (``workers=0``, the default)
or a :class:`~concurrent.futures.ThreadPoolExecutor` of ``workers``
threads.  Threads pay because the per-trace NET and hot-set kernels are
numpy calls that release the GIL (see ``docs/sweep_engine.md``
§ Parallel replay for the measurement that retired the process pool,
the remote worker fleet and the adaptive cost model).

Determinism guarantee: each cell is a pure function of its trace and
coordinates, computed by the same :func:`_run_cells` code path in every
mode, and the output list is ordered by the planner's canonical index
rather than by completion order.  Serial, threaded and cached runs of
the same sweep therefore return *equal* point lists, and every rendered
figure built from them is byte-identical — a property the equivalence
test-suite locks down.

Scheduling: the pool gets chunked batches (sized by
:func:`~repro.experiments.engine.planner.autotune_chunk_size` from the
pending cells and the worker count), submitted largest first.  A
batch's cost is read off its input — the trace's occurrence count times
the batch's cell count — so no cost model or history is needed.  Every
completed cell's wall clock is recorded into the run manifest
(``sweep.cell_ms`` histogram plus a ``sweep.cell.<benchmark>:<scheme>:
<τ>`` timer per cell).

Failure handling (see ``docs/resilience.md``): every completed batch is
written to the cache *immediately*, so a sweep that stops early leaves
a resumable cache rather than losing its replayed-but-unstored cells.
The work is pure and deterministic, so a batch that raises would raise
again: its exception propagates unchanged after one attempt, once the
pool has cancelled the batches that have not started and let the
running ones finish.  SIGINT/SIGTERM drain completed work and raise
:class:`~repro.errors.SweepInterrupted` carrying the partial results.

Observability: pass ``obs`` (a :class:`repro.obs.Registry`) and the
engine accounts for itself under the ``sweep.`` prefix — cells planned
/ cached / replayed, replay / hot-set / per-cell timers.  Each batch
measures into a local registry that travels back with its points and
is merged as the batch completes, so threaded runs report the same
totals as serial ones.  With no registry (the default) every instrument
resolves to the shared null registry and the replay path is
byte-for-byte the uninstrumented one.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.errors import ExperimentError, SweepInterrupted
from repro.experiments.engine.cache import SweepCache, cache_key, trace_digest
from repro.experiments.engine.planner import (
    SweepTask,
    autotune_chunk_size,
    chunk_tasks,
    group_by_benchmark,
    plan_sweep,
)
from repro.experiments.sweep import (
    DEFAULT_DELAYS,
    SCHEMES,
    SweepPoint,
    make_predictor,
)
from repro.metrics.hotpaths import HotPathSet, hot_path_set
from repro.metrics.quality import evaluate_prediction
from repro.obs.core import Registry, get_registry
from repro.resilience.signals import InterruptFlag, interrupt_guard
from repro.trace.recorder import PathTrace

#: Longest the pool loop blocks in one ``wait`` call; bounds how stale
#: the interrupt flag can get.
_MAX_TICK_SECONDS = 0.5

#: Timer-name prefix for per-cell manifest entries, relative to the
#: engine registry (manifests show ``sweep.cell.*``).
CELL_TIMER_PREFIX = "cell."

#: Histogram bucket upper bounds (milliseconds) for the ``cell_ms``
#: distribution counters in run manifests.
CELL_MS_BUCKETS = (1.0, 5.0, 25.0, 100.0, 500.0)


def cell_name(benchmark: str, scheme: str, delay: int) -> str:
    """A cell's human-readable coordinates, as manifest timers use them."""
    return f"{benchmark}:{scheme}:{delay}"


class ReplayContext:
    """Memoized per-trace replay state shared by every cell.

    Holds the trace plus the two cross-cell precomputations the sweep
    needs: the 0.1% hot set and (via the trace's own cache) the
    occurrence-index grouping.  One context exists per trace per sweep,
    shared by the serial loop and every pool thread, so the Figure 2
    sweep computes nine hot sets instead of one per batch.  Two threads
    racing on the first use both compute the same value; either result
    is correct.
    """

    __slots__ = ("trace", "_hot")

    def __init__(self, trace: PathTrace):
        self.trace = trace
        self._hot: HotPathSet | None = None

    @property
    def hot(self) -> HotPathSet:
        """The trace's hot set, computed on first use."""
        if self._hot is None:
            self._hot = hot_path_set(self.trace)
        return self._hot


def _run_cells(
    context: ReplayContext,
    cells: list[tuple[str, int]],
    observe: bool = False,
) -> tuple[list[SweepPoint], dict | None, list[float]]:
    """Replay a batch of (scheme, τ) cells on one replay context.

    The context memoizes the per-trace precomputations (hot set,
    occurrence index): the first batch of a trace pays for them, every
    later batch reuses them — the ``hot_set`` timer records the true
    marginal cost, which is ~0 on reuse.

    With ``observe`` the batch measures itself into a throwaway local
    registry and returns its snapshot alongside the points (relative
    names; the caller mounts it wherever it belongs).  The points are
    identical either way.

    The third element of the payload is each cell's wall-clock cost in
    milliseconds, measured unconditionally (two clock reads per cell)
    so the caller can fill the manifest's per-cell timers.
    """
    obs = Registry() if observe else get_registry(None)
    trace = context.trace
    with obs.span("hot_set"):
        hot = context.hot
    points = []
    cell_ms: list[float] = []
    for scheme, delay in cells:
        started = time.perf_counter()
        with obs.span("replay"):
            outcome = make_predictor(scheme, delay).run(trace)
            quality = evaluate_prediction(trace, hot, outcome)
        cell_ms.append((time.perf_counter() - started) * 1000.0)
        obs.counter("cells_replayed").inc()
        outcome.publish(obs.child("prediction"))
        points.append(SweepPoint.from_quality(trace.name, quality))
    return points, (obs.snapshot() if observe else None), cell_ms


def _bucket_counter(ms: float) -> str:
    """The manifest histogram bucket a cell cost falls into."""
    for bound in CELL_MS_BUCKETS:
        if ms <= bound:
            return f"cell_ms_le_{int(bound)}"
    return "cell_ms_le_inf"


class _SweepRunner:
    """Executes one sweep's pending batches, serially or on threads.

    Every completed batch is merged into the run's observability
    registry, written to the cache, timed into the manifest and placed
    at its canonical index — immediately, not after the pool joins.
    """

    def __init__(
        self,
        traces: dict[str, PathTrace],
        engine: Registry,
        observe: bool,
        cache: SweepCache | None,
        keys: dict[int, str],
        results: list[SweepPoint | None],
        flag: InterruptFlag,
    ):
        self.traces = traces
        self.engine = engine
        self.observe = observe
        self.cache = cache
        self.keys = keys
        self.results = results
        self.flag = flag
        #: Benchmark → replay context; each trace's hot set and
        #: occurrence index are computed once, not per batch.
        self.contexts = {
            name: ReplayContext(trace) for name, trace in traces.items()
        }

    def _replay(self, batch: list[SweepTask]):
        """Replay one batch; what the serial loop and the pool run."""
        return _run_cells(
            self.contexts[batch[0].benchmark],
            [task.cell for task in batch],
            self.observe,
        )

    def _complete(self, batch: list[SweepTask], payload) -> None:
        """Merge metrics, place results and flush the cache."""
        points, snapshot, cell_ms = payload
        if snapshot is not None:
            # Batch measurements use batch-relative names; merging
            # through the child view re-prefixes them.
            self.engine.merge(snapshot)
        if self.observe:
            for task, ms in zip(batch, cell_ms):
                seconds = ms / 1000.0
                self.engine.timer("cell_ms").observe(seconds)
                self.engine.counter(_bucket_counter(ms)).inc()
                self.engine.timer(
                    CELL_TIMER_PREFIX
                    + cell_name(task.benchmark, task.scheme, task.delay)
                ).observe(seconds)
        for task, point in zip(batch, points):
            self.results[task.index] = point
            if self.cache is not None:
                self.cache.put(self.keys[task.index], point)

    def interrupted(self) -> SweepInterrupted:
        """The structured interrupt, carrying everything completed."""
        self.engine.counter("interrupted").inc()
        partial = [point for point in self.results if point is not None]
        return SweepInterrupted(
            partial=partial,
            completed=len(partial),
            total=len(self.results),
            signal_name=self.flag.signal_name,
        )

    def _check_interrupt(self) -> None:
        if self.flag.fired:
            raise self.interrupted()

    def _cost(self, batch: list[SweepTask]) -> int:
        """A batch's replay cost read off its input: occurrences × cells."""
        return len(self.traces[batch[0].benchmark].path_ids) * len(batch)

    def run(self, batches: list[list[SweepTask]], workers: int) -> None:
        if workers == 0:
            for batch in batches:
                self._check_interrupt()
                self._complete(batch, self._replay(batch))
            return
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            # Largest first, so the long batches start while short ones
            # remain to fill in behind them; submitting in canonical
            # order instead measured ~9% slower on the full Figure 2
            # sweep.
            inflight = {
                pool.submit(self._replay, batch): batch
                for batch in sorted(batches, key=self._cost, reverse=True)
            }
            while inflight:
                self._check_interrupt()
                done, _ = wait(
                    inflight,
                    timeout=_MAX_TICK_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                # Failures last, so every batch that finished alongside
                # one is cached before its exception propagates.
                for future in sorted(
                    done, key=lambda each: each.exception() is not None
                ):
                    self._complete(inflight.pop(future), future.result())
        finally:
            # Unstarted batches are cancelled; running ones finish (a
            # thread cannot be stopped), so no replay outlives the call.
            pool.shutdown(cancel_futures=True)


def run_sweep(
    traces: dict[str, PathTrace],
    schemes: tuple[str, ...] = SCHEMES,
    delays: tuple[int, ...] = DEFAULT_DELAYS,
    workers: int = 0,
    cache: SweepCache | None = None,
    obs: Registry | None = None,
) -> list[SweepPoint]:
    """Measure every (benchmark, scheme, τ) cell of a sweep.

    Parameters
    ----------
    traces:
        Benchmark name → trace; the iteration order fixes the output
        order (as in the historical serial sweep).
    workers:
        ``0`` (the default) replays in-process, one batch per
        benchmark; ``N > 0`` replays on a pool of ``N`` threads, in
        batches autotuned from the pending cells and ``N``.  Never
        affects results, only scheduling.
    cache:
        Optional :class:`SweepCache`.  Cached cells are served without
        replay; computed cells are stored back *as each batch completes*,
        so a sweep that stops early resumes from everything it finished.
        Hit/miss accounting accumulates on ``cache.stats``.
    obs:
        Optional observability registry; engine metrics land under its
        ``sweep.`` prefix (see the module docstring).  ``None`` runs
        uninstrumented at zero cost.

    Raises
    ------
    SweepInterrupted
        On SIGINT/SIGTERM, after draining completed batches and
        flushing the cache; carries the partial results.
    Exception
        Whatever a batch raised, unchanged, after one attempt.
    """
    if workers < 0:
        raise ExperimentError(f"workers must be >= 0, got {workers}")
    engine = get_registry(obs).child("sweep")
    observe = engine.enabled
    with engine.span("total"):
        tasks = plan_sweep(list(traces), schemes=schemes, delays=delays)
        engine.counter("runs").inc()
        engine.counter("cells_total").inc(len(tasks))
        # Interned up front so every manifest carries the full set,
        # zeros included.
        engine.counter("cells_cached")
        engine.counter("cells_replayed")
        results: list[SweepPoint | None] = [None] * len(tasks)

        keys: dict[int, str] = {}
        pending = tasks
        if cache is not None:
            # trace_digest memoizes per trace object, so the hashing
            # bill is paid once per trace however often it is asked.
            with engine.span("digest"):
                digests = {
                    name: trace_digest(trace)
                    for name, trace in traces.items()
                }
            pending = []
            for task in tasks:
                key = cache_key(
                    digests[task.benchmark], task.scheme, task.delay
                )
                keys[task.index] = key
                point = cache.get(key)
                if point is None:
                    pending.append(task)
                else:
                    results[task.index] = point
            engine.counter("cells_cached").inc(len(tasks) - len(pending))

        engine.gauge("workers").set(workers if pending else 0)
        if pending:
            groups = group_by_benchmark(pending)
            if workers > 0:
                # Chunked so one benchmark's cells spread across the
                # threads; sized on the *pending* cells of each
                # benchmark only — cache hits never inflate a chunk.
                sizes = {
                    name: autotune_chunk_size(len(group), workers)
                    for name, group in groups.items()
                }
                batches = [
                    batch
                    for name, group in groups.items()
                    for batch in chunk_tasks(group, sizes[name])
                ]
                engine.gauge("chunk_size").set(max(sizes.values()))
            else:
                # One batch per benchmark, like the historical loop.
                batches = list(groups.values())
            engine.counter("batches").inc(len(batches))
            with interrupt_guard() as flag:
                runner = _SweepRunner(
                    traces, engine, observe, cache, keys, results, flag
                )
                try:
                    runner.run(batches, workers)
                except KeyboardInterrupt:
                    # Signal arrived where the guard could not trap it
                    # (non-main thread, or the operator's second
                    # Ctrl-C).
                    raise runner.interrupted() from None

    return [point for point in results if point is not None]
