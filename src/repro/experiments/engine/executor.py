"""Sweep execution: cache lookup, fault-tolerant parallel replay,
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
rather than by completion order.  Serial, threaded, cached and
*retried* runs of the same sweep therefore return *equal* point lists,
and every rendered figure built from them is byte-identical — a
property the equivalence test-suite locks down.

Scheduling: the pool gets chunked batches (sized by
:func:`~repro.experiments.engine.planner.autotune_chunk_size` from the
pending cells and the worker count), submitted largest first.  A
batch's cost is read off its input — the trace's occurrence count times
the batch's cell count — so no cost model or history is needed.  Every
completed cell's wall clock is recorded into the run manifest
(``sweep.cell_ms`` histogram plus a ``sweep.cell.<benchmark>:<scheme>:
<τ>`` timer per cell).

Resilience (see :mod:`repro.resilience` and ``docs/resilience.md``):
every completed batch is written to the cache *immediately*, so an
interrupted multi-hour sweep leaves a resumable cache rather than
losing all replayed-but-unstored cells.  A
:class:`~repro.resilience.RetryPolicy` bounds per-batch retries (with
deterministic exponential backoff) and per-attempt timeouts; a timed-out
batch is abandoned and resubmitted, and its still-running thread is
accounted as a *zombie* until it finishes.  SIGINT/SIGTERM drain
completed work, flush the cache, and raise
:class:`~repro.errors.SweepInterrupted` carrying the partial results.
A :class:`~repro.resilience.FaultPlan` threads deterministic fault
injection through :func:`_run_cells`, so the whole failure matrix is
testable without real thread or process murder.

Observability: pass ``obs`` (a :class:`repro.obs.Registry`) and the
engine accounts for itself under the ``sweep.`` prefix — cells planned
/ cached / replayed, replay / hot-set / per-cell timers, and the
resilience traffic (``retries`` / ``timeouts`` / ``zombies``).  Each
batch measures into a local registry that travels back with its points
and is merged as the batch completes, so threaded runs report the same
totals as serial ones.  With no registry (the default) every instrument
resolves to the shared null registry and the replay path is
byte-for-byte the uninstrumented one.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)

from repro.errors import (
    BatchTimeoutError,
    ExperimentError,
    ReproError,
    SweepInterrupted,
    WorkerCrashError,
)
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
from repro.resilience import DEFAULT_POLICY, FaultPlan, RetryPolicy
from repro.resilience.signals import InterruptFlag, interrupt_guard
from repro.trace.recorder import PathTrace

#: Longest the scheduler blocks in one ``wait`` call; bounds how stale
#: the interrupt flag and per-batch deadlines can get.
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
    faults: FaultPlan | None = None,
    batch_index: int = 0,
    attempt: int = 0,
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
    so the parent can fill the manifest's per-cell timers.

    ``faults`` is the deterministic fault-injection hook: planned
    crashes/hangs fire before the replay, corruption mangles the
    returned points, all keyed by ``(batch_index, attempt)`` so a
    faulted run replays identically every time.
    """
    if faults is not None:
        faults.before(batch_index, attempt)
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
    if faults is not None:
        points = faults.after(batch_index, attempt, points)
    return points, (obs.snapshot() if observe else None), cell_ms


def _retryable(error: BaseException) -> bool:
    """Whether a failed attempt is worth repeating.

    Crashed workers, timeouts and corrupt results are transient by
    assumption; any other :class:`ReproError` is a deterministic
    configuration problem that would fail identically on every retry.
    """
    if isinstance(error, (WorkerCrashError, BatchTimeoutError)):
        return True
    return not isinstance(error, ReproError)


def _bucket_counter(ms: float) -> str:
    """The manifest histogram bucket a cell cost falls into."""
    for bound in CELL_MS_BUCKETS:
        if ms <= bound:
            return f"cell_ms_le_{int(bound)}"
    return "cell_ms_le_inf"


class _BatchRun:
    """One batch's scheduling state: attempts used, deadlines, backoff."""

    __slots__ = ("batch", "order", "attempt", "deadline", "not_before")

    def __init__(self, batch: list[SweepTask], order: int):
        self.batch = batch
        self.order = order
        self.attempt = 0
        self.deadline = float("inf")
        self.not_before = 0.0

    @property
    def benchmark(self) -> str:
        return self.batch[0].benchmark


class _SweepRunner:
    """Executes one sweep's pending batches under a resilience policy.

    Batches flow through the thread pool (or the in-process serial
    loop); every completed batch is validated, merged into the run's
    observability registry, written to the cache, timed into the
    manifest and placed at its canonical index — immediately, not after
    the pool joins.
    """

    def __init__(
        self,
        traces: dict[str, PathTrace],
        batches: list[list[SweepTask]],
        policy: RetryPolicy,
        faults: FaultPlan | None,
        engine: Registry,
        observe: bool,
        cache: SweepCache | None,
        keys: dict[int, str],
        results: list[SweepPoint | None],
        total_cells: int,
        flag: InterruptFlag,
    ):
        self.traces = traces
        self.runs = [_BatchRun(batch, order) for order, batch in enumerate(batches)]
        self.policy = policy
        self.faults = faults
        self.engine = engine
        self.observe = observe
        self.cache = cache
        self.keys = keys
        self.results = results
        self.total_cells = total_cells
        self.flag = flag
        #: Benchmark → memoized replay context; each trace's hot set
        #: and occurrence index are computed once, not per batch.
        self.contexts: dict[str, ReplayContext] = {}
        #: Futures abandoned by a timeout whose thread is still burning
        #: a pool slot on the stale attempt.
        self.zombies: set[Future] = set()

    # -- completion ----------------------------------------------------
    def _validate(self, run: _BatchRun, payload) -> tuple[list, dict | None, list]:
        """Check a batch result's shape against its plan."""
        try:
            points, snapshot, cell_ms = payload
        except (TypeError, ValueError) as error:
            raise WorkerCrashError(
                "corrupt batch result: not a (points, snapshot, "
                "cell_ms) triple",
                benchmark=run.benchmark,
                batch_index=run.order,
                attempts=run.attempt + 1,
            ) from error
        if len(points) != len(run.batch):
            raise WorkerCrashError(
                f"corrupt batch result: {len(points)} points for "
                f"{len(run.batch)} cells",
                benchmark=run.benchmark,
                batch_index=run.order,
                attempts=run.attempt + 1,
            )
        for task, point in zip(run.batch, points):
            if point.scheme != task.scheme or point.delay != task.delay:
                raise WorkerCrashError(
                    "corrupt batch result: point coordinates do not "
                    "match the plan",
                    benchmark=run.benchmark,
                    batch_index=run.order,
                    attempts=run.attempt + 1,
                )
        return points, snapshot, cell_ms

    def _record_costs(self, run: _BatchRun, cell_ms: list) -> None:
        """Fold a completed batch's per-cell timings into the manifest."""
        if not self.observe:
            return
        for task, ms in zip(run.batch, cell_ms):
            try:
                ms = float(ms)
            except (TypeError, ValueError):
                continue
            seconds = ms / 1000.0
            self.engine.timer("cell_ms").observe(seconds)
            self.engine.counter(_bucket_counter(ms)).inc()
            self.engine.timer(
                CELL_TIMER_PREFIX
                + cell_name(task.benchmark, task.scheme, task.delay)
            ).observe(seconds)

    def _complete(self, run: _BatchRun, payload) -> None:
        """Validate, merge metrics, place results and flush the cache."""
        points, snapshot, cell_ms = self._validate(run, payload)
        if snapshot is not None:
            # Batch measurements use batch-relative names; merging
            # through the child view re-prefixes them.
            self.engine.merge(snapshot)
        self._record_costs(run, cell_ms)
        for task, point in zip(run.batch, points):
            self.results[task.index] = point
            if self.cache is not None:
                self.cache.put(self.keys[task.index], point)

    # -- failure handling ----------------------------------------------
    def _retry_or_raise(
        self,
        run: _BatchRun,
        error: BaseException | None,
        waiting: list[_BatchRun],
        timed_out: bool = False,
    ) -> None:
        """Schedule one more attempt, or raise the structured failure."""
        if error is not None and not _retryable(error):
            raise error
        if run.attempt + 1 > self.policy.max_retries:
            if timed_out:
                raise BatchTimeoutError(
                    "sweep batch timed out on every attempt",
                    benchmark=run.benchmark,
                    batch_index=run.order,
                    attempts=run.attempt + 1,
                    timeout_seconds=self.policy.task_timeout,
                ) from error
            raise WorkerCrashError(
                "sweep batch failed on every attempt",
                benchmark=run.benchmark,
                batch_index=run.order,
                attempts=run.attempt + 1,
            ) from error
        run.attempt += 1
        self.engine.counter("retries").inc()
        run.not_before = time.monotonic() + self.policy.backoff_seconds(
            run.order, run.attempt
        )
        waiting.append(run)

    def _interrupt(self) -> None:
        """Raise the structured interrupt with everything completed."""
        self.engine.counter("interrupted").inc()
        partial = [point for point in self.results if point is not None]
        raise SweepInterrupted(
            partial=partial,
            completed=len(partial),
            total=self.total_cells,
            signal_name=self.flag.signal_name,
        )

    def _check_interrupt(self) -> None:
        if self.flag.fired:
            self._interrupt()

    def _context(self, benchmark: str) -> ReplayContext:
        """The memoized replay context for ``benchmark``."""
        context = self.contexts.get(benchmark)
        if context is None:
            context = ReplayContext(self.traces[benchmark])
            self.contexts[benchmark] = context
        return context

    # -- serial execution ----------------------------------------------
    def _run_serial(self) -> None:
        """In-process execution with retries (timeouts cannot preempt)."""
        for run in self.runs:
            context = self._context(run.benchmark)
            cells = [task.cell for task in run.batch]
            while True:
                self._check_interrupt()
                try:
                    payload = _run_cells(
                        context,
                        cells,
                        self.observe,
                        self.faults,
                        run.order,
                        run.attempt,
                    )
                    self._complete(run, payload)
                    break
                except (SweepInterrupted, KeyboardInterrupt):
                    raise
                except Exception as error:
                    waiting: list[_BatchRun] = []
                    self._retry_or_raise(run, error, waiting)
                    # No scheduler to wake us up: honor the backoff here.
                    time.sleep(max(run.not_before - time.monotonic(), 0.0))

    # -- pooled execution ----------------------------------------------
    def _submit(self, pool: ThreadPoolExecutor, run: _BatchRun) -> Future:
        future = pool.submit(
            _run_cells,
            self._context(run.benchmark),
            [task.cell for task in run.batch],
            self.observe,
            self.faults,
            run.order,
            run.attempt,
        )
        if self.policy.task_timeout is not None:
            run.deadline = time.monotonic() + self.policy.task_timeout
        else:
            run.deadline = float("inf")
        return future

    def _reap_zombies(self) -> None:
        """Drop abandoned futures whose stale attempt finally finished."""
        if not self.zombies:
            return
        finished = [future for future in self.zombies if future.done()]
        if finished:
            self.zombies.difference_update(finished)
            self.engine.gauge("zombie_slots").set(len(self.zombies))

    def _tick(
        self, inflight: dict[Future, _BatchRun], waiting: list[_BatchRun]
    ) -> float:
        """How long the next ``wait`` may block."""
        now = time.monotonic()
        horizon = now + _MAX_TICK_SECONDS
        for run in inflight.values():
            horizon = min(horizon, run.deadline)
        for run in waiting:
            horizon = min(horizon, run.not_before)
        return max(horizon - now, 0.01)

    def _cost(self, run: _BatchRun) -> int:
        """A batch's replay cost read off its input: occurrences × cells."""
        return len(self.traces[run.benchmark].path_ids) * len(run.batch)

    def _run_pooled(self, workers: int) -> None:
        # Largest first, so the long batches start while short ones
        # remain to fill in behind them; submitting in canonical order
        # instead measured ~9% slower on the full Figure 2 sweep.
        queue = deque(sorted(self.runs, key=self._cost, reverse=True))
        waiting: list[_BatchRun] = []
        inflight: dict[Future, _BatchRun] = {}
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            while queue or waiting or inflight:
                self._check_interrupt()
                self._reap_zombies()
                now = time.monotonic()
                due = [run for run in waiting if run.not_before <= now]
                if due:
                    waiting = [run for run in waiting if run.not_before > now]
                    queue.extendleft(reversed(due))
                # Zombie threads still occupy pool slots: shrink the
                # submit budget so live batches are not queued behind
                # them (but never to zero — the pool's own queue keeps
                # the sweep moving even fully zombified).
                budget = max(1, workers - len(self.zombies))
                while queue and len(inflight) < budget:
                    run = queue.popleft()
                    inflight[self._submit(pool, run)] = run
                if inflight:
                    done, _ = wait(
                        set(inflight),
                        timeout=self._tick(inflight, waiting),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        run = inflight.pop(future)
                        try:
                            payload = future.result()
                        except (SweepInterrupted, KeyboardInterrupt):
                            raise
                        except Exception as error:
                            self._retry_or_raise(run, error, waiting)
                            continue
                        try:
                            self._complete(run, payload)
                        except WorkerCrashError as error:
                            self._retry_or_raise(run, error, waiting)
                    now = time.monotonic()
                    for future, run in list(inflight.items()):
                        if run.deadline <= now:
                            # Abandon the future; a late result from it
                            # is never read.  Until the stale attempt
                            # finishes, its thread is a zombie burning a
                            # pool slot — tracked so the submit budget
                            # shrinks accordingly.
                            del inflight[future]
                            self.zombies.add(future)
                            self.engine.counter("zombies").inc()
                            self.engine.gauge("zombie_slots").set(
                                len(self.zombies)
                            )
                            self.engine.counter("timeouts").inc()
                            self._retry_or_raise(
                                run, None, waiting, timed_out=True
                            )
                elif waiting:
                    pause = min(run.not_before for run in waiting) - now
                    time.sleep(min(max(pause, 0.0), _MAX_TICK_SECONDS))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            self.zombies.clear()
            self.engine.gauge("zombie_slots").set(0)

    def run(self, workers: int) -> None:
        if workers > 0:
            self._run_pooled(workers)
        else:
            self._run_serial()


def run_sweep(
    traces: dict[str, PathTrace],
    schemes: tuple[str, ...] = SCHEMES,
    delays: tuple[int, ...] = DEFAULT_DELAYS,
    workers: int = 0,
    cache: SweepCache | None = None,
    obs: Registry | None = None,
    resilience: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
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
        so an interrupted sweep resumes from everything it finished.
        Hit/miss accounting accumulates on ``cache.stats``.
    obs:
        Optional observability registry; engine metrics land under its
        ``sweep.`` prefix (see the module docstring).  ``None`` runs
        uninstrumented at zero cost.
    resilience:
        Optional :class:`~repro.resilience.RetryPolicy`; ``None`` uses
        :data:`~repro.resilience.DEFAULT_POLICY` (bounded retries, no
        timeout).
    faults:
        Optional :class:`~repro.resilience.FaultPlan` for deterministic
        fault injection (tests and drills only); every kind fires
        inside :func:`_run_cells` wherever it runs.

    Raises
    ------
    SweepInterrupted
        On SIGINT/SIGTERM, after draining completed batches and
        flushing the cache; carries the partial results.
    WorkerCrashError / BatchTimeoutError
        When one batch exhausts the policy's retry budget.
    """
    if workers < 0:
        raise ExperimentError(f"workers must be >= 0, got {workers}")
    policy = resilience if resilience is not None else DEFAULT_POLICY
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
        engine.counter("retries")
        engine.counter("timeouts")
        engine.counter("zombies")
        engine.gauge("zombie_slots").set(0)
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
                    traces=traces,
                    batches=batches,
                    policy=policy,
                    faults=faults,
                    engine=engine,
                    observe=observe,
                    cache=cache,
                    keys=keys,
                    results=results,
                    total_cells=len(tasks),
                    flag=flag,
                )
                try:
                    runner.run(workers)
                except KeyboardInterrupt:
                    # Signal arrived where the guard could not trap it
                    # (non-main thread, or the operator's second
                    # Ctrl-C).
                    engine.counter("interrupted").inc()
                    partial = [
                        point for point in results if point is not None
                    ]
                    raise SweepInterrupted(
                        partial=partial,
                        completed=len(partial),
                        total=len(tasks),
                        signal_name=flag.signal_name,
                    ) from None

    return [point for point in results if point is not None]
