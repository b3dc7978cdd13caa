"""Workload ``serve_replay``: the loadgen corpus replayed as a closed loop.

One client thread replays the seeded ``repro.serving.loadgen`` corpus
(wire-encoded batches) against a fresh :class:`PredictionServer`,
sending a tenant's next batch only after the server answered the
previous one; every shard holds one tenant per stream of the corpus.
Every pass runs each of two legs twice on the same corpus:

* ``mem`` — an in-memory server: decode → segmentation → NET session →
  shard turnstile.
* ``durable`` — a server with a state dir and a memory budget below the
  tenants' working set, so the same layers also append to the WAL,
  checkpoint on cadence, rotate the WAL and evict/readmit sessions
  through snapshots.

Correctness: shed batches and exceptions are failed operations, and so
is every tenant whose selections differ from the offline NET predictor
run on its stream (``standalone_outcome``).  The durable leg fails if
it made no cadence checkpoint, WAL rotation, eviction or readmission.
"""

from __future__ import annotations

import gc
import shutil
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from common import HostSpeed, median, percentile, self_peak_rss_mb
from tracing import Probe, Tracer, calls, self_time, total_time

#: Client threads, each driving whole shards.  Up to ``nproc`` (2) are
#: meaningful; with two, GIL hand-offs under host CPU steal doubled the
#: run-to-run spread of both legs, so the benchmark runs one.
CLIENTS = 1
NUM_STREAMS = 8
EVENTS_PER_TENANT = 5_120
BATCH_EVENTS = 128
DELAY = 50
NUM_SHARDS = 8
#: Durable leg: rotate each shard's WAL past this many records.
WAL_ROTATE_RECORDS = 256
#: Durable leg: snapshot a session every this many applied batches
#: (once per tenant of the corpus's 40 batches).  Every snapshot costs
#: two fsyncs, whose latency swings with the host's disk load, so the
#: leg takes few enough of them that the serving layers, not the disk,
#: set its time.
CHECKPOINT_INTERVAL = 32
#: Durable leg: the working set crosses the memory budget by the round
#: at this share of the replay (see :func:`durable_budget`); each shard
#: crosses it in the same round and evicts and readmits a session or
#: two per round from then on.
BUDGET_ROUND_FRACTION = 0.85
#: Corpus builds per run (set-up is reported as their median).
SETUP_REPEATS = 7
MIN_PASSES = 3
MAX_RETRIES = 50

LEGS = ("mem", "durable")
#: Legs of one pass: each leg twice, so both legs' medians rest on a
#: score of samples per run.
PASS = ("durable", "mem", "durable", "mem")

#: Span name → per-leg metric suffix (self time).
SELF_METRICS = {
    "serving.decode": "decode_s",
    "serving.segment": "segment_s",
    "serving.net": "net_s",
    "serving.ingest": "wait_s",
    "serving.wal_append": "wal_append_s",
    "serving.fsync": "fsync_s",
    "serving.checkpoint": "checkpoint_s",
    "serving.rotate": "rotate_s",
    "serving.restore": "restore_s",
    "serving.client": "client_s",
}
DURABLE_ONLY = (
    "wal_append_s",
    "fsync_s",
    "checkpoint_s",
    "rotate_s",
    "restore_s",
    "checkpoints",
    "cadence_checkpoints",
    "evictions",
    "readmissions",
    "rotations",
)
LEG_METRICS = (
    "decode_s",
    "segment_s",
    "net_s",
    "ingest_s",
    "wait_s",
    "client_s",
    "batches",
    "selections",
    "rejects",
    "backpressure_retries",
    "accept_ratio",
    "events_per_s",
    "p50_ms",
    "p99_ms",
    "latency_samples",
    "accounted_pct",
)

PER_LAYER = tuple(
    f"serving.{leg}.{name}"
    for leg in LEGS
    for name in LEG_METRICS + (DURABLE_ONLY if leg == "durable" else ())
) + ("serve_replay.trace_overhead_pct",)


def _probes():
    from repro.serving import durability, session, wire
    from repro.serving.server import PredictionServer
    from repro.trace.extractor import PathStream

    return [
        Probe("serving.ingest", PredictionServer, "ingest"),
        Probe("serving.decode", wire, "decode_batch"),
        Probe("serving.net", session.TenantSession, "ingest"),
        Probe("serving.segment", PathStream, "feed"),
        Probe("serving.restore", session.TenantSession, "restore"),
        Probe("serving.wal_append", durability.ShardStore, "append"),
        Probe("serving.fsync", durability.ShardStore, "sync"),
        Probe("serving.checkpoint", durability.ShardStore, "write_snapshot"),
        Probe("serving.rotate", durability.ShardStore, "rotate"),
    ]


def build(seed: int):
    """The seeded corpus (the set-up of this workload)."""
    from repro.serving.loadgen import LoadgenConfig, build_corpus

    config = LoadgenConfig(
        num_tenants=NUM_SHARDS * NUM_STREAMS,
        num_streams=NUM_STREAMS,
        events_per_tenant=EVENTS_PER_TENANT,
        batch_events=BATCH_EVENTS,
        workers=CLIENTS,
        wire=True,
        seed=seed,
    )
    return build_corpus(config)


class _Client:
    """One closed-loop client thread's tenants and tallies."""

    def __init__(self, tenants: list[str]) -> None:
        self.tenants = tenants
        self.latencies: list[float] = []
        self.selections: dict[str, list] = {tid: [] for tid in tenants}
        self.retries = 0
        self.shed = 0
        self.errors = 0
        self.broken: set[str] = set()


def _drive(server, client, streams, durable, barrier, tracer) -> None:
    for tid in client.tenants:
        stream = streams[tid]
        try:
            server.open_tenant(tid, stream.program, program_name=stream.name)
        except Exception:
            client.errors += 1
            client.broken.add(tid)
    barrier.wait()
    with tracer.span("serving.client") if tracer else nullcontext():
        _replay(server, client, streams, durable)


def _replay(server, client, streams, durable) -> None:
    """Send each tenant's next batch once per round.

    Rounds alternate direction, so the tenant served last in one round
    is served first in the next: under a memory budget the LRU victim
    is then the tenant whose turn is furthest away, and a shard evicts
    about one session per round instead of one per batch.
    """
    from repro.errors import BackpressureError

    def pending(tid: str) -> bool:
        return tid not in client.broken and cursor < len(streams[tid].payloads)

    cursor = 0
    live = [tid for tid in client.tenants if pending(tid)]
    while live:
        for tid in live if cursor % 2 == 0 else live[::-1]:
            for _ in range(MAX_RETRIES + 1):
                started = time.perf_counter()
                try:
                    result = server.ingest(
                        tid,
                        streams[tid].payloads[cursor],
                        seq=cursor if durable else None,
                    )
                except BackpressureError as pushback:
                    client.retries += 1
                    time.sleep(pushback.retry_after_seconds)
                    continue
                except Exception:
                    client.errors += 1
                    client.broken.add(tid)
                    break
                client.latencies.append(time.perf_counter() - started)
                client.selections[tid].extend(result.selections)
                break
            else:
                client.shed += 1
                client.broken.add(tid)
        cursor += 1
        live = [tid for tid in live if pending(tid)]


def _matches(report, selections, expected) -> bool:
    import numpy as np

    path_ids = [s.path_id for s in selections] + [
        s.path_id for s in report.selections
    ]
    return (
        path_ids == list(expected.predicted_ids)
        and np.array_equal(report.outcome.predicted_ids, expected.predicted_ids)
        and np.array_equal(
            report.outcome.prediction_times, expected.prediction_times
        )
        and report.outcome.counter_space == expected.counter_space
    )


def _layout(server, corpus) -> dict:
    """Tenant id → stream: every shard replays each stream once.

    Identical per-shard content makes every shard cross its share of
    the memory budget at the same point of the replay, so the durable
    leg's eviction count depends on the corpus, not on which tenant ids
    happen to hash together.
    """
    layout: dict[str, object] = {}
    wanted = {
        (shard, index)
        for shard in range(NUM_SHARDS)
        for index in range(len(corpus))
    }
    candidate = 0
    while wanted:
        tid = f"tenant-{candidate}"
        candidate += 1
        shard = server.shard_index(tid)
        for index in range(len(corpus)):
            if (shard, index) in wanted:
                wanted.discard((shard, index))
                layout[tid] = corpus[index]
                break
    return layout


def working_set_history(corpus) -> list[int]:
    """Metered session bytes after each round of an in-memory replay.

    One thread replays the corpus round by round (each tenant's next
    batch per round) and reads ``state_bytes`` after every round; the
    durable leg's budget is taken from this curve.
    """
    from repro.serving.server import PredictionServer, ServerConfig

    server = PredictionServer(
        ServerConfig(num_shards=NUM_SHARDS, delay=DELAY)
    )
    streams = _layout(server, corpus)
    for tid, stream in streams.items():
        server.open_tenant(tid, stream.program, program_name=stream.name)
    history = []
    for cursor in range(max(len(s.payloads) for s in corpus)):
        for tid, stream in streams.items():
            if cursor < len(stream.payloads):
                server.ingest(tid, stream.payloads[cursor])
        history.append(server.state_bytes())
    for tid in streams:
        server.close_tenant(tid)
    server.close()
    return history


def durable_budget(history: list[int]) -> int:
    """The durable leg's memory budget, from the in-memory curve.

    It is the working set after the last round before the cutoff round
    whose working set the cutoff round exceeds.  The replay crosses it
    by the cutoff round even on seeds whose sessions stop growing
    before then, which leaves the later rounds for readmissions.
    """
    cutoff = int(len(history) * BUDGET_ROUND_FRACTION)
    last = max(i for i in range(cutoff) if history[i] < history[cutoff])
    return history[last]


def run_leg(corpus, expected, leg, budget, work: Path, tracer=None) -> dict:
    """Replay the corpus once on a fresh server; returns the leg record."""
    from repro.serving.server import PredictionServer, ServerConfig

    durable = leg == "durable"
    config = ServerConfig(
        num_shards=NUM_SHARDS,
        delay=DELAY,
        memory_budget_bytes=budget if durable else None,
        wal_rotate_records=WAL_ROTATE_RECORDS,
        checkpoint_interval_batches=CHECKPOINT_INTERVAL,
    )
    state_dir = work / "state"
    shutil.rmtree(state_dir, ignore_errors=True)
    server = PredictionServer(
        config, state_dir=str(state_dir) if durable else None
    )
    streams = _layout(server, corpus)
    # Each client drives whole shards, so a shard's admissions, LRU
    # order and evictions follow one thread and repeat exactly.
    clients = [
        _Client([t for t in streams if server.shard_index(t) % CLIENTS == k])
        for k in range(CLIENTS)
    ]
    barrier = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(
            target=_drive,
            args=(server, client, streams, durable, barrier, tracer),
            name=f"perfbench-client-{i}",
        )
        for i, client in enumerate(clients)
    ]
    first_span = len(tracer.spans) if tracer else 0
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    stats = server.stats()

    failed = sum(c.shed + c.errors for c in clients)
    mismatched = 0
    for client in clients:
        for tid in client.tenants:
            if tid in client.broken:
                mismatched += 1
                continue
            try:
                report = server.close_tenant(tid)
            except Exception:
                mismatched += 1
                continue
            stream = streams[tid]
            if not _matches(report, client.selections[tid], expected[stream.name]):
                mismatched += 1
    server.close()
    shutil.rmtree(state_dir, ignore_errors=True)

    batches = int(stats["ingested_batches"])
    record = {
        "leg": leg,
        "wall": wall,
        "events": int(stats["ingested_events"]),
        "batches": batches,
        "attempted": sum(len(s.payloads) for s in streams.values())
        + len(streams),
        "failed": failed + mismatched,
        "latencies": [v for c in clients for v in c.latencies],
        "stats": {
            "selections": int(stats["selections"]),
            "rejects": int(stats["rejects"]),
            "backpressure_retries": sum(c.retries for c in clients),
            "checkpoints": int(stats["checkpoints"]),
            "evictions": int(stats["evictions"]),
            "readmissions": int(stats["readmissions"]),
        },
    }
    if durable:
        # Without a rotation the WAL would hold one record per open and
        # per applied batch; fewer live records prove it rotated.
        appended = batches + len(streams)
        record["rotated"] = int(stats["wal_records"]) < appended
        cadence = record["stats"]["checkpoints"] - record["stats"]["evictions"]
        record["stats"]["cadence_checkpoints"] = cadence
        for name in ("cadence_checkpoints", "evictions", "readmissions"):
            if record["stats"][name] <= 0:
                record["failed"] += 1
                record.setdefault("missing", []).append(name)
        if not record["rotated"]:
            record["failed"] += 1
            record.setdefault("missing", []).append("rotations")
    if tracer is not None:
        record["layers"] = _leg_layers(tracer, first_span, record)
    return record


def _leg_layers(tracer: Tracer, first_span: int, record: dict) -> dict:
    roots = [
        index
        for index in tracer.roots("serving.client")
        if index >= first_span
    ]
    table = tracer.summarize(roots)
    layers = {
        suffix: self_time(table, span) for span, suffix in SELF_METRICS.items()
    }
    layers["ingest_s"] = total_time(table, "serving.ingest")
    accepted = calls(table, "serving.ingest") - record["stats"]["rejects"]
    attempts = calls(table, "serving.ingest")
    layers["accept_ratio"] = accepted / attempts if attempts else 0.0
    layers["rotations"] = calls(table, "serving.rotate")
    mapped = sum(self_time(table, span) for span in SELF_METRICS)
    layers["accounted_pct"] = 100.0 * mapped / (CLIENTS * record["wall"])
    for name, value in record["stats"].items():
        layers[name] = value
    layers["batches"] = record["batches"]
    return layers


def run(seconds: float, seed: int, trace: bool, work: Path) -> dict:
    from repro.serving.loadgen import standalone_outcome

    setups, corpus = [], None
    host = HostSpeed()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        corpus = build(seed)
        setups.append(host.scale(time.perf_counter() - started))
    expected = {
        stream.name: standalone_outcome(stream, DELAY) for stream in corpus
    }

    history = working_set_history(corpus)
    budget = durable_budget(history)
    records: list[dict] = []
    tracer = Tracer() if trace else None
    traced: list[dict] = []
    start = time.perf_counter()
    passes = 0
    host = HostSpeed()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for leg in PASS:
            # Every leg starts from the same collected heap.
            gc.collect()
            record = run_leg(corpus, expected, leg, budget, work)
            record["scaled"] = host.scale(record["wall"])
            records.append(record)
            if tracer is not None:
                with tracer.installed(_probes()):
                    traced.append(
                        run_leg(corpus, expected, leg, budget, work, tracer)
                    )
        passes += 1
    if tracer is not None:
        tracer.dump(work.parent / "serve_replay.spans.json")

    attempted = sum(r["attempted"] for r in records + traced)
    failed = sum(r["failed"] for r in records + traced)
    legs = {}
    for leg in LEGS:
        mine = [r for r in records if r["leg"] == leg]
        latencies = sorted(v for r in mine for v in r["latencies"])
        legs[leg] = {
            "wall_s": median(r["wall"] for r in mine),
            "scaled_s": median(r["scaled"] for r in mine),
            "walls": sorted(round(r["wall"], 4) for r in mine),
            "events_per_s": median(r["events"] / r["wall"] for r in mine),
            "p50_ms": 1000.0 * percentile(latencies, 50),
            "p99_ms": 1000.0 * percentile(latencies, 99),
            "latency_samples": len(latencies),
        }
    out = {
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "tenants": NUM_SHARDS * NUM_STREAMS,
            "streams": NUM_STREAMS,
            "events_per_leg": records[0]["events"],
            "durable_budget_bytes": budget,
            "working_set_bytes": history[-1],
            "passes": passes,
            "legs": legs,
            "missing": sorted(
                {m for r in records + traced for m in r.get("missing", ())}
            ),
        },
    }
    if not trace:
        out["metrics"] = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "slow_leg_s": (legs["durable"]["scaled_s"], "s"),
            "fast_leg_s": (legs["mem"]["scaled_s"], "s"),
        }
        return out
    layers: dict[str, float] = {}
    for leg in LEGS:
        mine = [r["layers"] for r in traced if r["leg"] == leg]
        names = LEG_METRICS + (DURABLE_ONLY if leg == "durable" else ())
        for name in names:
            key = f"serving.{leg}.{name}"
            if name in legs[leg]:
                layers[key] = legs[leg][name]
            else:
                layers[key] = median(m.get(name, 0) for m in mine)
    traced_wall = sum(r["wall"] for r in traced)
    plain_wall = sum(r["wall"] for r in records)
    layers["serve_replay.trace_overhead_pct"] = 100.0 * (
        traced_wall / plain_wall - 1
    )
    out["layers"] = layers
    out["accounted"] = {
        leg: layers[f"serving.{leg}.accounted_pct"] for leg in LEGS
    }
    return out
