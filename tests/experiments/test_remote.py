"""Remote sweep worker suite: protocol, equivalence, worker loss.

Spins real :class:`SweepWorkerServer` instances in-process (loopback
TCP, ephemeral ports) and drives sweeps through them.  The contract
under test: a distributed sweep is byte-identical to serial — with a
healthy fleet, with a worker lost mid-sweep (batch requeued onto
survivors), and with the whole fleet lost (serial fallback) — and the
wire round-trip through the cache's JSON point codec is lossless.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import ExperimentError, WorkerCrashError
from repro.experiments import run_sweep, trace_digest
from repro.experiments.engine.dataplane import TraceArchive
from repro.experiments.engine.remote import (
    RemoteWorkerPool,
    decode_put,
    encode_put,
    parse_worker_address,
    start_worker,
)
from repro.obs import Registry
from repro.resilience import (
    RetryPolicy,
    lose_worker_on,
    plan,
)

DELAYS = (10, 1_000)

FAST = {"backoff_base": 0.001, "backoff_cap": 0.01}


@pytest.fixture(scope="module")
def duo(all_small_traces):
    return {
        name: all_small_traces[name] for name in ("compress", "go")
    }


@pytest.fixture(scope="module")
def baseline(duo):
    return run_sweep(duo, delays=DELAYS)


@pytest.fixture()
def worker_servers():
    """Two live in-process sweep worker servers."""
    servers = [start_worker()[0] for _ in range(2)]
    try:
        yield servers
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


@pytest.fixture()
def workers(worker_servers):
    """The ``host:port`` addresses of :func:`worker_servers`."""
    return [f"127.0.0.1:{server.port}" for server in worker_servers]


# ---------------------------------------------------------------------
# protocol units
# ---------------------------------------------------------------------


def test_put_frame_round_trip():
    digest = "abc123" * 8
    blob = bytes(range(256)) * 10
    frame = encode_put(digest, blob)
    # Byte 0 is the opcode; the dispatcher hands decode_put the rest.
    assert decode_put(frame[1:]) == (digest, blob)


def test_parse_worker_address_forms():
    assert parse_worker_address("10.0.0.5:7000") == ("10.0.0.5", 7000)
    assert parse_worker_address("7000") == ("127.0.0.1", 7000)
    with pytest.raises(ExperimentError):
        parse_worker_address("nope:notaport")
    with pytest.raises(ExperimentError):
        parse_worker_address("")


def test_worker_handshake_and_trace_residency(workers, duo):
    pool = RemoteWorkerPool(workers)
    try:
        assert pool.slots == 2
        assert pool.alive_count == 2
        digest = "d" * 64
        pool.register_trace(
            digest, TraceArchive.from_trace(duo["compress"]).to_bytes()
        )
        # Publication is lazy: registration alone ships nothing.
        for reply in pool.ping():
            assert reply["status"] == "ok"
            assert digest not in reply["resident"]
    finally:
        pool.close()


def test_pool_refuses_dead_address():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    with pytest.raises((ExperimentError, OSError, WorkerCrashError)):
        RemoteWorkerPool([f"127.0.0.1:{free_port}"])


# ---------------------------------------------------------------------
# sweep equivalence
# ---------------------------------------------------------------------


def test_remote_sweep_byte_identical(
    worker_servers, workers, duo, baseline, monkeypatch
):
    received = {index: [] for index in range(len(worker_servers))}
    ran = set()
    for index, server in enumerate(worker_servers):
        install, context = server.install, server.context

        def recording_install(digest, blob, index=index, install=install):
            received[index].append(digest)
            return install(digest, blob)

        def recording_context(digest, index=index, context=context):
            found = context(digest)
            if found is not None:
                ran.add((index, digest))
            return found

        monkeypatch.setattr(server, "install", recording_install)
        monkeypatch.setattr(server, "context", recording_context)

    registry = Registry()
    points = run_sweep(
        duo, delays=DELAYS, backend="remote", remote=workers,
        obs=registry,
    )
    assert points == baseline
    counters = registry.snapshot()["counters"]
    assert counters["sweep.remote.workers_connected"] == 2
    # Publication is per-lane and lazy: a worker receives a trace once,
    # on its first batch needing it.  Which lane runs which batches is
    # timing-dependent (one lane may drain a whole trace), so the
    # expected count is the (worker, trace) pairs that ran a batch.
    for digests in received.values():
        assert len(digests) == len(set(digests))
    assert {
        (index, digest)
        for index, digests in received.items()
        for digest in digests
    } == ran
    assert counters["sweep.remote.traces_published"] == len(ran)
    assert {digest for _, digest in ran} == {
        trace_digest(trace) for trace in duo.values()
    }
    assert counters["sweep.backend_remote"] == 1


def test_remote_sweep_with_cache_round_trip(workers, duo, baseline, tmp_path):
    from repro.experiments.engine import SweepCache

    cache = SweepCache(tmp_path / "cache")
    first = run_sweep(
        duo, delays=DELAYS, backend="remote", remote=workers,
        cache=cache,
    )
    assert first == baseline
    # Warm rerun is served entirely from the cache — zero remote work.
    warm_cache = SweepCache(tmp_path / "cache")
    assert run_sweep(
        duo, delays=DELAYS, backend="remote", remote=workers,
        cache=warm_cache,
    ) == baseline
    assert warm_cache.stats.hits == len(baseline)


def test_lost_worker_requeues_onto_survivor(workers, duo, baseline):
    """One worker dies holding a batch: the batch reruns elsewhere and
    the sweep's bytes do not change."""
    registry = Registry()
    points = run_sweep(
        duo,
        delays=DELAYS,
        backend="remote",
        remote=workers,
        faults=plan(lose_worker_on(0)),
        resilience=RetryPolicy(**FAST),
        obs=registry,
    )
    assert points == baseline
    counters = registry.snapshot()["counters"]
    assert counters["sweep.remote.workers_lost"] == 1
    assert counters["sweep.retries"] >= 1


def test_repeatedly_lost_workers_still_converge(workers, duo, baseline):
    """Two distinct batches each kill a lane; one survivor carries."""
    points = run_sweep(
        duo,
        delays=DELAYS,
        backend="remote",
        remote=workers,
        faults=plan(lose_worker_on(0), lose_worker_on(1)),
        resilience=RetryPolicy(max_retries=3, **FAST),
    )
    assert points == baseline


def test_all_workers_lost_falls_back_to_serial(duo, baseline):
    server, _ = start_worker()
    try:
        registry = Registry()
        points = run_sweep(
            duo,
            delays=DELAYS,
            backend="remote",
            remote=[f"127.0.0.1:{server.port}"],
            faults=plan(
                *[lose_worker_on(batch, times=None) for batch in range(8)]
            ),
            resilience=RetryPolicy(**FAST),
            obs=registry,
        )
        assert points == baseline
        counters = registry.snapshot()["counters"]
        assert counters["sweep.fallback_serial"] == 1
    finally:
        server.shutdown()
        server.server_close()


def test_all_workers_lost_without_fallback_raises(duo):
    server, _ = start_worker()
    try:
        with pytest.raises(WorkerCrashError):
            run_sweep(
                duo,
                delays=DELAYS,
                backend="remote",
                remote=[f"127.0.0.1:{server.port}"],
                faults=plan(
                    *[
                        lose_worker_on(batch, times=None)
                        for batch in range(8)
                    ]
                ),
                resilience=RetryPolicy(fallback_serial=False, **FAST),
            )
    finally:
        server.shutdown()
        server.server_close()


def test_remote_backend_requires_addresses(duo):
    with pytest.raises(ExperimentError):
        run_sweep(duo, delays=DELAYS, backend="remote")
