"""Cache hardening: corrupt, truncated or hostile entries must degrade
to recomputation, never to an exception or a wrong result."""

from __future__ import annotations

import json
import logging
import os
import stat

import pytest

from repro.experiments import run_sweep
from repro.experiments.engine import SweepCache, cache_key, trace_digest
from repro.experiments.sweep import SweepPoint

DELAYS = (10, 1_000)


@pytest.fixture()
def pair_traces(all_small_traces):
    """Two benchmarks are plenty for cache-behavior tests."""
    return {
        name: all_small_traces[name] for name in ("compress", "deltablue")
    }


def _corrupt(path, payload: bytes) -> None:
    path.write_bytes(payload)


def test_corrupt_entries_recover_with_identical_results(
    pair_traces, tmp_path, caplog
):
    root = tmp_path / "cache"
    cold = run_sweep(pair_traces, delays=DELAYS, cache=SweepCache(root))

    entries = sorted(root.glob("*.json"))
    assert len(entries) == len(cold)
    _corrupt(entries[0], b"this is not json {")
    _corrupt(entries[1], entries[1].read_bytes()[:20])  # truncated write
    # Valid JSON, wrong shape.
    _corrupt(entries[2], json.dumps({"entry_format": 999}).encode())
    _corrupt(entries[3], b"\xff\xfe\x00garbage")  # not even UTF-8

    cache = SweepCache(root)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.engine.cache"):
        recovered = run_sweep(pair_traces, delays=DELAYS, cache=cache)
    assert recovered == cold
    assert cache.stats.invalidations == 4
    assert cache.stats.quarantined == 4
    assert cache.stats.misses == 4
    assert cache.stats.hits == len(cold) - 4
    assert cache.stats.stores == 4  # corrupt cells recomputed and rewritten
    assert sum("recomputing" in record.message for record in caplog.records) == 4
    # The poisoned bytes survive for post-mortem, under a new name.
    assert len(list(root.glob("*.corrupt"))) == 4

    # The rewritten entries are valid again: a third run is all hits.
    final = SweepCache(root)
    assert run_sweep(pair_traces, delays=DELAYS, cache=final) == cold
    assert final.stats.hits == len(cold)
    assert final.stats.invalidations == 0


def test_entry_under_wrong_key_is_invalidated(pair_traces, tmp_path):
    """An entry whose body does not match its address is discarded."""
    root = tmp_path / "cache"
    cache = SweepCache(root)
    point = SweepPoint("x", "net", 10, 1.0, 90.0, 50.0, 5, 4)
    digest = trace_digest(next(iter(pair_traces.values())))
    key_a = cache_key(digest, "net", 10)
    key_b = cache_key(digest, "net", 20)
    cache.put(key_a, point)
    # Move the entry to a different address.
    cache.entry_path(key_a).rename(cache.entry_path(key_b))
    assert cache.get(key_b) is None
    assert cache.stats.invalidations == 1
    assert not cache.entry_path(key_b).exists()


def test_corrupt_entry_is_quarantined_once(tmp_path, caplog):
    """The poison is parsed and logged at most once: after quarantine
    the next lookup is a plain miss, not another invalidation."""
    cache = SweepCache(tmp_path / "cache")
    key = cache_key("2" * 64, "net", 10)
    point = SweepPoint("x", "net", 10, 1.0, 90.0, 50.0, 5, 4)
    cache.put(key, point)
    _corrupt(cache.entry_path(key), b"not json")

    with caplog.at_level(
        logging.WARNING, logger="repro.experiments.engine.cache"
    ):
        assert cache.get(key) is None
    assert cache.stats.quarantined == 1
    assert not cache.entry_path(key).exists()
    assert cache.quarantine_path(key).read_bytes() == b"not json"
    assert sum("quarantined" in r.message for r in caplog.records) == 1
    assert "1 quarantined" in cache.stats.render()

    caplog.clear()
    with caplog.at_level(
        logging.WARNING, logger="repro.experiments.engine.cache"
    ):
        assert cache.get(key) is None  # plain miss now
    assert cache.stats.quarantined == 1
    assert cache.stats.invalidations == 1
    assert not caplog.records

    # A recomputed store makes the key healthy again without touching
    # the quarantined bytes.
    cache.put(key, point)
    assert cache.get(key) == point
    assert cache.quarantine_path(key).exists()


def test_cache_dir_created_lazily(pair_traces, tmp_path):
    root = tmp_path / "deep" / "nested" / "cache"
    cache = SweepCache(root)
    assert cache.get(cache_key("0" * 64, "net", 10)) is None  # no dir yet
    assert not root.exists()
    run_sweep(pair_traces, delays=(10,), cache=cache)
    assert root.is_dir()


def test_unserializable_point_is_a_counted_failed_store(tmp_path, caplog):
    """A point whose fields do not serialize must not crash the sweep.

    ``json.dump`` raises TypeError here — which used to escape the
    store's ``except OSError`` and kill the run.
    """
    cache = SweepCache(tmp_path / "cache")
    key = cache_key("0" * 64, "net", 10)
    poisoned = SweepPoint("x", "net", 10, 1.0, 90.0, 50.0, object(), 4)
    with caplog.at_level(
        logging.WARNING, logger="repro.experiments.engine.cache"
    ):
        cache.put(key, poisoned)  # must not raise
    assert cache.stats.store_failures == 1
    assert cache.stats.stores == 0
    assert not cache.entry_path(key).exists()
    assert not list((tmp_path / "cache").glob("*.tmp"))  # temp cleaned up
    assert any("could not store" in r.message for r in caplog.records)
    assert "1 failed stores" in cache.stats.render()


def test_non_finite_point_is_a_counted_failed_store(tmp_path):
    """NaN fails the store (``allow_nan=False``) instead of writing a
    token other JSON parsers reject — and nothing half-written remains."""
    cache = SweepCache(tmp_path / "cache")
    key = cache_key("1" * 64, "net", 10)
    cache.put(
        key, SweepPoint("x", "net", 10, float("nan"), 90.0, 50.0, 5, 4)
    )
    assert cache.stats.store_failures == 1
    assert cache.get(key) is None
    assert cache.stats.invalidations == 0  # no partial entry on disk


def test_digest_memo_detects_path_ids_reassignment(synthetic_trace):
    """Regression: the digest memo used to guard only on the path-table
    size, so reassigning a trace's occurrence array (same table) served
    the stale digest — poisoning every cache key derived from it."""
    trace = synthetic_trace([0.5, 0.5], size=200, seed=3)
    before = trace_digest(trace)
    assert trace_digest(trace) == before  # memo hit, same content
    trace.path_ids = trace.path_ids[:100]  # same table, new occurrences
    after = trace_digest(trace)
    assert after != before
    # And the recomputed digest is itself memoized consistently.
    assert trace_digest(trace) == after


def test_trace_occurrence_array_is_frozen(synthetic_trace):
    """In-place mutation — the memo guard's blind spot — is ruled out
    at the source: PathTrace freezes its occurrence array, which every
    sweep thread reads from the one shared trace object."""
    trace = synthetic_trace([0.5, 0.5], size=100)
    with pytest.raises(ValueError):
        trace.path_ids[0] = trace.path_ids[1]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_put_honors_process_umask(tmp_path, umask):
    """Regression: entries were published with mkstemp's private 0600
    mode, so a cache shared between users (or CI jobs) was unreadable
    to everyone but its creator — silent invalidation churn.  Entries
    must get exactly the mode a plain ``open(path, "w")`` would."""
    cache = SweepCache(tmp_path / "cache")
    key = cache_key("3" * 64, "net", 10)
    previous = os.umask(umask)
    try:
        cache.put(key, SweepPoint("x", "net", 10, 1.0, 90.0, 50.0, 5, 4))
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(cache.entry_path(key).stat().st_mode)
    assert mode == 0o666 & ~umask


def test_quarantine_falls_back_to_delete_across_devices(
    tmp_path, monkeypatch, caplog
):
    """When the rename to ``<key>.corrupt`` fails (EXDEV, unwritable
    target), the poison must still be removed so it can never be
    re-parsed — deletion is the last resort."""
    cache = SweepCache(tmp_path / "cache")
    key = cache_key("4" * 64, "net", 10)
    cache.put(key, SweepPoint("x", "net", 10, 1.0, 90.0, 50.0, 5, 4))
    _corrupt(cache.entry_path(key), b"not json")

    def cross_device(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(os, "replace", cross_device)
    with caplog.at_level(
        logging.WARNING, logger="repro.experiments.engine.cache"
    ):
        assert cache.get(key) is None
    assert cache.stats.quarantined == 1
    assert cache.stats.invalidations == 1
    assert not cache.entry_path(key).exists()  # poison gone
    assert not cache.quarantine_path(key).exists()  # rename failed
    monkeypatch.undo()
    # The next lookup is a plain miss; a fresh store heals the key.
    assert cache.get(key) is None
    assert cache.stats.invalidations == 1


def test_round_trip_preserves_exact_floats(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    point = SweepPoint(
        benchmark="li",
        scheme="path-profile",
        delay=200_000,
        profiled_flow_percent=99.99999999999997,
        hit_rate=1e-300,
        noise_rate=0.1 + 0.2,  # 0.30000000000000004
        num_predicted=2**40,
        num_predicted_hot=0,
    )
    key = cache_key("ab" * 32, point.scheme, point.delay)
    cache.put(key, point)
    assert SweepCache(tmp_path / "cache").get(key) == point
