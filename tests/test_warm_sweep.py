"""Tests for the warm sweep engine.

Three layers, one contract: the persistent stage-1 product cache, the
zero-copy shared-memory trace store, and the warm worker pool must all
be invisible in the results — a warm sweep returns field-identical
grids to a cold serial sweep — while being loudly visible in the
tallies (hits, publishes, reuses) that ``bench_sweep`` and ``repro
stats`` report.  The crash tests pin the failure contract: a raising
cell surfaces its error to the caller (never a hang, never a silently
dropped cell) and the warm pool survives to serve the retry.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import (STAGE1_CACHE_ENV, STAGE1_CACHE_REQUIRE_ENV,
                          TRACE_CACHE_ENV, WARM_POOL_ENV)
from repro.experiments import runner, shm_store, stage1_cache, workers
from repro.experiments.runner import clear_cache, replay_grid

WORKLOAD = "graphchi-als"  # fastest real workload
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def warm_sweep_isolation(tmp_path, monkeypatch):
    """Throwaway disk caches, fresh memos and tallies, and no warm
    pool unless a test asks for one; tears the pool (and its shared
    segments) down after every test."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "trace-cache"))
    monkeypatch.setenv(STAGE1_CACHE_ENV, str(tmp_path / "stage1"))
    monkeypatch.delenv(STAGE1_CACHE_REQUIRE_ENV, raising=False)
    monkeypatch.delenv(WARM_POOL_ENV, raising=False)
    clear_cache()
    stage1_cache.reset_stats()
    shm_store.reset_stats()
    workers.reset_stats()
    yield
    workers.shutdown()
    clear_cache()
    stage1_cache.reset_stats()
    shm_store.reset_stats()
    workers.reset_stats()


def grids_equal(a, b):
    assert list(a) == list(b)
    for key, result in a.items():
        assert b[key] == result  # dataclass field-by-field equality


class TestStage1Cache:
    def test_store_load_round_trip(self, tmp_path):
        arrays = (np.arange(5, dtype=np.int64),
                  np.ones((2, 3)) * 0.25)
        key = "ab" * 32
        stage1_cache.store(tmp_path, key, arrays)
        loaded = stage1_cache.load(tmp_path, key)
        assert len(loaded) == len(arrays)
        for original, back in zip(arrays, loaded):
            np.testing.assert_array_equal(back, original)
            assert back.dtype == original.dtype

    def test_cold_then_warm_sweep_is_bit_exact(self):
        cold = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        stats = stage1_cache.STATS.snapshot()
        assert stats["misses"] > 0
        assert stats["stores"] == stats["misses"]
        assert stats["hits"] == 0
        clear_cache()
        stage1_cache.reset_stats()
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        stats = stage1_cache.STATS.snapshot()
        assert stats["hits"] > 0
        assert stats["misses"] == 0  # the 100%-hit-rate contract
        grids_equal(cold, warm)

    def test_unset_directory_degrades_to_recompute(self, monkeypatch):
        monkeypatch.delenv(STAGE1_CACHE_ENV)
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert len(grid) == len(PLATFORMS)
        assert stage1_cache.STATS.snapshot() == {
            "hits": 0, "misses": 0, "stale": 0, "stores": 0}

    def test_require_serves_warm_and_rejects_cold(self, monkeypatch):
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        stage1_cache.reset_stats()
        monkeypatch.setenv(STAGE1_CACHE_REQUIRE_ENV, "1")
        replay_grid(PLATFORMS, [WORKLOAD], processes=1)  # all hits: ok
        assert stage1_cache.STATS.snapshot()["misses"] == 0
        clear_cache()
        assert stage1_cache.clear() > 0
        with pytest.raises(stage1_cache.Stage1CacheMiss):
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)

    def test_stale_entry_is_discarded_and_regenerated(self):
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        entries = sorted(
            Path(os.environ[STAGE1_CACHE_ENV]).glob("*.stage1.npz"))
        assert entries
        entries[0].write_bytes(b"not an npz archive")
        clear_cache()
        stage1_cache.reset_stats()
        with pytest.warns(UserWarning, match="stale stage1-cache"):
            regenerated = replay_grid(PLATFORMS, [WORKLOAD],
                                      processes=1)
        grids_equal(reference, regenerated)
        stats = stage1_cache.STATS.snapshot()
        assert stats["stale"] == 1
        assert stats["stores"] == 1  # only the corrupted entry rebuilt


class TestShmStore:
    def test_publish_attach_round_trip(self):
        traces = runner.compiled_run_traces(WORKLOAD)
        handles = shm_store.publish(("round-trip", 0), traces)
        assert len(handles) == len(traces)
        rebuilt = shm_store.attach(handles)
        for original, view in zip(traces, rebuilt):
            np.testing.assert_array_equal(view.events, original.events)
            assert not view.events.flags.writeable
            assert view.kind == original.kind
            assert view.heap_bytes == original.heap_bytes
            assert list(view.phase_names) == list(original.phase_names)
            assert list(view.residuals.items()) == \
                list(original.residuals.items())
        shm_store.release(("round-trip", 0))

    def test_republish_is_refcounted(self):
        traces = runner.compiled_run_traces(WORKLOAD)
        first = shm_store.publish(("refs", 0), traces)
        second = shm_store.publish(("refs", 0), traces)
        assert first == second
        assert shm_store.STATS.snapshot()["publishes"] == 1
        shm_store.release(("refs", 0))
        assert shm_store.published_segments()  # one ref still holds
        shm_store.release(("refs", 0))
        assert shm_store.published_segments() == []

    def test_schema_mismatch_is_rejected(self):
        traces = runner.compiled_run_traces(WORKLOAD)
        handles = [dict(h) for h in
                   shm_store.publish(("schema", 0), traces)]
        handles[0]["schema"] = -1
        with pytest.raises(ValueError, match="shared trace schema"):
            shm_store.attach(handles)
        shm_store.release(("schema", 0))

    def test_no_dev_shm_leak_after_shutdown(self):
        dev_shm = Path("/dev/shm")
        if not dev_shm.is_dir():
            pytest.skip("no /dev/shm on this platform")
        traces = runner.compiled_run_traces(WORKLOAD)
        shm_store.publish(("leak-check", 0), traces)
        names = shm_store.published_segments()
        assert names
        for name in names:
            assert (dev_shm / name).exists()
        workers.shutdown()
        for name in names:
            assert not (dev_shm / name).exists()
        assert shm_store.published_segments() == []


class TestWarmPool:
    def test_warm_grid_matches_serial_and_reuses_pool(self,
                                                      monkeypatch):
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        monkeypatch.setenv(WARM_POOL_ENV, "1")
        warm = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, warm)
        assert workers.pool_stats() == {"starts": 1, "reuses": 0,
                                        "maps": 1}
        clear_cache()
        again = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, again)
        stats = workers.pool_stats()
        assert stats["starts"] == 1  # the warmness witness
        assert stats["reuses"] == 1
        assert stats["maps"] == 2
        # the repeat grid reused the published segments too
        assert shm_store.STATS.snapshot()["publishes"] == 1

    def test_journaled_warm_sweep_matches_serial(self, tmp_path,
                                                 monkeypatch):
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        monkeypatch.setenv(WARM_POOL_ENV, "1")
        journaled = replay_grid(PLATFORMS, [WORKLOAD], processes=2,
                                journal=tmp_path / "journal")
        grids_equal(serial, journaled)
        assert workers.pool_stats()["maps"] == 1
        assert len(list((tmp_path / "journal")
                        .glob("*.shard.json"))) == len(PLATFORMS)

    def test_spawn_only_platform_parallelizes(self, monkeypatch):
        """The spawn routing fix: no fork must mean the warm spawn
        pool, never the old silent serial fallback."""
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        monkeypatch.setattr(runner, "_fork_available", lambda: False)
        monkeypatch.setattr(workers, "preferred_start_method",
                            lambda: "spawn")
        assert workers.use_warm_pool()
        spawned = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, spawned)
        stats = workers.pool_stats()
        assert stats["starts"] == 1
        assert stats["maps"] == 1  # the cells went through the pool
        assert workers._POOL.start_method == "spawn"


class TestWorkerCrash:
    def test_classic_pool_propagates_worker_error(self, monkeypatch):
        if not runner._fork_available():
            pytest.skip("no fork start method on this platform")
        runner.collect_run(WORKLOAD)
        runner.compiled_run_traces(WORKLOAD)

        def boom(*args, **kwargs):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(runner, "replay_platform", boom)
        with pytest.raises(RuntimeError, match="injected cell failure"):
            replay_grid(PLATFORMS, [WORKLOAD], processes=2)

    def test_warm_pool_propagates_and_survives(self, tmp_path,
                                               monkeypatch):
        """A raising cell surfaces its error; the pool stays up and
        serves the retry without a restart."""
        if workers.preferred_start_method() != "fork":
            pytest.skip("needs fork so workers inherit the patch")
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        # The workers fork with this patched, *flag-conditional*
        # replay: the parent defuses it afterwards by deleting the
        # flag file — the one channel that reaches already-forked
        # warm workers.
        flag = tmp_path / "explode"
        flag.write_text("armed")
        original = runner.replay_platform

        def fragile(*args, **kwargs):
            if flag.exists():
                raise RuntimeError("injected cell failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "replay_platform", fragile)
        monkeypatch.setenv(WARM_POOL_ENV, "1")
        with pytest.raises(RuntimeError, match="injected cell failure"):
            replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        flag.unlink()
        retried = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, retried)
        stats = workers.pool_stats()
        assert stats["starts"] == 1  # the crash never killed the pool
        assert stats["reuses"] == 1


class TestMemoServedRebuild:
    def test_memo_hits_skip_replay_platform(self, monkeypatch):
        """The rebuild fix: a fully memo-served grid must not call
        replay_platform per cell — it returns straight from the
        replay memo."""
        first = replay_grid(PLATFORMS, [WORKLOAD], processes=1)

        def boom(*args, **kwargs):
            raise AssertionError(
                "replay_platform called for a memo-served cell")

        monkeypatch.setattr(runner, "replay_platform", boom)
        second = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        for key, result in first.items():
            assert second[key] is result


class TestEventLog:
    def test_warm_sweep_emits_typed_records(self, tmp_path):
        from repro.obs import eventlog
        log = eventlog.get_eventlog()
        log.open(tmp_path / "events.jsonl")
        try:
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)
            shm_store.publish(
                ("eventlog", 0), runner.compiled_run_traces(WORKLOAD))
            shm_store.release(("eventlog", 0))
            clear_cache()
            replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        finally:
            log.close()
        records = eventlog.read_events(tmp_path / "events.jsonl")
        kinds = {record["event"] for record in records}
        assert {"stage1_miss", "stage1_hit", "shm_publish"} <= kinds
        for record in records:
            if record["event"].startswith("stage1_"):
                assert "kernel" in record and "key" in record
