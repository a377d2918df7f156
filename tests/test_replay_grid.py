"""Tests for the multiprocessing grid fan-out in the experiment runner.

The fork-based fan-out must be an implementation detail: the result
grid — keys, ordering, and every timing field — must be identical to a
serial sweep, and the parent's replay memo must end up warm either way.
The shard-journal tests extend the same contract across process death:
a sweep killed mid-flight resumes byte-identically, re-executing only
the shards that never finished.
"""

import multiprocessing
import os

import pytest

from repro.config import REPLAY_JOBS_ENV, TRACE_CACHE_ENV
from repro.errors import ConfigError
from repro.experiments import shard_journal
from repro.experiments.runner import (_fork_available, clear_cache,
                                      replay_grid, replay_platform)

WORKLOAD = "graphchi-als"  # fastest real workload
PLATFORMS = ("cpu-ddr4", "ideal", "charon")


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Fresh in-process memos; captures persist in a throwaway disk
    cache so the second sweep replays without re-running collectors."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "trace-cache"))
    clear_cache()
    yield
    clear_cache()


def grids_equal(a, b):
    assert list(a) == list(b)  # same cells, same deterministic order
    for key, result in a.items():
        assert b[key] == result  # dataclass field-by-field equality


class TestDeterministicMerge:
    def test_forked_grid_matches_serial(self):
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        forked = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        grids_equal(serial, forked)

    def test_jobs_env_variable_is_honored(self, monkeypatch):
        serial = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        monkeypatch.setenv(REPLAY_JOBS_ENV, "2")
        from_env = replay_grid(PLATFORMS, [WORKLOAD])
        grids_equal(serial, from_env)

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5"])
    def test_jobs_env_variable_must_be_a_positive_integer(
            self, monkeypatch, raw):
        monkeypatch.setenv(REPLAY_JOBS_ENV, raw)
        with pytest.raises(ConfigError, match=REPLAY_JOBS_ENV):
            replay_grid(PLATFORMS, [WORKLOAD])
        # An explicit process count does not consult the variable.
        assert replay_grid(["ideal"], [WORKLOAD], processes=1)

    def test_forked_results_warm_the_memo(self):
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        for platform in PLATFORMS:
            # replay_platform must now serve the merged result without
            # replaying again (identity, not just equality).
            assert replay_platform(platform, WORKLOAD) \
                is grid[(platform, WORKLOAD)]

    def test_warm_grid_is_stable(self):
        first = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        second = replay_grid(PLATFORMS, [WORKLOAD], processes=2)
        for key, result in first.items():
            assert second[key] is result


class TestShardJournal:
    @pytest.fixture(autouse=True)
    def fresh_stats(self):
        shard_journal.reset_stats()
        yield
        shard_journal.reset_stats()

    def test_journaled_sweep_matches_plain(self, tmp_path):
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        journaled = replay_grid(PLATFORMS, [WORKLOAD],
                                journal=tmp_path / "journal")
        grids_equal(reference, journaled)
        stats = shard_journal.STATS.snapshot()
        assert stats["runs"] == len(PLATFORMS)
        assert stats["stores"] == len(PLATFORMS)
        assert stats["hits"] == 0

    def test_completed_sweep_resumes_without_executing(self, tmp_path):
        journal = tmp_path / "journal"
        first = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        clear_cache()
        shard_journal.reset_stats()
        second = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        grids_equal(first, second)
        stats = shard_journal.STATS.snapshot()
        assert stats["hits"] == len(PLATFORMS)
        assert stats["runs"] == 0  # the no-rework witness

    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        """Kill the sweep after its first shard lands (``os._exit`` —
        no cleanup, the claim file stays orphaned), then resume: only
        the unfinished shards execute and the merged grid is identical
        to an uninterrupted serial sweep."""
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        journal = tmp_path / "journal"

        def crash_after_first_shard():
            original = shard_journal.store_shard

            def store_and_die(directory, key, result, **kwargs):
                original(directory, key, result, **kwargs)
                os._exit(9)

            shard_journal.store_shard = store_and_die
            replay_grid(PLATFORMS, [WORKLOAD], journal=journal)

        context = multiprocessing.get_context("fork")
        sweep = context.Process(target=crash_after_first_shard)
        sweep.start()
        sweep.join()
        assert sweep.exitcode == 9
        assert len(list(journal.glob("*.shard.json"))) == 1
        # the kill skipped the claim release; resume must shrug it off
        assert len(list(journal.glob("*.claim"))) == 1

        clear_cache()
        shard_journal.reset_stats()
        resumed = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        grids_equal(reference, resumed)
        stats = shard_journal.STATS.snapshot()
        assert stats["hits"] == 1  # the pre-crash shard, not re-run
        assert stats["runs"] == len(PLATFORMS) - 1

    def test_torn_entry_is_discarded_and_rerun(self, tmp_path):
        journal = tmp_path / "journal"
        reference = replay_grid(PLATFORMS, [WORKLOAD], journal=journal)
        torn = sorted(journal.glob("*.shard.json"))[0]
        torn.write_text("{ torn mid-write")
        clear_cache()
        shard_journal.reset_stats()
        with pytest.warns(UserWarning, match="stale shard"):
            resumed = replay_grid(PLATFORMS, [WORKLOAD],
                                  journal=journal)
        grids_equal(reference, resumed)
        stats = shard_journal.STATS.snapshot()
        assert stats["stale"] == 1
        assert stats["runs"] == 1
        assert stats["hits"] == len(PLATFORMS) - 1

    def test_forked_workers_steal_shards(self, tmp_path):
        if not _fork_available():
            pytest.skip("no fork start method on this platform")
        reference = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        clear_cache()
        shard_journal.reset_stats()
        stolen = replay_grid(PLATFORMS, [WORKLOAD], processes=2,
                             journal=tmp_path / "journal")
        grids_equal(reference, stolen)
        stats = shard_journal.STATS.snapshot()
        # claims made the workers disjoint: every shard ran exactly
        # once across the pool (the tally is fork-shared)
        assert stats["runs"] == len(PLATFORMS)
        assert stats["stores"] == len(PLATFORMS)

    def test_journal_env_variable_is_honored(self, tmp_path,
                                             monkeypatch):
        journal = tmp_path / "journal"
        monkeypatch.setenv(shard_journal.REPRO_SHARD_JOURNAL,
                           str(journal))
        replay_grid(PLATFORMS, [WORKLOAD])
        assert len(list(journal.glob("*.shard.json"))) \
            == len(PLATFORMS)


class TestGridShape:
    def test_grid_covers_every_cell(self):
        grid = replay_grid(PLATFORMS, [WORKLOAD], processes=1)
        assert set(grid) == {(platform, WORKLOAD)
                             for platform in PLATFORMS}
        for result in grid.values():
            assert result.wall_seconds > 0.0

    def test_single_cell_grid_stays_serial(self):
        """One pending job must not pay for a worker pool."""
        grid = replay_grid(("ideal",), [WORKLOAD], processes=4)
        assert set(grid) == {("ideal", WORKLOAD)}
