"""Alarm-cache pruning: LRU byte budgets and age cutoffs.

The cache grows unboundedly across archive runs; ``repro cache prune``
(backed by :meth:`AlarmCache.prune`) keeps it bounded.  Recency is the
entry's mtime, which every hit refreshes — so eviction order is LRU,
not insertion order.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.detectors.base import Alarm
from repro.net.filters import FeatureFilter
from repro.runner.cache import AlarmCache


def _alarm(src: int) -> Alarm:
    return Alarm("pca", "pca/a", 0.0, 1.0, (FeatureFilter(src=src),))


def _fill(cache: AlarmCache, n: int, mtime_start: float = 1_000_000.0):
    """n entries with strictly increasing mtimes; returns their keys."""
    keys = []
    for i in range(n):
        key = AlarmCache.make_key("arch", f"day-{i}", "ens")
        cache.put(key, [_alarm(i)])
        os.utime(cache.path_for(key), (mtime_start + i, mtime_start + i))
        keys.append(key)
    return keys


class TestPrune:
    def test_older_than_drops_stale_entries_only(self, tmp_path):
        cache = AlarmCache(tmp_path)
        keys = _fill(cache, 4, mtime_start=1000.0)
        stats = cache.prune(older_than=100.0, now=1102.0)
        # Entries at mtimes 1000, 1001 are older than now-100=1002.
        assert stats.removed == 2
        assert stats.kept == 2
        assert not cache.path_for(keys[0]).exists()
        assert not cache.path_for(keys[1]).exists()
        assert cache.path_for(keys[2]).exists()
        assert cache.path_for(keys[3]).exists()

    def test_max_bytes_evicts_least_recently_used_first(self, tmp_path):
        cache = AlarmCache(tmp_path)
        keys = _fill(cache, 4)
        sizes = {k: cache.path_for(k).stat().st_size for k in keys}
        budget = sizes[keys[2]] + sizes[keys[3]]
        stats = cache.prune(max_bytes=budget)
        assert stats.removed == 2
        assert stats.kept_bytes <= budget
        # Oldest two went; newest two stayed.
        assert [cache.path_for(k).exists() for k in keys] == [
            False, False, True, True,
        ]

    def test_hit_refreshes_recency(self, tmp_path):
        cache = AlarmCache(tmp_path)
        keys = _fill(cache, 3)
        # Touch the oldest entry through a read: it becomes the newest.
        assert cache.get(keys[0]) is not None
        budget = cache.path_for(keys[0]).stat().st_size
        stats = cache.prune(max_bytes=budget)
        assert stats.removed == 2
        assert cache.path_for(keys[0]).exists()
        assert not cache.path_for(keys[1]).exists()
        assert not cache.path_for(keys[2]).exists()

    def test_noop_prune_reports_inventory(self, tmp_path):
        cache = AlarmCache(tmp_path)
        _fill(cache, 2)
        stats = cache.prune()
        assert (stats.removed, stats.kept) == (0, 2)
        assert stats.kept_bytes > 0

    def test_pruned_cache_still_serves_survivors(self, tmp_path):
        cache = AlarmCache(tmp_path)
        keys = _fill(cache, 3)
        cache.prune(max_bytes=cache.path_for(keys[2]).stat().st_size)
        assert cache.get(keys[2]).to_alarms() == [_alarm(2)]
        assert cache.get(keys[0]) is None  # evicted = clean miss


class TestLegacyEntries:
    def test_unconvertible_list_entry_is_a_clean_evicted_miss(
        self, tmp_path
    ):
        """A pickled list at an entry's path (the pre-bundle format) is
        never unpickled: it fails bundle validation like any other
        corrupt entry — miss, evict, never raise."""
        import pickle

        cache = AlarmCache(tmp_path)
        key = AlarmCache.make_key("arch", "day", "ens")
        with cache.path_for(key).open("wb") as handle:
            pickle.dump([_alarm(1), _alarm(2)], handle)
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()
        assert cache.misses == 1

    def test_old_pickle_entries_are_not_read(self, tmp_path):
        """``*.pkl`` entries of the old format are outside the cache:
        neither counted, nor served, nor pruned."""
        cache = AlarmCache(tmp_path)
        key = AlarmCache.make_key("arch", "day", "ens")
        stale = tmp_path / f"{key}.pkl"
        stale.write_bytes(b"old entry")
        assert len(cache) == 0
        assert cache.get(key) is None
        assert stale.exists()


class TestCliCachePrune:
    def test_prune_subcommand(self, tmp_path, capsys):
        cache = AlarmCache(tmp_path)
        _fill(cache, 3)
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(tmp_path),
                    "--max-bytes",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 3 entries" in out
        assert len(cache) == 0

    def test_prune_requires_a_criterion(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "nothing to prune" in capsys.readouterr().err

    def test_human_units_parse(self, tmp_path):
        cache = AlarmCache(tmp_path)
        _fill(cache, 2, mtime_start=0.0)  # epoch = ancient
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(tmp_path),
                    "--max-bytes",
                    "1M",
                    "--older-than",
                    "30d",
                ]
            )
            == 0
        )
        # Both entries are far older than 30 days.
        assert len(cache) == 0

    def test_bad_units_are_argparse_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(tmp_path),
                    "--max-bytes",
                    "watermelon",
                ]
            )
