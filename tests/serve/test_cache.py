"""Unit tests of the epoch-tagged LRU bound cache."""

import pytest

from repro.serve import EpochLRUCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = EpochLRUCache(maxsize=4)
        assert cache.get((1, 2)) is None
        assert cache.put([(1, 2)], [17], epoch=0)
        assert cache.get((1, 2)) == 17
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_rejects_bad_maxsize_and_epoch(self):
        with pytest.raises(ValueError):
            EpochLRUCache(maxsize=0)
        with pytest.raises(ValueError):
            EpochLRUCache(epoch=-1)

    def test_len_and_clear(self):
        cache = EpochLRUCache(maxsize=8)
        cache.put([(item,) for item in range(5)], list(range(5)), epoch=0)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0
        assert cache.epoch == 0

    def test_hit_rate(self):
        cache = EpochLRUCache(maxsize=4)
        assert cache.stats.hit_rate == 0.0
        cache.put([(1,)], [1], epoch=0)
        cache.get((1,))
        cache.get((2,))
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache = EpochLRUCache(maxsize=2)
        cache.put([(1,), (2,)], [1, 2], epoch=0)
        cache.get((1,))                 # (2,) is now LRU
        cache.put([(3,)], [3], epoch=0)     # evicts (2,)
        assert cache.get((2,)) is None
        assert cache.get((1,)) == 1
        assert cache.get((3,)) == 3
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = EpochLRUCache(maxsize=2)
        cache.put([(1,), (2,)], [1, 2], epoch=0)
        cache.put([(1,)], [1], epoch=0)     # refresh, no growth
        assert len(cache) == 2
        cache.put([(3,)], [3], epoch=0)     # evicts (2,)
        assert cache.get((2,)) is None
        assert cache.get((1,)) == 1

    def test_batch_over_budget_keeps_its_newest_entries(self):
        cache = EpochLRUCache(maxsize=3)
        cache.put([(9,)], [9], epoch=0)
        cache.put([(item,) for item in range(4)], list(range(4)), epoch=0)
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        assert cache.get((9,)) is None and cache.get((0,)) is None
        assert [cache.get((item,)) for item in (1, 2, 3)] == [1, 2, 3]

    def test_batch_with_cached_keys_moves_to_the_recent_end(self):
        cache = EpochLRUCache(maxsize=3)
        cache.put([(1,), (2,), (3,)], [1, 2, 3], epoch=0)
        cache.put([(4,), (1,)], [4, 1], epoch=0)    # evicts (2,)
        assert cache.get((2,)) is None
        assert [cache.get((item,)) for item in (3, 4, 1)] == [3, 4, 1]


class TestEpochs:
    def test_advance_invalidates_wholesale(self):
        cache = EpochLRUCache(maxsize=8)
        cache.put([(item,) for item in range(4)], list(range(4)), epoch=0)
        assert cache.advance_epoch(1) is True
        assert len(cache) == 0
        assert cache.stats.invalidations == 4
        for item in range(4):
            assert cache.get((item,)) is None

    def test_advance_to_same_epoch_is_noop(self):
        cache = EpochLRUCache(maxsize=8)
        cache.put([(1,)], [1], epoch=0)
        assert cache.advance_epoch(0) is False
        assert cache.get((1,)) == 1

    def test_put_at_the_advanced_epoch_is_kept(self):
        cache = EpochLRUCache(maxsize=8)
        cache.put([(1,)], [1], epoch=0)
        cache.advance_epoch(1)
        assert cache.put([(1,), (2,)], [3, 4], epoch=1) is True
        assert [cache.get((1,)), cache.get((2,))] == [3, 4]
        assert cache.stats.stale_drops == 0

    def test_epoch_must_be_monotonic(self):
        cache = EpochLRUCache(maxsize=8, epoch=3)
        with pytest.raises(ValueError, match="monotonic"):
            cache.advance_epoch(2)

    def test_stale_put_is_dropped(self):
        cache = EpochLRUCache(maxsize=8)
        cache.advance_epoch(2)
        # A bound computed against epoch 1 lands after the bump: drop.
        assert cache.put([(1, 2), (3,)], [9, 4], epoch=1) is False
        assert cache.get((1, 2)) is None
        assert len(cache) == 0
        assert cache.stats.stale_drops == 2

    def test_put_from_a_replaced_map_is_dropped(self):
        # A same-epoch reshape keeps the epoch: the caller says the map
        # is no longer current, and the put is stale all the same.
        cache = EpochLRUCache(maxsize=8)
        assert cache.put([(1, 2), (3,)], [9, 4], epoch=0, current=False) is False
        assert len(cache) == 0
        assert cache.stats.stale_drops == 2

    def test_stale_entry_is_dropped_on_get(self):
        # Defense in depth for the §10 invariant: even if an old-epoch
        # entry somehow survives, it is never served.
        cache = EpochLRUCache(maxsize=8)
        cache.put([(1,)], [5], epoch=0)
        cache._entries[(1,)] = (0, 5)   # simulate a leaked stale entry
        cache.epoch = 1
        assert cache.get((1,)) is None
        assert cache.stats.stale_drops == 1
