"""Unit tests for shard planning and worker resolution."""

import os

import pytest

from repro.parallel import ShardPlan, resolve_workers
from repro.parallel.plan import WORKERS_ENV


class TestResolveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_none_consults_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_none_without_env_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(None)


class TestShardPlan:
    def test_sizes_and_ranges(self):
        plan = ShardPlan((0, 3, 3, 10))
        assert plan.n_shards == 3
        assert plan.n_transactions == 10
        assert plan.sizes == (3, 0, 7)
        assert plan.ranges() == [(0, 3), (3, 3), (3, 10)]

    def test_empty_collection_plan(self):
        plan = ShardPlan((0,))
        assert plan.n_shards == 0
        assert plan.n_transactions == 0
        assert plan.ranges() == []

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            ShardPlan((1, 5))

    def test_must_be_sorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ShardPlan((0, 5, 3))
