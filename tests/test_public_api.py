"""Public-API consistency checks."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.data",
    "repro.mining",
    "repro.parallel",
    "repro.bench",
    "repro.obs",
    "repro.serve",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    """Every name in __all__ is actually importable from the package."""
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_duplicate_exports(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__))


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "OSSM" in namespace
    assert "apriori" in namespace


def test_key_symbols_reachable_from_top_level():
    import repro

    for name in (
        "OSSM", "GreedySegmenter", "RCSegmenter", "RandomSegmenter",
        "RandomRCSegmenter", "RandomGreedySegmenter", "bubble_list",
        "minimize_transactions", "n_min_bound", "StreamingOSSMBuilder",
        "TransactionDatabase", "PagedDatabase", "SequenceDatabase",
        "EventSequence", "generate_quest", "generate_skewed",
        "generate_alarms", "apriori", "dhp", "fpgrowth", "eclat",
        "partition_mine", "depth_project", "gsp",
        "mine_parallel_episodes", "mine_serial_episodes",
        "OSSMPruner", "generate_rules", "recommend",
        "Session", "make_counter",
        "registered_engines",
        "BitmapCounter", "ThreadedBitmapCounter", "ThreadShardPlanner",
        "BoundQueryService", "EpochLRUCache", "Overloaded",
        "QueryTimeout", "ServiceClosed",
        "Gateway", "TenantRegistry", "Tenant", "TenantQuota",
        "TokenBucket", "BatchScheduler", "QuotaExceeded",
        "UnknownTenant", "InvalidRequest",
        "SlidingQuantile", "render_prometheus",
    ):
        assert hasattr(repro, name), name
