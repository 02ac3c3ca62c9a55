"""The benchmark's oracles reject wrong outputs; failures are counted.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import asyncio
import json
import os

import numpy as np
import pytest

import clock
import layers
import mining
import serving
from repro.core.ossm import OSSM
from repro.data.transactions import TransactionDatabase
from repro.mining.counting import make_counter
from repro.mining.itemsets import apriori_gen
from repro.mining.pruning import OSSMPruner
from spans import Recorder, Span, self_time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def tiny():
    rng = np.random.default_rng(7)
    rows = [
        tuple(sorted(set(rng.integers(0, 12, size=5).tolist())))
        for _ in range(200)
    ]
    database = TransactionDatabase(rows, n_items=12)
    ossm = OSSM.from_segments(database.split(4))
    return database, ossm


def _dataset(database, ossm, mutate=None):
    spec = mining.MiningSpec("quest", "tidset", 4, 50, 3, 0.1)
    inputs = mining.Inputs(database, None, 20)
    data = mining.Dataset(0, inputs, make_counter(spec.engine), ossm, 0, [])
    data.plain.add(*data.mine(spec, None))
    data.pruned.reference = data.plain.reference
    timing, result = data.mine(spec, OSSMPruner(ossm))
    if mutate is not None:
        mutate(result)
    data.pruned.add(timing, result)
    return data


def test_mining_check_accepts_sound_runs(tiny):
    assert mining.check([_dataset(*tiny)], seed=1) == []


def test_mining_check_rejects_a_dropped_frequent_itemset(tiny):
    def drop(result):
        result.frequent.pop(max(result.frequent, key=len))

    errors = mining.check([_dataset(*tiny, drop)], seed=1)
    assert any("differ from plain Apriori" in e for e in errors)


def test_mining_check_rejects_a_changed_support(tiny):
    def bump(result):
        itemset = next(iter(result.frequent))
        result.frequent[itemset] += 1

    errors = mining.check([_dataset(*tiny, bump)], seed=1)
    assert any("differ from plain Apriori" in e for e in errors)


def test_mining_check_rejects_a_wrong_reference_support(tiny):
    data = _dataset(*tiny)
    data.plain.reference = {k: v + 1 for k, v in data.plain.reference.items()}
    errors = mining.check([data], seed=1)
    assert any("database says" in e for e in errors)


def test_mining_check_rejects_changed_level_counts(tiny):
    data = _dataset(*tiny)
    data.pruned.shapes.append(((1, 0, 0, 0, 0),))
    errors = mining.check([data], seed=1)
    assert any("per-level candidate counts" in e for e in errors)


def _response(itemsets, bounds, epoch=0, tenant="default", status=200):
    single = len(itemsets) == 1
    body = {"tenant": tenant, "epoch": epoch}
    if single:
        body["bound"] = bounds[0]
    else:
        body["bounds"] = bounds
    request = serving.Request(itemsets, single, 0.0)
    request.status = status
    request.body = json.dumps(body).encode()
    return request


def test_serving_check_accepts_exact_bounds(tiny):
    _, ossm = tiny
    itemsets = [[0, 1], [2, 3, 4]]
    good = _response(itemsets, [ossm.upper_bound(s) for s in itemsets])
    single = _response([[5, 6]], [ossm.upper_bound([5, 6])])
    assert serving.check_responses([good, single], {0: ossm}) == []


def test_serving_check_rejects_a_wrong_bound(tiny):
    _, ossm = tiny
    wrong = _response([[0, 1]], [ossm.upper_bound([0, 1]) + 1])
    errors = serving.check_responses([wrong], {0: ossm})
    assert errors and "OSSM.upper_bound says" in errors[0]


def test_serving_check_rejects_a_mislabelled_epoch(tiny):
    database, ossm = tiny
    # A bound computed against the epoch-1 map but labelled epoch 0 —
    # the shape of a publish racing the admission linger window.
    newer = OSSM.from_segments(database.split(2))
    itemset = next(
        [a, b] for a in range(12) for b in range(a + 1, 12)
        if newer.upper_bound([a, b]) != ossm.upper_bound([a, b])
    )
    racy = _response([itemset], [newer.upper_bound(itemset)], epoch=0)
    errors = serving.check_responses([racy], {0: ossm, 1: newer})
    assert errors and "OSSM.upper_bound says" in errors[0]
    unknown = _response([itemset], [newer.upper_bound(itemset)], epoch=7)
    assert "never served" in serving.check_responses([unknown], {0: ossm})[0]


def test_non_2xx_and_connection_errors_count_toward_failed_share(tiny):
    _, ossm = tiny
    good = _response([[0, 1]], [ossm.upper_bound([0, 1])])
    shed = _response([[0, 1]], [0], status=503)
    lost = serving.Request([[0, 1]], True, 0.0)  # no response at all
    requests = [good, shed, lost, good]
    assert serving.check_responses(requests, {0: ossm}) == []
    assert serving.failed_share(requests) == pytest.approx(0.5)


def test_gateway_round_trip_is_exact(tiny, tmp_path):
    _, ossm = tiny
    path = str(tmp_path / "map.npz")
    ossm.save(path)
    gateway = serving.start_gateway(ROOT, path)
    try:
        stream = [[0, 1], [1, 2, 3], [0, 1]] * 10
        timed = asyncio.run(serving.open_loop(
            gateway.host, gateway.port, stream, 500.0
        ))
        batches = asyncio.run(serving.closed_loop(
            gateway.host, gateway.port,
            lambda i: serving.batch_itemsets(3, ossm.n_items, i), None,
            limit=4,
        ))
    finally:
        gateway.stop()
    assert gateway.process.returncode == 0
    requests = timed + batches
    assert serving.failed_share(requests) == 0.0
    assert serving.check_responses(requests, {0: ossm}) == []


def test_self_time_subtracts_the_union_of_children():
    parent = Span("p", "p", 0.0, 10.0)
    children = [Span("c", "a", 1.0, 4.0), Span("c", "b", 3.0, 5.0),
                Span("c", "c", 9.0, 12.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_traced_mining_split_adds_up(tiny):
    data = _dataset(*tiny)
    spec = mining.MiningSpec("quest", "tidset", 4, 50, 3, 0.1)
    recorder = Recorder()
    with mining.traced_gen(recorder) as gen:
        for _ in range(3):
            mining.traced_step(spec, data, recorder, gen)
    assert data.traced.mismatched == []
    assert mining.check([data], seed=1) == []
    metrics, table = layers.mining_layers(recorder, loss_evaluations=0)
    total = sum(metrics[name][0] for name in (
        "itemsets.gen_s", "pruning.bound_s", "counting.count_s",
        "apriori.self_s",
    ))
    mean_run = sum(data.traced.seconds) / len(data.traced.seconds)
    assert total == pytest.approx(mean_run)
    assert table[0].startswith("break-even")
    # The call-site wrapper is removed again after the traced runs.
    assert mining._APRIORI.apriori_gen is apriori_gen


def test_scaled_time_is_raw_time_at_the_reference_speed():
    # The machine ran at half the reference speed around the sample.
    slow = 2 * clock.REFERENCE_S
    assert clock.scale(0.3, slow, slow).scaled == pytest.approx(0.15)
    # Readings before and after are averaged.
    timing = clock.scale(0.3, clock.REFERENCE_S, 3 * clock.REFERENCE_S)
    assert timing.scaled == pytest.approx(0.15)
    timing, result = clock.timed(lambda: 42)
    assert result == 42 and 0 <= timing.raw and 0 <= timing.scaled
