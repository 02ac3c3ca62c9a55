"""Per-layer metrics and the break-even table from the traced run.

Mining spans come from this process (``apriori.mine`` roots with
``itemsets.apriori_gen``, ``pruning.prune`` and ``counting.count``
children); serving spans come from the traced gateway
(``tenant.query_batch``, ``service.query_batch``,
``ossm.upper_bounds``) and from this process's client
(``client.request``). Mining figures are means per traced
Apriori+OSSM run, so ``itemsets.gen_s + pruning.bound_s +
counting.count_s + apriori.self_s`` is the mean traced run exactly.
"""

from __future__ import annotations

import bisect
import statistics
from collections.abc import Sequence

from spans import Recorder, Span, self_time

LEVELS = (2, 3, 4)


def _sum(spans: Sequence[Span], field: str | None = None) -> float:
    if field is None:
        return sum(span.duration for span in spans)
    return sum(span.attrs[field] for span in spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mining_layers(recorder: Recorder, loss_evaluations: int):
    """Per-layer mining metrics and the break-even rows."""
    roots = recorder.named("apriori.mine")
    runs = len(roots)
    gen = recorder.named("itemsets.apriori_gen")
    prune = recorder.named("pruning.prune")
    count = recorder.named("counting.count")
    gen_s, bound_s, count_s = (
        _sum(spans) / runs for spans in (gen, prune, count)
    )
    bounded = _sum(prune, "n_in")
    counted = _sum(count, "n")
    metrics = {
        "itemsets.gen_s": (gen_s, "s"),
        "itemsets.candidates": (_sum(gen, "n") / runs, "count"),
        "pruning.bound_s": (bound_s, "s"),
        "pruning.bound_us_per_candidate": (
            _ratio(_sum(prune) * 1e6, bounded), "us"
        ),
        "pruning.pruned_share": (
            _ratio(bounded - _sum(prune, "n_out"), bounded), "share"
        ),
        "counting.count_s": (count_s, "s"),
        "counting.counted": (counted / runs, "count"),
        "counting.count_us_per_candidate": (
            _ratio(_sum(count) * 1e6, counted), "us"
        ),
        "apriori.self_s": (
            _sum(roots) / runs - gen_s - bound_s - count_s, "s"
        ),
    }
    rows = []
    for level in LEVELS:
        gen_k = [s for s in gen if s.attrs["level"] == level]
        prune_k = [s for s in prune if s.attrs["level"] == level]
        count_k = [s for s in count if s.attrs["level"] == level]
        prefix = f"apriori.l{level}"
        metrics[f"{prefix}.gen_s"] = (_sum(gen_k) / runs, "s")
        metrics[f"{prefix}.bound_s"] = (_sum(prune_k) / runs, "s")
        metrics[f"{prefix}.count_s"] = (_sum(count_k) / runs, "s")
        metrics[f"{prefix}.candidates"] = (_sum(gen_k, "n") / runs, "count")
        metrics[f"{prefix}.counted"] = (_sum(count_k, "n") / runs, "count")
        rows.append((str(level), prune_k, count_k))
    rows.append(("all", [s for s in prune if s.attrs["level"] >= 2], count))
    metrics["loss.evaluations"] = (float(loss_evaluations), "count")
    return metrics, break_even_table(rows, runs)


def break_even_table(rows, runs: int) -> list[str]:
    """Pruning pays at a level iff bounding one candidate costs less
    than the counting it saves: ``bound_us < pruned_share × count_us``."""
    lines = [
        "break-even (per traced +OSSM run): pruning pays iff "
        "bound_us < pruned_share x count_us",
        f"{'level':>5} {'bounded':>10} {'bound_us':>9} {'pruned':>7} "
        f"{'count_us':>9} {'saved_us':>9}  pays",
    ]
    for label, prune, count in rows:
        bounded = _sum(prune, "n_in")
        if not bounded:
            lines.append(f"{label:>5} {'-':>10}  (no candidates)")
            continue
        bound_us = _sum(prune) * 1e6 / bounded
        share = (bounded - _sum(prune, "n_out")) / bounded
        count_us = _ratio(_sum(count) * 1e6, _sum(count, "n"))
        saved = share * count_us
        lines.append(
            f"{label:>5} {bounded / runs:>10.0f} {bound_us:>9.3f} {share:>7.3f} "
            f"{count_us:>9.3f} {saved:>9.3f}  "
            f"{'yes' if bound_us < saved else 'no'}"
        )
    return lines


def link_server_spans(server: list[Span]) -> None:
    """Give each request its batch and each evaluation its batch.

    The tenant's scheduler flushes one batch at a time, so a request
    rides the first batch that starts after it arrives, and an
    evaluation belongs to the batch whose interval holds its start.
    """
    batches = sorted(
        (s for s in server if s.name == "service.query_batch"),
        key=lambda s: s.start,
    )
    starts = [s.start for s in batches]
    for span in server:
        if span.name == "tenant.query_batch":
            index = bisect.bisect_left(starts, span.start)
            if index < len(batches):
                span.attrs["batch"] = batches[index].id
        elif span.name == "ossm.upper_bounds":
            index = bisect.bisect_right(starts, span.start) - 1
            if index >= 0 and batches[index].end >= span.start:
                span.parent = batches[index].id


def serving_layers(phase, server: list[Span], counters: dict,
                   before: dict, after: dict):
    """Per-layer serving metrics over the traced phase's timed chunks;
    *before* and *after* are the tenant's stats around them."""
    starts = [start for start, _ in phase.windows]

    def timed(span: Span) -> bool:
        index = bisect.bisect_right(starts, span.start) - 1
        return index >= 0 and span.start <= phase.windows[index][1]

    inside = [s for s in server if timed(s)]
    requests = [s for s in inside if s.name == "tenant.query_batch"]
    batches = {s.id: s for s in inside if s.name == "service.query_batch"}
    evals = [s for s in inside if s.name == "ossm.upper_bounds"]
    ok = [r for r in phase.timed if r.ok]
    client_ms = statistics.fmean((r.received - r.sent) * 1e3 for r in ok)
    tenant_ms = statistics.fmean(s.duration * 1e3 for s in requests)
    waits = [
        (s.duration - batches[s.attrs["batch"]].duration) * 1e3
        for s in requests if s.attrs.get("batch") in batches
    ]
    children: dict[str, list[Span]] = {key: [] for key in batches}
    for span in evals:
        if span.parent in children:
            children[span.parent].append(span)
    service_self = [
        self_time(batch, children[key]) * 1e3
        for key, batch in batches.items()
    ]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    late = [
        (r.sent - r.due) * 1e3 for r in phase.timed if r.sent
    ] if phase.traffic == "single" else [0.0]
    return {
        "gateway.self_ms": (client_ms - tenant_ms, "ms"),
        "admission.wait_ms": (statistics.fmean(waits), "ms"),
        "admission.queries_per_batch": (
            statistics.fmean(s.attrs["n"] for s in batches.values()),
            "count",
        ),
        "service.self_ms": (statistics.fmean(service_self), "ms"),
        "cache.hit_rate": (_ratio(hits, hits + misses), "share"),
        "eval.ms_per_call": (
            statistics.fmean(s.duration * 1e3 for s in evals), "ms"
        ),
        "eval.itemsets_per_call": (
            statistics.fmean(s.attrs["n"] for s in evals), "count"
        ),
        "client.late_ms": (statistics.fmean(late), "ms"),
        "tenants.quota_shed": (
            float(after["admission"]["quota_shed"]
                  - before["admission"]["quota_shed"]), "count"
        ),
        "service.shed": (float(counters.get("serve.shed", 0)), "count"),
    }


def client_spans(phase) -> list[Span]:
    return [
        Span(
            "client.request", f"r{index}", r.sent, r.received, None,
            {"due": r.due, "status": r.status, "n": len(r.itemsets)},
        )
        for index, r in enumerate(phase.timed) if r.sent
    ]
