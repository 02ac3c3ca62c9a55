"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-regular --seed 1 \\
        --seconds 20 --trace 0

Every workload runs both end-to-end paths of the system and weights
its ``--seconds`` towards the path whose layer it exists to stress:

* the mining path — seeded databases, each segmented into an OSSM
  (Greedy), then segmentations, plain Apriori runs and Apriori+OSSM
  runs;
* the serving path — a gateway subprocess over the last database's
  OSSM, driven over HTTP by this process.

Mining steps and serving chunks alternate for ``--seconds``. Set-up
(inputs, map build, gateway boot to ``/ready``) is done once per
database and reported as the median. Set-up and mining times are
reported at the reference speed of ``clock.py``; raw times are
printed beside them. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` first repeats the untraced phase,
then a traced one, and prints the per-layer split, a break-even table
and the span file path. Any oracle mismatch prints ``"correct": false``
and exits with status 1. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

from clock import reference_s, scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Seeded databases per run; each is one set-up.
DATABASES = 2
#: Fewest mining samples of each kind per database.
MIN_ROUNDS = 2
#: Shortest serving chunk, seconds.
MIN_CHUNK_S = 0.25


@dataclass(frozen=True)
class Workload:
    #: The path the workload exists to stress: "mining" or "serving".
    #: It picks whose peak memory ``peak_rss_mb`` is (this process's or
    #: the gateway's) and which metric ``trace.overhead_share`` compares.
    primary: str
    mining: str  # "fig4" or "alarms": which MiningSpec
    traffic: str  # "single" (open loop) or "batch" (closed loop)
    mining_share: float  # share of --seconds spent on the mining path
    why: str


WORKLOADS = {
    "fig4-regular": Workload(
        "mining", "fig4", "single", 0.75,
        "the Figure 4(a) cell; bound evaluation and counting carry "
        "the mining time",
    ),
    "alarms-deep": Workload(
        "mining", "alarms", "single", 0.75,
        "four levels deep; apriori_gen carries the mining time and "
        "OSSM prunes nothing past level 2",
    ),
    "serve-single": Workload(
        "serving", "fig4", "single", 0.6,
        "open-loop single-itemset POSTs; the HTTP front end and the "
        "admission linger carry the latency",
    ),
    "serve-batch": Workload(
        "serving", "fig4", "batch", 0.6,
        "closed-loop POSTs of 256 cold itemsets; the service layer and "
        "Equation (1) evaluation carry the latency",
    ),
}


def _import_program():
    """Import the program from ``src/``; exit 2 when it is not there."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, source)
    import layers
    import mining
    import serving
    import spans
    return mining, serving, layers, spans


def typical(samples_per_database) -> float:
    """Mean over the run's databases of each one's median sample.

    The samples are scaled to the reference speed (``clock.py``), so
    the median no longer says how long the machine spent slow.
    """
    return statistics.fmean(
        statistics.median(samples) for samples in samples_per_database
    )


def interleave(datasets, phase, gateway, seconds, mining_share, step):
    """Alternate mining steps and serving chunks for *seconds*.

    Each step takes one database (round robin) through *step*; the
    serving chunk after it lasts as long as keeps serving at
    ``1 - mining_share`` of the time. Both kinds of sample then spread
    over the whole run, so a slow stretch of the machine lands on all
    metrics alike. At least ``MIN_ROUNDS`` samples per database are
    taken whatever *seconds* says.
    """
    deadline = time.perf_counter() + seconds
    steps = 0
    while (steps < MIN_ROUNDS * len(datasets)
           or time.perf_counter() < deadline):
        began = time.perf_counter()
        step(datasets[steps % len(datasets)])
        mined = time.perf_counter() - began
        phase.chunk(
            gateway, max(MIN_CHUNK_S, mined * (1 - mining_share) / mining_share)
        )
        steps += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="OSSM repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    mining, serving, layers, spans = _import_program()
    # A SIGTERM unwinds like an error, so the gateway is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import numpy
    from repro.mining.counting import make_counter

    workload = WORKLOADS[args.workload]
    spec = {"fig4": mining.FIG4, "alarms": mining.ALARMS}[workload.mining]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    map_path = os.path.join(OUT_DIR, f"map-{tag}.npz")

    # -- set-up: one per database ----------------------------------------
    # Each of the run's databases is generated from its own sub-seed,
    # segmented, saved and served by a freshly booted gateway; the last
    # gateway stays up for the serving phase. Averaging the mining
    # metrics over several databases keeps one seed's data from
    # deciding the run.
    setups, datasets = [], []
    gateway = None
    try:
        for index in range(DATABASES):
            if gateway is not None:
                gateway.stop()
                gateway = None
            before = reference_s()
            start = time.perf_counter()
            counter = make_counter(spec.engine)
            inputs = mining.make_inputs(
                spec, args.seed * DATABASES + index, counter
            )
            segmentation = mining.segment(spec, inputs)
            segmentation.ossm.save(map_path)
            saved = time.perf_counter()
            gateway = serving.start_gateway(ROOT, map_path)
            after = reference_s()
            setups.append(scale(saved - start + gateway.boot_s, before, after))
            # The set-up's own segmentation runs cold and is part of
            # setup_s; segment_s comes from the measured phase alone.
            datasets.append(mining.Dataset(
                index, inputs, counter, segmentation.ossm,
                segmentation.loss_evaluations, [],
            ))
        served = serving.OSSM.load(map_path)
        maps = {served.epoch: served}

        # -- untraced phases --------------------------------------------
        phase = serving.Phase(args.seed, workload.traffic, served.n_items)
        phase.warm(gateway)
        interleave(
            datasets, phase, gateway, args.seconds, workload.mining_share,
            lambda data: mining.step(spec, data),
        )
        gateway_rss = gateway.peak_rss_mb()
        gateway.stop()
        gateway = None
        requests = phase.all_requests()

        traced = None
        if args.trace:
            recorder = spans.Recorder("m")
            spans_path = os.path.join(OUT_DIR, f"server-spans-{tag}.json")
            gateway = serving.start_gateway(ROOT, map_path, spans_path)
            traced_phase = serving.Phase(
                args.seed, workload.traffic, served.n_items
            )
            traced_phase.warm(gateway)
            stats_before = gateway.get_json(serving.STATS_PATH)
            with mining.traced_gen(recorder) as gen:
                interleave(
                    datasets, traced_phase, gateway, args.seconds,
                    workload.mining_share,
                    lambda data: mining.traced_step(spec, data, recorder, gen),
                )
            stats_after = gateway.get_json(serving.STATS_PATH)
            gateway.stop()
            gateway = None
            with open(spans_path, encoding="utf-8") as handle:
                server_dump = json.load(handle)
            os.unlink(spans_path)
            requests += traced_phase.all_requests()
            traced = (
                recorder, traced_phase, server_dump, stats_before, stats_after
            )
    finally:
        if gateway is not None:
            gateway.stop()
        if os.path.exists(map_path):
            os.unlink(map_path)

    errors = mining.check(datasets, args.seed)
    errors += serving.check_responses(requests, maps)
    n_runs = sum(
        len(runs.seconds) for data in datasets
        for runs in (data.plain, data.pruned, data.traced)
    )
    attempted = n_runs + len(requests)
    failed = sum(not request.ok for request in requests)

    mine_s = typical(d.pruned.scaled for d in datasets)
    mine_plain_s = typical(d.plain.scaled for d in datasets)
    segment_s = typical(
        [t.scaled for t in d.segmentations] for d in datasets
    )
    peak_rss_mb = (
        gateway_rss if workload.primary == "serving"
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    end_to_end = {
        "setup_s": (statistics.median(t.scaled for t in setups), "s"),
        "segment_s": (segment_s, "s"),
        "mine_s": (mine_s, "s"),
        "mine_plain_s": (mine_plain_s, "s"),
        "latency_p50_ms": (phase.latency_ms(50), "ms"),
        "bounds_per_s": (phase.bounds_per_s(), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    lines = [
        f"workload {args.workload} ({workload.why})",
        "env " + json.dumps({
            "seed": args.seed, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "engine": spec.engine, "n_user": spec.n_user,
            "minsup": [round(d.inputs.minsup, 6) for d in datasets],
            "min_support_count": [d.inputs.threshold for d in datasets],
            "database_seeds": [
                args.seed * DATABASES + d.index for d in datasets
            ],
            "max_level": spec.max_level, "traffic": workload.traffic,
            "seconds": args.seconds,
        }),
        f"set-up x{len(setups)}, raw s: "
        + " ".join(f"{t.raw:.3f}" for t in setups),
        f"mining: {n_runs} runs over {len(datasets)} databases; "
        f"Figure 4(a) speedup mine_plain_s / mine_s = "
        f"{mine_plain_s / mine_s:.3f}",
        "raw medians, s: segment {:.6f}, mine {:.6f}, mine_plain {:.6f}".format(
            typical([t.raw for t in d.segmentations] for d in datasets),
            typical(d.pruned.seconds for d in datasets),
            typical(d.plain.seconds for d in datasets),
        ),
        f"serving: {phase.summary()}; failed_share = "
        f"{serving.failed_share(requests):.6f}; latency_p99_ms = "
        f"{phase.latency_ms(99):.3f} (reported, not gated)",
    ]
    for name, (value, unit) in end_to_end.items():
        lines.append(f"{name:>16} {value:14.6f} {unit}")

    if traced is None:
        metrics = end_to_end
    else:
        recorder, traced_phase, server_dump, before, after = traced
        server = [spans.Span(**raw) for raw in server_dump["spans"]]
        layers.link_server_spans(server)
        metrics, table = layers.mining_layers(
            recorder, statistics.fmean(d.loss_evaluations for d in datasets)
        )
        metrics.update(layers.serving_layers(
            traced_phase, server, server_dump["counters"], before, after
        ))
        # Tracing overhead on the workload's headline metric.
        traced_seconds = [t for d in datasets for t in d.traced.seconds]
        if workload.primary == "mining":
            traced_mine_s = typical(d.traced.scaled for d in datasets)
            overhead = traced_mine_s / mine_s - 1.0
        else:
            overhead = traced_phase.latency_ms(50) / phase.latency_ms(50) - 1.0
        metrics["trace.overhead_share"] = (overhead, "share")
        span_file = os.path.join(OUT_DIR, f"spans-{tag}.json")
        spans.write_spans(
            span_file,
            recorder.spans + layers.client_spans(traced_phase) + server,
        )
        lines.append(
            f"traced mining: {len(traced_seconds)} runs, mean "
            f"{statistics.fmean(traced_seconds):.6f} s = gen + bound + "
            f"count + apriori.self_s"
        )
        lines += table
        lines.append(f"spans: {os.path.relpath(span_file, ROOT)}")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:>34} {value:14.6f} {unit}")

    for message in errors[:20]:
        lines.append(f"ORACLE MISMATCH: {message}")
    if len(errors) > 20:
        lines.append(f"... and {len(errors) - 20} more mismatches")
    print("\n".join(lines))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
