"""Command-line interface: ``python -m repro`` / ``repro-ossm``.

Subcommands cover the full pipeline:

* ``generate`` — synthesize a workload (quest / skewed / alarms) to a
  file;
* ``ossm`` — segment a transaction file and save the resulting OSSM;
* ``mine`` — run a miner (optionally OSSM-accelerated) over a file;
* ``serve`` — answer Equation (1) bound queries from a saved OSSM
  through the online :class:`~repro.serve.service.BoundQueryService`
  (epoch-tagged cache, back-pressure), or with ``--listen`` serve them
  over HTTP from the multi-tenant gateway (which also serves
  ``/metrics``, ``/health`` and ``/stats``);
* ``recipe`` — print the Figure 7 strategy recommendation;
* ``bench-history`` — read the accumulated ``BENCH_*.json`` records
  and flag per-metric regressions beyond a noise band.

Every subcommand accepts the observability flags ``--log-level``,
``--log-json``, ``--trace-out PATH``, and ``--metrics-out PATH``:
logging is opt-in (the library is silent otherwise), and the trace/
metrics files are JSON exports of the run's span tree and metric
snapshot (per-level spans, prune/keep counters, the Equation (1)
bound-tightness histogram, counting timers).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from collections.abc import Sequence

from .analysis.cli import add_lint_arguments, run_lint
from .bench.history import load_bench_records, render_history, trajectories
from .core.bubble import bubble_list_for
from .core.greedy import GreedySegmenter
from .core.hybrid import RandomGreedySegmenter, RandomRCSegmenter
from .core.ossm import OSSM
from .core.random_seg import RandomSegmenter
from .core.rc import RCSegmenter
from .core.recipe import RecipeInputs, recommend
from .data import io as data_io
from .data.alarms import generate_alarms
from .data.pages import PagedDatabase
from .data.quest import generate_quest
from .data.skewed import generate_skewed
from .mining.apriori import Apriori
from .mining.depth_project import DepthProject
from .mining.dhp import DHP
from .mining.eclat import Eclat
from .mining.fpgrowth import FPGrowth
from .mining.partition import Partition
from .mining.pruning import NullPruner, OSSMPruner
from .obs.instrument import record_ossm_build
from .obs.log import configure_logging, get_logger
from .obs.metrics import MetricsRegistry, get_registry, use_registry
from .obs.trace import TraceRecorder, use_recorder
from .resilience import ResilienceError
from .resilience.faults import get_injector
from .serve.durability import TenantStore
from .serve.gateway import Gateway
from .serve.service import BoundQueryService
from .serve.tenants import TenantQuota, TenantRegistry

__all__ = ["main"]

logger = get_logger(__name__)

_SEGMENTERS = ("greedy", "rc", "random", "random-rc", "random-greedy")
_MINERS = (
    "apriori", "dhp", "fpgrowth", "eclat", "partition", "depthproject",
    "charm",
)


def _observability_parent() -> argparse.ArgumentParser:
    """Observability flags shared by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level", default=None,
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="enable library logging at this level (silent by default)",
    )
    group.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of text",
    )
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's span tree as JSON to PATH",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metric snapshot as JSON to PATH",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    obs = _observability_parent()
    parser = argparse.ArgumentParser(
        prog="repro-ossm",
        description="OSSM (ICDE 2002) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="synthesize a workload file", parents=[obs]
    )
    gen.add_argument("--kind", choices=("quest", "skewed", "alarms"),
                     default="quest")
    gen.add_argument("--out", required=True, help=".dat/.txt or .npz path")
    gen.add_argument("--transactions", type=int, default=10_000)
    gen.add_argument("--items", type=int, default=1000)
    gen.add_argument("--avg-length", type=float, default=10.0)
    gen.add_argument("--patterns", type=int, default=2000,
                     help="quest: potentially-frequent itemset pool size")
    gen.add_argument("--skew", type=float, default=0.8,
                     help="skewed: seasonal bias in [0,1]")
    gen.add_argument("--seed", type=int, default=0)

    ossm = sub.add_parser(
        "ossm", help="segment a workload into an OSSM", parents=[obs]
    )
    ossm.add_argument("--data", required=True)
    ossm.add_argument("--out", required=True, help="OSSM .npz path")
    ossm.add_argument("--algorithm", choices=_SEGMENTERS, default="greedy")
    ossm.add_argument("--segments", type=int, default=40,
                      help="n_user: number of segments to produce")
    ossm.add_argument("--page-size", type=int, default=100)
    ossm.add_argument("--n-mid", type=int, default=200,
                      help="hybrids: intermediate segment count")
    ossm.add_argument("--bubble-size", type=int, default=0,
                      help="bubble-list length (0 = no bubble list)")
    ossm.add_argument("--bubble-minsup", type=float, default=0.0025)
    ossm.add_argument("--seed", type=int, default=0)

    mine = sub.add_parser(
        "mine", help="mine frequent itemsets", parents=[obs]
    )
    mine.add_argument("--data", required=True)
    mine.add_argument("--minsup", type=float, default=0.01,
                      help="relative support threshold in (0,1]")
    mine.add_argument("--algorithm", choices=_MINERS, default="apriori")
    mine.add_argument("--ossm", help="OSSM .npz to prune with")
    mine.add_argument("--max-level", type=int, default=0,
                      help="cardinality cap (0 = unbounded)")
    mine.add_argument("--workers", type=int, default=0,
                      help="0 = serial. Counting fans out over this many "
                           "threads on the bitmap engine (the default "
                           "engine with --workers); other engines count "
                           "serially. DHP's chunk passes and Partition's "
                           "phase 1 use this many worker processes "
                           "(apriori/dhp/partition only)")
    mine.add_argument("--engine", default=None,
                      help="counting engine: subset, tidset, hashtree or "
                           "bitmap (apriori/partition only)")
    mine.add_argument("--top", type=int, default=20,
                      help="itemsets to print (0 = all)")
    mine.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                      help="snapshot loop state there after every level "
                           "(apriori/dhp/partition only)")
    mine.add_argument("--resume", action="store_true",
                      help="resume from the newest valid checkpoint in "
                           "--checkpoint-dir")

    serve = sub.add_parser(
        "serve",
        help="answer Equation (1) bound queries from a saved OSSM",
        parents=[obs],
    )
    serve.add_argument("--ossm", required=True, help="OSSM .npz path")
    serve.add_argument(
        "--queries", default="-", metavar="PATH",
        help="itemset-per-line query file ('-' = stdin; items "
             "comma/space separated)",
    )
    serve.add_argument("--batch", type=int, default=64,
                       help="itemsets per service batch")
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--max-pending", type=int, default=1024)
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-batch timeout in seconds")
    serve.add_argument("--quiet", action="store_true",
                       help="print only the summary line")
    serve.add_argument("--slo-target", type=float, default=None,
                       metavar="SECONDS",
                       help="per-batch latency SLO target; batches over "
                            "it count against the error budget")
    serve.add_argument("--listen", default=None, metavar="[HOST:]PORT",
                       help="run the multi-tenant HTTP gateway instead "
                            "of a one-shot query pass (':0' = any free "
                            "port on 127.0.0.1); the --ossm map becomes "
                            "the --tenant tenant")
    serve.add_argument("--tenant", default="default", metavar="NAME",
                       help="tenant name the --ossm map is served under "
                            "in --listen mode")
    serve.add_argument("--rate", type=float, default=None,
                       metavar="QPS",
                       help="--listen mode: per-tenant sustained "
                            "queries/second quota (default unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       metavar="N",
                       help="--listen mode: per-tenant burst reservoir "
                            "(default one second at --rate)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="--listen mode: durable control-plane root "
                            "(write-ahead log + artifact directory); "
                            "tenants recover from it at boot and SIGHUP "
                            "re-reads its quotas.json overrides")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="--listen mode: max seconds to drain "
                            "in-flight work after SIGTERM/SIGINT before "
                            "exiting anyway")

    recipe = sub.add_parser(
        "recipe", help="Figure 7 recommendation", parents=[obs]
    )
    recipe.add_argument("--n-user", type=int, required=True)
    recipe.add_argument("--pages", type=int, required=True)
    recipe.add_argument("--skewed", action="store_true")
    recipe.add_argument("--cost-matters", action="store_true")

    lint = sub.add_parser(
        "lint",
        help="run the project-specific static-analysis pass",
        parents=[obs],
    )
    add_lint_arguments(lint)

    history = sub.add_parser(
        "bench-history",
        help="trajectories and regression flags from BENCH_*.json",
        parents=[obs],
    )
    history.add_argument("--dir", default=".", metavar="DIR",
                         help="directory holding BENCH_*.json files")
    history.add_argument("--window", type=int, default=5,
                         help="baseline window: median of this many "
                              "preceding records")
    history.add_argument("--min-records", type=int, default=3,
                         help="series shorter than this are reported "
                              "as 'new', never flagged")
    history.add_argument("--tolerance", type=float, default=0.25,
                         help="relative noise band; moves beyond it "
                              "in the worsening direction are flagged")
    history.add_argument("--check", action="store_true",
                         help="exit 1 when any regression is flagged "
                              "(default: report only)")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "quest":
        db = generate_quest(
            n_transactions=args.transactions,
            n_items=args.items,
            avg_transaction_len=args.avg_length,
            n_patterns=args.patterns,
            seed=args.seed,
        )
    elif args.kind == "skewed":
        db = generate_skewed(
            n_transactions=args.transactions,
            n_items=args.items,
            avg_transaction_len=args.avg_length,
            skew=args.skew,
            seed=args.seed,
        )
    else:
        db = generate_alarms(
            n_windows=args.transactions,
            n_alarm_types=args.items,
            seed=args.seed,
        )
    data_io.save(db, args.out)
    print(f"wrote {len(db)} transactions over {db.n_items} items to {args.out}")
    return 0


def _make_segmenter(args: argparse.Namespace, items) -> object:
    if args.algorithm == "greedy":
        return GreedySegmenter(items=items)
    if args.algorithm == "rc":
        return RCSegmenter(seed=args.seed, items=items)
    if args.algorithm == "random":
        return RandomSegmenter(seed=args.seed, items=items)
    if args.algorithm == "random-rc":
        return RandomRCSegmenter(n_mid=args.n_mid, seed=args.seed, items=items)
    return RandomGreedySegmenter(n_mid=args.n_mid, seed=args.seed, items=items)


def _cmd_ossm(args: argparse.Namespace) -> int:
    db = data_io.load(args.data)
    paged = PagedDatabase(db, page_size=args.page_size)
    items = None
    if args.bubble_size:
        items = bubble_list_for(db, args.bubble_minsup, args.bubble_size)
    segmenter = _make_segmenter(args, items)
    result = segmenter.segment(paged, args.segments)
    result.ossm.save(args.out)
    print(
        f"{result.algorithm}: {paged.n_pages} pages -> "
        f"{result.n_segments} segments in {result.elapsed_seconds:.2f}s "
        f"({result.loss_evaluations} loss evaluations); "
        f"nominal size {result.ossm.nominal_size_bytes() / 1e6:.3f} MB; "
        f"saved to {args.out}"
    )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    db = data_io.load(args.data)
    max_level = args.max_level or None
    workers = args.workers or None
    if workers is not None and args.algorithm not in (
        "apriori", "dhp", "partition"
    ):
        logger.warning(
            "--workers is only supported by apriori/dhp/partition; "
            "running %s serially", args.algorithm,
        )
        workers = None
    engine = getattr(args, "engine", None)
    if engine is not None and args.algorithm not in ("apriori", "partition"):
        logger.warning(
            "--engine is only supported by apriori/partition; "
            "ignoring it for %s", args.algorithm,
        )
        engine = None
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    if (checkpoint_dir or resume) and args.algorithm not in (
        "apriori", "dhp", "partition"
    ):
        logger.warning(
            "--checkpoint-dir/--resume are only supported by "
            "apriori/dhp/partition; ignoring them for %s", args.algorithm,
        )
        checkpoint_dir, resume = None, False
    if resume and not checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    pruner = NullPruner()
    if args.ossm:
        ossm = OSSM.load(args.ossm)
        record_ossm_build(ossm)
        logger.info("loaded OSSM %r from %s", ossm, args.ossm)
        pruner = OSSMPruner(ossm)
    if args.algorithm == "apriori":
        miner = Apriori(
            pruner=pruner, max_level=max_level, workers=workers,
            engine=engine, checkpoint_dir=checkpoint_dir, resume=resume,
        )
    elif args.algorithm == "dhp":
        miner = DHP(
            pruner=pruner, max_level=max_level, workers=workers,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
    elif args.algorithm == "depthproject":
        miner = DepthProject(pruner=pruner, max_level=max_level)
    elif args.algorithm == "partition":
        miner = Partition(
            max_level=max_level, workers=workers, engine=engine,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
    elif args.algorithm == "fpgrowth":
        miner = FPGrowth(max_level=max_level)
    elif args.algorithm == "charm":
        from .mining.closed import mine_closed

        result = mine_closed(db, args.minsup, max_level=max_level)
        miner = None
    else:
        miner = Eclat(max_level=max_level)
    if miner is not None:
        result = miner.mine(db, args.minsup)
    print(
        f"{result.algorithm}: {result.n_frequent} frequent itemsets "
        f"(minsup {result.min_support} of {len(db)}) "
        f"in {result.elapsed_seconds:.2f}s; "
        f"candidates counted {result.candidates_counted()}"
    )
    top = args.top if args.top > 0 else None
    for itemset, support in result.sorted_itemsets(top):
        print(f"  {{{','.join(map(str, itemset))}}}: {support}")
    return 0


def _parse_query_lines(lines) -> list[tuple[int, ...]]:
    """Parse itemset-per-line query text (comma or space separated)."""
    queries: list[tuple[int, ...]] = []
    for line in lines:
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        items = text.replace(",", " ").split()
        queries.append(tuple(int(item) for item in items))
    return queries


def _parse_listen(spec: str) -> tuple[str, int]:
    """``[HOST:]PORT`` → (host, port); bare ``:0``/``0`` binds loopback."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid --listen {spec!r}: expected [HOST:]PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid --listen port {port}")
    return host or "127.0.0.1", port


def _sighup_quota_reload(registry: TenantRegistry) -> None:
    """SIGHUP: re-read ``quotas.json`` overrides without dropping
    connections (a no-op with a warning when no state dir is attached)."""
    if registry.store is None:
        logger.warning(
            "SIGHUP ignored: no --state-dir to re-read quota "
            "overrides from"
        )
        return
    try:
        applied = registry.apply_quota_overrides()
    except ValueError as exc:
        logger.warning("SIGHUP quota overrides not applied: %s", exc)
        return
    logger.info("SIGHUP: applied %d quota override(s)", applied)


def _cmd_serve_gateway(args: argparse.Namespace, ossm: OSSM) -> int:
    """``serve --listen``: run the multi-tenant HTTP gateway until
    SIGINT/SIGTERM, serving the loaded map as the ``--tenant`` tenant.

    With ``--state-dir`` the control plane is durable: boot recovers
    every tenant from the write-ahead log + artifact directory, every
    create/publish/delete is WAL-logged before it takes effect, and
    shutdown drains in-flight work under ``--drain-timeout`` with the
    gateway's ``/ready`` flipped to 503 so load balancers fail over.
    """
    host, port = _parse_listen(args.listen)
    quota = TenantQuota(rate=args.rate, burst=args.burst)

    # The gateway's /metrics route renders the active registry; a
    # long-running server should always export live counters, so
    # activate one here unless --metrics-out already did.
    metrics_scope: contextlib.AbstractContextManager[object]
    if get_registry().enabled:
        metrics_scope = contextlib.nullcontext()
    else:
        metrics_scope = use_registry(MetricsRegistry())

    registry_kwargs: dict[str, object] = dict(
        max_pending_total=args.max_pending,
        default_quota=quota,
        cache_size=args.cache_size,
        timeout=args.timeout,
        slo_target=args.slo_target,
    )

    async def run() -> None:
        if args.state_dir is not None:
            registry = TenantRegistry.recover(
                TenantStore(args.state_dir), **registry_kwargs
            )
        else:
            registry = TenantRegistry(**registry_kwargs)
        recovered = len(registry)
        try:
            if args.tenant in registry:
                # The WAL wins: the recovered epoch keeps serving and
                # the --ossm map stays the bootstrap-only default.
                epoch = registry.get(args.tenant).epoch
            else:
                epoch = registry.create(args.tenant, ossm).epoch
            async with Gateway(registry, host=host, port=port) as gateway:
                suffix = (
                    f" ({recovered} tenant(s) recovered "
                    f"from {args.state_dir})"
                    if args.state_dir is not None
                    else ""
                )
                print(
                    f"gateway on {gateway.url}/ "
                    f"serving tenant {args.tenant!r} at epoch {epoch}"
                    f"{suffix}",
                    flush=True,
                )
                stop = asyncio.Event()
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGINT, signal.SIGTERM):
                    loop.add_signal_handler(signum, stop.set)
                loop.add_signal_handler(
                    signal.SIGHUP, _sighup_quota_reload, registry
                )
                try:
                    await stop.wait()
                finally:
                    for signum in (
                        signal.SIGINT, signal.SIGTERM, signal.SIGHUP
                    ):
                        loop.remove_signal_handler(signum)
                # Graceful drain: readiness off first (load balancers
                # stop routing within a probe interval), then let
                # in-flight batches finish under the deadline; the
                # listener itself closes when the Gateway context
                # exits, so health probes get answers throughout.
                gateway.begin_drain()
                injector = get_injector()
                if injector.enabled:
                    # Off-loop so /ready keeps answering 503 (and
                    # /health 200) while the chaos harness holds the
                    # gateway in this window.
                    await asyncio.to_thread(
                        injector.maybe_sleep, "serve.drain.mid"
                    )
                try:
                    await asyncio.wait_for(
                        registry.aclose(), args.drain_timeout
                    )
                except asyncio.TimeoutError:
                    logger.warning(
                        "drain deadline (%.1fs) elapsed with work "
                        "still in flight; exiting anyway",
                        args.drain_timeout,
                    )
        finally:
            # Backstop for error paths and deadline exits: the WAL is
            # flushed and closed no matter how the gateway came down.
            if registry.store is not None:
                registry.store.close()

    try:
        with metrics_scope:
            asyncio.run(run())
    except KeyboardInterrupt:  # signal handler not installable
        pass
    print("gateway stopped")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    ossm = OSSM.load(args.ossm)
    record_ossm_build(ossm)
    if args.listen is not None:
        return _cmd_serve_gateway(args, ossm)
    if args.queries == "-":
        queries = _parse_query_lines(sys.stdin)
    else:
        with open(args.queries, encoding="utf-8") as source:
            queries = _parse_query_lines(source)
    service = BoundQueryService(
        ossm,
        cache_size=args.cache_size,
        max_pending=args.max_pending,
        timeout=args.timeout,
        slo_target=args.slo_target,
    )

    async def run() -> None:
        async with service:
            batch = max(1, args.batch)
            for start in range(0, len(queries), batch):
                chunk = queries[start:start + batch]
                bounds = await service.query_batch(chunk)
                if not args.quiet:
                    for itemset, bound in zip(chunk, bounds):
                        print(f"{{{','.join(map(str, itemset))}}}: {bound}")

    asyncio.run(run())
    stats = service.stats()
    if not args.quiet:
        latency = stats["latency"]
        slo = stats["slo"]
        line = (
            f"latency p50 {latency['p50_ms']:.2f}ms / "
            f"p95 {latency['p95_ms']:.2f}ms / p99 {latency['p99_ms']:.2f}ms "
            f"over {latency['window_count']} batches"
        )
        if slo["target_seconds"] is not None:
            line += (
                f"; SLO {slo['violations']}/{slo['requests']} violations, "
                f"error budget {slo['budget_remaining']:.1%} remaining"
            )
        print(line)
    cache = stats["cache"]
    print(
        f"served {len(queries)} queries at epoch {stats['epoch']}: "
        f"{cache['hits']} cache hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.2%}), "
        f"{cache['evictions']} evictions"
    )
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    records = load_bench_records(args.dir)
    if not records:
        print(f"no BENCH_*.json files under {args.dir}")
        return 0
    trajs = trajectories(
        records,
        window=args.window,
        min_records=args.min_records,
        tolerance=args.tolerance,
    )
    print(render_history(trajs), end="")
    regressed = any(traj.status == "regression" for traj in trajs)
    return 1 if args.check and regressed else 0


def _cmd_recipe(args: argparse.Namespace) -> int:
    strategy = recommend(
        RecipeInputs(
            n_user=args.n_user,
            n_pages=args.pages,
            data_is_skewed=args.skewed,
            segmentation_cost_matters=args.cost_matters,
        )
    )
    print(strategy)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "ossm": _cmd_ossm,
        "mine": _cmd_mine,
        "serve": _cmd_serve,
        "recipe": _cmd_recipe,
        "lint": run_lint,
        "bench-history": _cmd_bench_history,
    }
    if args.log_level:
        configure_logging(args.log_level, json=args.log_json)

    recorder = TraceRecorder() if args.trace_out else None
    registry = MetricsRegistry() if args.metrics_out else None
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(use_recorder(recorder))
        if registry is not None:
            stack.enter_context(use_registry(registry))
        try:
            code = handlers[args.command](args)
        except (ResilienceError, OSError, ValueError) as exc:
            # Operational failures — missing or damaged inputs, an
            # unusable checkpoint directory, mismatched resume state —
            # become one diagnosable line, not a traceback.
            print(
                f"error: {type(exc).__name__}: {exc}", file=sys.stderr
            )
            return 2
    if recorder is not None:
        with open(args.trace_out, "w", encoding="utf-8") as sink:
            sink.write(recorder.to_json())
        logger.info("wrote trace to %s", args.trace_out)
    if registry is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as sink:
            sink.write(registry.to_json())
        logger.info("wrote metrics to %s", args.metrics_out)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
