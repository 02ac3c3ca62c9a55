"""``repro.obs`` — observability: logging, metrics, tracing, reports.

Four cooperating layers, all stdlib-only and silent/no-op by default:

* :mod:`repro.obs.log` — namespaced ``repro.*`` loggers with a
  NullHandler default and a one-call :func:`configure_logging` opt-in
  (text or JSON lines);
* :mod:`repro.obs.metrics` — a process-local
  :class:`MetricsRegistry` (counters, gauges, timers, fixed-bucket
  histograms) behind a swap-in active-registry pointer;
* :mod:`repro.obs.trace` — nested span tracing via
  ``with trace("apriori.level", level=k):``, exportable as JSON or a
  text tree;
* :mod:`repro.obs.report` — renders snapshots and traces as the
  human-readable run report (including pruning effectiveness and the
  Equation (1) bound-tightness distribution);
* :mod:`repro.obs.export` — Prometheus text exposition of any
  snapshot (the gateway serves it at ``/metrics``);
* :mod:`repro.obs.quantiles` — a fixed-bucket sliding-window quantile
  estimator for rolling latency SLOs.

The overhead contract: with nothing configured, instrumented code pays
one no-op method call per event — see DESIGN.md §6 and
``benchmarks/bench_obs_overhead.py``, which enforces it.
"""

from .export import prometheus_name, render_prometheus
from .log import configure_logging, get_logger, reset_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    get_registry,
    set_registry,
    use_registry,
)
from .quantiles import LATENCY_BUCKETS, SlidingQuantile
from .report import format_snapshot, pruning_effectiveness, render_report
from .trace import (
    NullTraceRecorder,
    Span,
    TraceRecorder,
    get_recorder,
    set_recorder,
    trace,
    use_recorder,
)

__all__ = [
    "prometheus_name",
    "render_prometheus",
    "LATENCY_BUCKETS",
    "SlidingQuantile",
    "configure_logging",
    "get_logger",
    "reset_logging",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Timer",
    "get_registry",
    "set_registry",
    "use_registry",
    "format_snapshot",
    "pruning_effectiveness",
    "render_report",
    "NullTraceRecorder",
    "Span",
    "TraceRecorder",
    "get_recorder",
    "set_recorder",
    "trace",
    "use_recorder",
]
