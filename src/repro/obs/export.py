"""Telemetry exposition: the Prometheus text format.

:func:`render_prometheus` turns any
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict into the
Prometheus text exposition format (version 0.0.4): counters as
``*_total``, gauges verbatim, timers as summaries (``_count`` /
``_sum`` plus min/max gauges), histograms as cumulative
``_bucket{le=...}`` series. Snapshots are plain dicts, so anything that
has one — a live registry, a merged cross-process aggregate, a
``--metrics-out`` file read back — can be rendered. The gateway's
``/metrics`` route (:class:`~repro.serve.gateway.Gateway`) serves it.

Rendering walks a snapshot (already the slow path), so the export
path stays off the hot path entirely.
"""

from __future__ import annotations

import re
from typing import Any

__all__ = ["render_prometheus", "prometheus_name"]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """A metric name as a valid Prometheus identifier.

    Dots (the repo's namespace separator) and any other illegal
    character become underscores; *prefix* namespaces the whole
    exposition so scraped series never collide with another job's.
    """
    sanitized = _NAME_SANITIZER.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    return repr(number)


def render_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """One snapshot as the Prometheus text exposition format."""
    lines: list[str] = []
    append = lines.append
    for name, value in snapshot.get("counters", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base}_total counter")
        append(f"{base}_total {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base} gauge")
        append(f"{base} {_format_value(value)}")
    for name, timer in snapshot.get("timers", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base} summary")
        append(f"{base}_count {_format_value(timer['count'])}")
        append(f"{base}_sum {_format_value(timer['total_seconds'])}")
        for stat in ("min", "max"):
            append(f"# TYPE {base}_{stat} gauge")
            append(
                f"{base}_{stat} "
                f"{_format_value(timer[f'{stat}_seconds'])}"
            )
    for name, histogram in snapshot.get("histograms", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base} histogram")
        cumulative = 0
        for edge, bucket_count in zip(
            histogram["buckets"], histogram["counts"]
        ):
            cumulative += int(bucket_count)
            append(
                f'{base}_bucket{{le="{_format_value(edge)}"}} {cumulative}'
            )
        append(
            f'{base}_bucket{{le="+Inf"}} {_format_value(histogram["count"])}'
        )
        append(f"{base}_sum {_format_value(histogram['total'])}")
        append(f"{base}_count {_format_value(histogram['count'])}")
    return "\n".join(lines) + "\n" if lines else "\n"
