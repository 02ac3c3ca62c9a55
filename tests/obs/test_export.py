"""Prometheus exposition of metric snapshots."""

from repro.obs.export import prometheus_name, render_prometheus
from repro.obs.metrics import MetricsRegistry


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("apriori.levels", 3)
    registry.set_gauge("cache.size", 42)
    registry.timer("counting.seconds").observe(0.5)
    registry.observe("bound.tightness", 0.25, buckets=(0.1, 0.5, 1.0))
    registry.observe("bound.tightness", 0.75, buckets=(0.1, 0.5, 1.0))
    return registry


class TestPrometheusName:
    def test_dots_become_underscores(self):
        assert prometheus_name("apriori.levels") == "repro_apriori_levels"

    def test_illegal_characters_sanitized(self):
        assert prometheus_name("a-b c") == "repro_a_b_c"

    def test_no_prefix_digit_guard(self):
        assert prometheus_name("2fast", prefix="") == "_2fast"


class TestRenderPrometheus:
    def test_counter_becomes_total(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "# TYPE repro_apriori_levels_total counter" in text
        assert "repro_apriori_levels_total 3" in text

    def test_gauge_rendered_verbatim(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "repro_cache_size 42" in text

    def test_timer_becomes_summary(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "repro_counting_seconds_count 1" in text
        assert "repro_counting_seconds_sum 0.5" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(sample_registry().snapshot())
        assert 'repro_bound_tightness_bucket{le="0.5"} 1' in text
        assert 'repro_bound_tightness_bucket{le="1.0"} 2' in text
        assert 'repro_bound_tightness_bucket{le="+Inf"} 2' in text
        assert "repro_bound_tightness_count 2" in text

    def test_empty_snapshot_is_just_a_newline(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == "\n"
