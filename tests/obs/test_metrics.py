"""MetricsRegistry: instrument semantics and Prometheus text rendering."""

import math

import pytest

from repro.energy.accounting import Cost, Ledger
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    BoundSeries,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        counter = Counter("c", "help")
        counter.inc(process="a")
        counter.inc(2.0, process="a")
        counter.inc(5.0, process="b")
        assert counter.value(process="a") == 3.0
        assert counter.value(process="b") == 5.0
        assert counter.value(process="missing") == 0.0
        assert counter.total() == 8.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c", "").inc(-1.0)

    def test_label_order_does_not_matter(self):
        counter = Counter("c", "")
        counter.inc(1.0, a="x", b="y")
        assert counter.value(b="y", a="x") == 1.0

    def test_render(self):
        counter = Counter("requests_total", "Requests.")
        counter.inc(2.0, outcome="served")
        counter.inc(1.0, outcome="shed")
        lines = counter.render()
        assert lines[0] == "# HELP requests_total Requests."
        assert lines[1] == "# TYPE requests_total counter"
        assert 'requests_total{outcome="served"} 2' in lines
        assert 'requests_total{outcome="shed"} 1' in lines


class TestGauge:
    def test_set_add_value(self):
        gauge = Gauge("g", "")
        gauge.set(4.0, shard="0")
        gauge.add(-1.5, shard="0")
        assert gauge.value(shard="0") == 2.5

    def test_render_type_line(self):
        gauge = Gauge("g", "h")
        gauge.set(1.25)
        assert gauge.render() == ["# HELP g h", "# TYPE g gauge", "g 1.25"]


class TestHistogram:
    def test_observe_count_sum_mean(self):
        histogram = Histogram("h", "", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            histogram.observe(value, stage="queue")
        assert histogram.count(stage="queue") == 3
        assert histogram.sum(stage="queue") == 22.5
        assert histogram.mean(stage="queue") == 7.5
        assert histogram.count(stage="other") == 0
        assert histogram.sum(stage="other") == 0.0
        assert histogram.mean(stage="other") == 0.0

    def test_bucket_boundary_is_inclusive(self):
        """Prometheus ``le`` semantics: a value equal to a bound counts
        in that bucket."""
        histogram = Histogram("h", "", buckets=(1.0, 10.0))
        histogram.observe(1.0)
        lines = histogram.render()
        assert 'h_bucket{le="1"} 1' in lines

    def test_quantile_returns_bucket_upper_bound(self):
        histogram = Histogram("h", "", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert histogram.quantile(0.0, missing="series") == 0.0
        histogram.observe(1000.0)
        assert histogram.quantile(1.0) == math.inf

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h", "", buckets=(1.0,)).quantile(1.5)

    def test_buckets_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", "", buckets=())

    def test_render_cumulative_buckets(self):
        histogram = Histogram("h", "H.", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value, stage="s")
        lines = histogram.render()
        assert 'h_bucket{stage="s",le="1"} 1' in lines
        assert 'h_bucket{stage="s",le="10"} 2' in lines
        assert 'h_bucket{stage="s",le="+Inf"} 3' in lines
        assert 'h_sum{stage="s"} 55.5' in lines
        assert 'h_count{stage="s"} 3' in lines

    @pytest.mark.parametrize("first", [[], [0.3]])
    def test_observe_many_equals_one_observe_per_value(self, first):
        # Values whose float sum depends on the order they are added in;
        # ``first`` pre-creates the series (or leaves it to observe_many).
        values = [0.1, 1e16, 0.7, -1e16, 3.0, 0.2, 5e-6, 2.0]
        one, many = (Histogram("h", "", buckets=LATENCY_BUCKETS_S) for _ in range(2))
        for value in first + values:
            one.observe(value, stage="s")
        bound = many.bind(stage="s")
        bound.observe_many(first)
        bound.observe_many([])
        bound.observe_many(values)
        assert many.render() == one.render()
        assert many.sum(stage="s") == one.sum(stage="s")

    def test_bound_series_binds_on_first_use(self):
        histogram = Histogram("h", "", buckets=(1.0,))
        stages = BoundSeries(histogram, "stage", process="p")
        assert stages == {}
        stages["queue"].observe(0.5)
        assert list(stages) == ["queue"]
        assert stages["queue"] is stages["queue"]
        assert histogram.count(process="p", stage="queue") == 1
        stages["hedge"]  # bound, never observed: no series
        assert "hedge" not in "\n".join(histogram.render())

    def test_default_bucket_constants_are_increasing(self):
        for buckets in (LATENCY_BUCKETS_S, BATCH_SIZE_BUCKETS):
            assert list(buckets) == sorted(buckets)
            assert len(set(buckets)) == len(buckets)


class TestRegistry:
    def test_idempotent_declaration(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        second = registry.counter("c", "ignored on re-declare")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("c")

    def test_get_and_families_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("z")
        registry.counter("a")
        assert registry.get("a").kind == "counter"
        assert registry.get("missing") is None
        assert [family.name for family in registry.families()] == ["a", "z"]

    def test_record_ledger_joins_energy_attribution(self):
        ledger = Ledger(name="session")
        ledger.charge("Engine", Cost(energy_pj=100.0, latency_ns=1.0))
        ledger.charge("Cache", Cost(energy_pj=25.0, latency_ns=1.0))
        ledger.charge("Engine", Cost(energy_pj=50.0, latency_ns=1.0))
        registry = MetricsRegistry()
        registry.record_ledger(ledger, process="run")
        per_category = registry.get("repro_energy_category_pj")
        assert per_category.value(process="run", category="Engine") == 150.0
        assert per_category.value(process="run", category="Cache") == 25.0
        assert registry.get("repro_energy_total_pj").value(process="run") == 175.0

    def test_disabled_registry_skips_ledger(self):
        ledger = Ledger()
        ledger.charge("Engine", Cost(energy_pj=1.0, latency_ns=1.0))
        registry = MetricsRegistry.null()
        registry.record_ledger(ledger, process="run")
        registry.record_price_ledger([("Engine", 1.0)], process="run")
        counter = registry.counter("c_total", "C.")
        counter.inc(3, x="1")
        counter.bind(x="2").inc()
        registry.gauge("g", "G.").set(4.0)
        registry.gauge("g").add(1.0)
        histogram = registry.histogram("h", "H.", buckets=(1.0,))
        histogram.observe(0.5)
        histogram.bind(x="1").observe_many([0.5, 2.0])
        BoundSeries(histogram, "stage")["queue"].observe(0.1)
        assert registry.get("repro_energy_total_pj") is None
        assert registry.get("c_total") is None
        assert list(registry.families()) == []
        assert registry.render_prometheus() == ""

    def test_render_prometheus_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total", "B.").inc(3, x="1")
            registry.counter("a_total", "A.").inc(1.0, x="2")
            registry.counter("a_total").inc(2.0, x="1")
            registry.histogram("h", "H.", buckets=(1.0,)).observe(0.5)
            return registry.render_prometheus()

        text = build()
        assert text == build()  # byte-identical across identical runs
        assert text.endswith("\n")
        lines = text.splitlines()
        # families sorted by name, series sorted by label key
        assert lines.index("# TYPE a_total counter") < lines.index(
            "# TYPE b_total counter"
        )
        assert lines.index('a_total{x="1"} 2') < lines.index('a_total{x="2"} 1')

    def test_render_empty_registry(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_label_escaping(self):
        counter = Counter("c", "")
        counter.inc(1.0, label='with "quotes" and \\slash')
        rendered = "\n".join(counter.render())
        assert '\\"quotes\\"' in rendered
        assert "\\\\slash" in rendered
