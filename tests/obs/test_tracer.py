"""Tracer: span-tree well-formedness, sampling, and the recording API."""

import pytest

from repro.obs.tracer import Instant, Span, Tracer, span_children


def _traced_batch(tracer, batch_index=0):
    """Record one representative batch: root + nested engine + leaves."""
    tracer.start_batch(batch_index)
    tracer.open("batch", 0.0, track="main", size=2)
    tracer.add("queue", 0.0, 0.1, category="queue")
    tracer.open("engine", 0.1, queries=2)
    tracer.add("kernel", 0.1, 0.25, category="kernel", kernel="vector")
    tracer.close(0.3, energy_pj=42.0)
    tracer.close(0.4)
    tracer.end_batch()


class TestSpan:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Span(
                span_id=0,
                parent_id=None,
                name="bad",
                category="serve",
                start_s=1.0,
                end_s=0.5,
                process="p",
                track="main",
            )

    def test_duration(self):
        span = Span(0, None, "s", "serve", 1.0, 1.5, "p", "main")
        assert span.duration_s == 0.5

    def test_as_dict_schema(self):
        span = Span(3, 1, "s", "serve", 1.0, 1.5, "p", "main", {"k": 2})
        data = span.as_dict()
        assert data["type"] == "span"
        assert data["span_id"] == 3
        assert data["parent_id"] == 1
        assert data["duration_s"] == 0.5
        assert data["attrs"] == {"k": 2}
        # the export dict is a copy, not a view of the span's attrs
        data["attrs"]["k"] = 99
        assert span.attrs["k"] == 2

    def test_instant_as_dict_schema(self):
        event = Instant("scale-event", 2.0, "control", "p", "control", {"n": 1})
        data = event.as_dict()
        assert data["type"] == "instant"
        assert data["time_s"] == 2.0
        assert data["attrs"] == {"n": 1}


class TestRecording:
    def test_nesting_and_parent_links(self):
        tracer = Tracer()
        _traced_batch(tracer)
        by_name = {span.name: span for span in tracer.spans}
        assert set(by_name) == {"batch", "queue", "engine", "kernel"}
        assert by_name["batch"].parent_id is None
        assert by_name["queue"].parent_id == by_name["batch"].span_id
        assert by_name["engine"].parent_id == by_name["batch"].span_id
        assert by_name["kernel"].parent_id == by_name["engine"].span_id
        tracer.validate()

    def test_close_merges_attrs(self):
        tracer = Tracer()
        _traced_batch(tracer)
        engine = next(s for s in tracer.spans if s.name == "engine")
        assert engine.attrs == {"queries": 2, "energy_pj": 42.0}

    def test_cursor_tracks_innermost_open_span(self):
        tracer = Tracer()
        tracer.start_batch(0)
        assert tracer.cursor_s == 0.0
        assert tracer.cursor_track == "main"
        tracer.open("batch", 1.0, track="main")
        tracer.open("engine", 1.5, track="shard0")
        assert tracer.cursor_s == 1.5
        assert tracer.cursor_track == "shard0"
        tracer.close(2.0)
        assert tracer.cursor_s == 1.0
        tracer.close(2.5)
        tracer.end_batch()

    def test_children_inherit_the_open_track(self):
        tracer = Tracer()
        tracer.start_batch(0)
        tracer.open("batch", 0.0, track="main")
        tracer.add("queue", 0.0, 0.1)
        tracer.close(0.2)
        tracer.end_batch()
        queue = next(s for s in tracer.spans if s.name == "queue")
        assert queue.track == "main"

    @pytest.mark.parametrize("track", [None, "requests"])
    def test_add_many_equals_one_add_per_span(self, track):
        triples = [(0.1, 0.2, {"request_id": 7}), (0.1, 0.3, {}), (0.0, 0.0, {"a": 1})]
        spans = []
        for bulk in (False, True):
            tracer = Tracer()
            tracer.start_batch(0)
            tracer.open("batch", 0.0, track="main")
            tracer.add("queue", 0.0, 0.1)
            if bulk:
                tracer.add_many("request", triples, category="serve", track=track)
            else:
                for start_s, end_s, attrs in triples:
                    tracer.add(
                        "request", start_s, end_s, category="serve", track=track,
                        **attrs,
                    )
            assert tracer.add("after", 0.3, 0.4) == 5
            tracer.close(0.5)
            tracer.end_batch()
            spans.append([span.as_dict() for span in tracer.spans])
        assert spans[0] == spans[1]

    def test_add_many_rejects_negative_duration(self):
        tracer = Tracer()
        tracer.start_batch(0)
        with pytest.raises(ValueError, match="ends before it starts"):
            tracer.add_many("request", [(0.0, 0.1, {}), (0.2, 0.1, {})])

    def test_set_process_stamps_spans(self):
        tracer = Tracer()
        tracer.set_process("fleet-a")
        _traced_batch(tracer)
        assert all(span.process == "fleet-a" for span in tracer.spans)
        with pytest.raises(ValueError, match="non-empty"):
            tracer.set_process("")

    def test_len_counts_spans(self):
        tracer = Tracer()
        _traced_batch(tracer)
        assert len(tracer) == 4


class TestSampling:
    def test_sample_every_n_batches(self):
        tracer = Tracer(sample_every=2)
        for index in range(4):
            sampled = tracer.start_batch(index)
            assert sampled == (index % 2 == 0)
            if sampled:
                tracer.add("batch", 0.0, 1.0)
            tracer.end_batch()
        assert tracer.seen_batches == 4
        assert tracer.sampled_batches == 2
        assert len(tracer.spans) == 2

    def test_unsampled_batch_records_nothing(self):
        tracer = Tracer(sample_every=2)
        tracer.start_batch(1)  # not sampled
        assert tracer.open("batch", 0.0) is None
        assert tracer.close(1.0) is None  # no-op, not an error
        assert tracer.add("queue", 0.0, 0.5) is None
        tracer.add_many("request", [(0.0, 0.5, {})])
        tracer.end_batch()
        assert tracer.spans == []

    def test_instants_ignore_batch_sampling(self):
        tracer = Tracer(sample_every=1000)
        tracer.start_batch(1)  # not sampled
        assert tracer.instant("scale-event", 0.5) is not None
        tracer.end_batch()
        assert len(tracer.instants) == 1

    def test_disabled_tracer_records_nothing_at_all(self):
        tracer = Tracer(enabled=False)
        assert tracer.start_batch(0) is False
        assert tracer.add("queue", 0.0, 1.0) is None
        assert tracer.instant("scale-event", 0.5) is None
        tracer.end_batch()
        assert tracer.spans == [] and tracer.instants == []

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError, match="sample_every"):
            Tracer(sample_every=0)


class TestProtocolErrors:
    def test_close_without_open_raises_when_active(self):
        tracer = Tracer()
        tracer.start_batch(0)
        with pytest.raises(RuntimeError, match="without a matching open"):
            tracer.close(1.0)

    def test_start_batch_with_open_spans_raises(self):
        tracer = Tracer()
        tracer.start_batch(0)
        tracer.open("batch", 0.0)
        with pytest.raises(RuntimeError, match="left .* open"):
            tracer.start_batch(1)

    def test_end_batch_with_open_spans_raises(self):
        tracer = Tracer()
        tracer.start_batch(0)
        tracer.open("batch", 0.0)
        with pytest.raises(RuntimeError, match="still open"):
            tracer.end_batch()


class TestValidate:
    def _span(self, span_id, parent_id, start_s, end_s, process="p"):
        return Span(span_id, parent_id, "s", "serve", start_s, end_s, process, "main")

    def test_unknown_parent(self):
        tracer = Tracer()
        tracer.spans.append(self._span(0, 99, 0.0, 1.0))
        with pytest.raises(ValueError, match="unknown parent"):
            tracer.validate()

    def test_child_escaping_parent(self):
        tracer = Tracer()
        tracer.spans.append(self._span(0, None, 0.0, 1.0))
        tracer.spans.append(self._span(1, 0, 0.5, 1.5))
        with pytest.raises(ValueError, match="escapes parent"):
            tracer.validate()

    def test_cross_process_parentage(self):
        tracer = Tracer()
        tracer.spans.append(self._span(0, None, 0.0, 1.0, process="a"))
        tracer.spans.append(self._span(1, 0, 0.2, 0.8, process="b"))
        with pytest.raises(ValueError, match="crosses processes"):
            tracer.validate()

    def test_float_noise_tolerated(self):
        tracer = Tracer()
        tracer.spans.append(self._span(0, None, 0.0, 1.0))
        tracer.spans.append(self._span(1, 0, -1e-15, 1.0 + 1e-15))
        tracer.validate()  # within _EPS


def test_span_children_groups_by_parent():
    tracer = Tracer()
    _traced_batch(tracer)
    children = span_children(tracer.spans)
    by_name = {span.name: span for span in tracer.spans}
    assert [s.name for s in children[None]] == ["batch"]
    assert [s.name for s in children[by_name["batch"].span_id]] == [
        "queue",
        "engine",
    ]
    assert [s.name for s in children[by_name["engine"].span_id]] == ["kernel"]
