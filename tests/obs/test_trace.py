"""The hierarchical tracer: nesting, threads, ring buffer, exporters."""

import json
import threading

import pytest

from repro.obs import FakeClock, NullTracer, Tracer


@pytest.fixture
def tracer():
    return Tracer(clock=FakeClock(tick=1.0))


class TestNesting:
    def test_root_span_mints_trace_id(self, tracer):
        with tracer.span("outer") as sp:
            assert sp.trace_id == sp.span_id
            assert sp.parent_id is None

    def test_child_inherits_trace_and_parent(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id

    def test_sibling_roots_get_distinct_traces(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert len(tracer.trace_ids()) == 2

    def test_fake_clock_duration_is_exact(self, tracer):
        with tracer.span("timed") as sp:
            pass
        assert sp.duration_s == 1.0  # one tick between start and end perf reads

    def test_attrs_at_open_and_via_set(self, tracer):
        with tracer.span("op", n=3) as sp:
            sp.set(result="ok")
        assert sp.attrs == {"n": 3, "result": "ok"}

    def test_error_span_records_and_reraises(self, tracer):
        with pytest.raises(KeyError):
            with tracer.span("failing"):
                raise KeyError("boom")
        [sp] = tracer.spans()
        assert sp.status == "error"
        assert sp.error == "KeyError"


class TestCrossThread:
    def test_threads_have_independent_stacks(self, tracer):
        """A span opened on another thread while ``outer`` is open here is
        a root of its own trace, not ``outer``'s child."""
        seen = []

        def worker():
            with tracer.span("worker") as sp:
                seen.append(sp)

        with tracer.span("outer") as outer:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        [sp] = seen
        assert sp.parent_id is None and sp.trace_id != outer.trace_id


class TestRetentionAndExport:
    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(clock=FakeClock(), max_spans=3)
        for index in range(5):
            with tracer.span(f"op{index}"):
                pass
        assert [sp.name for sp in tracer.spans()] == ["op2", "op3", "op4"]

    def test_spans_last_and_trace_filters(self, tracer):
        with tracer.span("a"):
            with tracer.span("a.child"):
                pass
        with tracer.span("b"):
            pass
        assert [sp.name for sp in tracer.spans(last=1)] == ["b"]
        first_trace = tracer.trace_ids()[0]
        assert {sp.name for sp in tracer.spans(trace_id=first_trace)} == {"a", "a.child"}

    def test_tree_nests_children(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        tree = tracer.tree(tracer.trace_ids()[0])
        [root] = tree["roots"]
        assert root["span"]["name"] == "root"
        [child] = root["children"]
        assert child["span"]["name"] == "child"
        assert child["children"][0]["span"]["name"] == "grandchild"

    def test_to_jsonl_round_trips(self, tracer):
        with tracer.span("op", n=1):
            pass
        [line] = tracer.to_jsonl().splitlines()
        payload = json.loads(line)
        assert payload["name"] == "op"
        assert payload["attrs"] == {"n": 1}
        assert payload["status"] == "ok"

    def test_reset_clears_buffer(self, tracer):
        with tracer.span("op"):
            pass
        tracer.reset()
        assert tracer.spans() == []
        assert tracer.to_jsonl() == ""


class TestNullTracer:
    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("op", n=1) as sp:
            sp.set(more="attrs")  # shared null span accepts anything
        assert tracer.spans() == []
        assert tracer.to_jsonl() == ""
        assert tracer.tree(1) == {"trace_id": 1, "roots": []}
