"""Span bookkeeping: self time, wrapping, the Chrome export."""

import pytest

from harness.tracing import (
    LAYER, NAME, OP, PARENT, NullTracer, Tracer, aggregate, chrome_trace, self_times,
)


def span(name, start, end, parent, op=0, layer="x"):
    return [name, layer, float(start), float(end), parent, op]


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("root", 0, 10, -1),
        span("child", 1, 7, 0),
        span("grandchild", 2, 5, 1),
    ]
    assert self_times(spans) == [4.0, 3.0, 3.0]


def test_self_time_uses_the_union_of_overlapping_children():
    # Two children cover [1, 6] and [4, 9]: 8 units together, not 5 + 5.
    spans = [span("root", 0, 10, -1), span("a", 1, 6, 0), span("b", 4, 9, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [span("root", 2, 8, -1), span("early", 0, 3, 0), span("late", 7, 12, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_times_of_one_op_sum_to_its_wall():
    spans = [
        span("root", 0, 10, -1), span("a", 1, 4, 0), span("a1", 2, 3, 1), span("b", 5, 9, 0),
    ]
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_aggregate_groups_by_op_type_and_name():
    spans = [
        span("solve", 0, 4, -1, op=0, layer=None), span("apply", 1, 3, 0, op=0, layer="dirac"),
        span("solve", 5, 9, -1, op=1, layer=None), span("apply", 6, 7, 2, op=1, layer="dirac"),
        span("other", 9, 10, -1, op=2, layer=None),
    ]
    agg = aggregate(spans, ["solve", "solve", "other"])
    assert agg["solve"]["ops"] == 2 and agg["solve"]["wall"] == 8.0
    cell = agg["solve"]["spans"]["apply"]
    assert cell == {"layer": "dirac", "self": 3.0, "total": 3.0, "calls": 2}
    assert agg["solve"]["spans"]["solve"]["self"] == 5.0
    assert agg["other"]["ops"] == 1


class Operator:
    def __init__(self):
        self._kernel = Kernel()

    def inner(self, x):
        return self._kernel(x) + 1

    def outer(self, x):
        return self.inner(x) * 2  # looked up on the instance: routed through the span


class Kernel:
    name = "k"

    def __call__(self, x):
        return x

    def apply_batch_into(self, x):
        return x


def test_wrap_routes_internal_calls_and_keeps_results():
    tracer, op = Tracer(), Operator()
    tracer.wrap(op, "outer", "op.outer", "dirac")
    tracer.wrap(op, "inner", "op.inner", "dirac")
    tracer.wrap_kernel(op, "kernels.hop")
    tracer.wrap_kernel(op, "kernels.hop")  # idempotent
    assert op.outer(3) == 8  # outside an op: nothing recorded
    assert tracer.spans == []
    op_id = tracer.begin_op("solve")
    assert op.outer(3) == 8
    assert op._kernel.apply_batch_into(5) == 5 and op._kernel.name == "k"
    tracer.end_op()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["solve", "op.outer", "op.inner", "kernels.hop", "kernels.hop_batch"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 2, 0]
    assert {s[OP] for s in tracer.spans} == {op_id}
    assert tracer.spans[3][LAYER] == "kernels"


def test_a_span_is_closed_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    tracer.begin_op("op")
    with pytest.raises(ValueError):
        tracer.call("boom", None, boom)
    assert tracer.call("after", None, lambda: 1) == 1
    tracer.end_op()
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_null_tracer_is_a_pass_through():
    tracer, op = NullTracer(), Operator()
    method = op.outer
    tracer.wrap(op, "outer", "x", None)
    tracer.wrap_kernel(op, "k")
    assert op.outer == method and isinstance(op._kernel, Kernel)
    assert tracer.call("x", None, lambda a: a + 1, 1) == 2


def test_chrome_trace_has_one_complete_event_per_span():
    spans = [span("root", 10, 12, -1), span("kid", 10.5, 11, 0)]
    doc = chrome_trace(spans, ["solve"])
    assert [e["ph"] for e in doc["traceEvents"]] == ["X", "X"]
    kid = doc["traceEvents"][1]
    assert kid["ts"] == pytest.approx(0.5e6) and kid["dur"] == pytest.approx(0.5e6)
    assert kid["args"]["parent"] == 0 and kid["args"]["op"] == "solve"
