"""Self-time arithmetic and function wrapping of the tracer."""

import numpy as np
import pytest

import plan
import spans
from spans import Span


def test_self_time_subtracts_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 3.0, 0, None),
        Span("b", 2.0, 5.0, 0, None),        # overlaps a: union covers 1..5
        Span("leaf", 2.5, 4.0, 2, None),     # covered by b, not counted again at root
        Span("c", 8.0, 12.0, 0, None),       # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.5, 1.5, 4.0])


def test_aggregate_sums_self_time_calls_and_counts():
    tree = [
        Span("outer", 0.0, 4.0, -1, "op1"),
        Span("inner", 1.0, 2.0, 0, "op1", {"rows": 5}),
        Span("inner", 2.0, 3.5, 0, "op1", {"rows": 7}),
    ]
    agg = spans.aggregate(tree)
    assert agg["outer"]["self_s"] == pytest.approx(1.5)
    assert agg["inner"]["self_s"] == pytest.approx(2.5)
    assert agg["inner"]["calls"] == 2 and agg["inner"]["rows"] == 12
    assert spans.child_calls(tree, "outer", "inner") == 2


def test_tracer_wraps_every_binding_and_restores():
    from fiberwatch import SAMPLE_RATE_HZ, features, framing, tensornet, training

    orig_filter = framing.primary_filter
    orig_forward = tensornet.Network.forward_batch
    tracer = spans.Tracer()
    tracer.install(plan.TRACED)
    try:
        assert framing.primary_filter is training.primary_filter is not orig_filter
        stream = framing.IntensityStream(
            np.random.default_rng(0).normal(size=(2, 4 * SAMPLE_RATE_HZ)))
        tracer.op = "probe"
        blobs, cells = training.stream_features(
            stream, framing.FrameShaperConfig(), features.FeatureConfig())
        net = tensornet.Network(tensornet.reference_member_specs()[0])
        net.forward_batch(blobs)
    finally:
        tracer.uninstall()
    assert framing.primary_filter is orig_filter is training.primary_filter
    assert tensornet.Network.forward_batch is orig_forward
    by_name = {s.name: s for s in tracer.spans}
    top = by_name["training.stream_features"]
    assert tracer.spans[by_name["framing.primary_filter"].parent] is top
    assert by_name["framing.primary_filter"].counts == {"samples": stream.samples.size}
    assert top.counts == {"cells": len(cells)}
    assert by_name["tensornet.forward_batch.infer"].counts == {"rows": len(cells)}
    assert all(s.op == "probe" for s in tracer.spans)
