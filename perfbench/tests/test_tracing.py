import numpy as np
import pytest

import tracing
from tracing import Span, Tracer, covered, self_times, span_metrics


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "stage.x", 0.0, 10.0),
        Span(1, 0, "a.f", 1.0, 4.0),
        Span(2, 0, "b.g", 5.0, 9.0),
        Span(3, 2, "c.h", 6.0, 8.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(4.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(2.0, 3.0), (2.5, 2.7), (5.0, 5.0)], 0.0, 10.0) == pytest.approx(1.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_unattributed_is_stage_self_time_share():
    spans = [
        Span(0, None, "stage.eval", 0.0, 10.0),
        Span(1, 0, "metrics.contour_f", 0.0, 8.0),
        Span(2, 1, "metrics.boundary_pixels", 1.0, 2.0),
    ]
    m = span_metrics(spans, {})
    assert m["trace.unattributed_frac"] == pytest.approx(0.2)
    assert m["metrics.contour_f.s"] == pytest.approx(8.0)
    assert m["metrics.contour_f.calls"] == 1.0
    assert m["metrics.contour_f.ms_per_call"] == pytest.approx(8000.0)
    assert m["metrics.boundary_pixels.s"] == pytest.approx(1.0)


def test_install_patches_name_imports_and_uninstall_restores():
    from voskit import boxes, cli, tracker
    from voskit.tracker import run_filter

    originals = (cli.filter_stream, tracker.filter_stream, tracker.bbox_from_mask, boxes.bbox_from_mask)
    tracer = Tracer("t")
    uninstall = tracing.install(tracer)
    try:
        assert cli.filter_stream is tracker.filter_stream
        assert cli.filter_stream is not originals[0]
        assert tracker.bbox_from_mask is boxes.bbox_from_mask is not originals[2]
        frame = np.zeros((20, 30))
        frame[5:9, 5:12] = 1.0
        shifted = np.roll(frame, 2, axis=1)
        frames = [{1: frame}, {1: shifted}, {1: np.roll(shifted, 2, axis=1)}]
        tracer.stage("filter", lambda: run_filter(iter(frames)))
    finally:
        uninstall()
    assert (cli.filter_stream, tracker.filter_stream, tracker.bbox_from_mask, boxes.bbox_from_mask) == originals

    by_id = {s.id: s for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    # One filter_stream span per resumption: three frames plus the final stop.
    assert names.count("tracker.filter_stream") == 4
    assert names.count("tracker.compose_label") == 3
    for s in tracer.spans:
        if s.name.startswith("boxes.") or s.name == "tracker.compose_label":
            assert by_id[s.parent].name == "tracker.filter_stream"
    m = span_metrics(tracer.spans, tracer.counters)
    assert m["tracker.source.warmup"] == 2.0
    assert m["tracker.source.cv"] == 1.0
    assert m["boxes.attention_map.calls"] == 1.0


def test_table_shares_sum_to_one_per_stage():
    spans = [
        Span(0, None, "stage.eval", 0.0, 10.0),
        Span(1, 0, "metrics.contour_f", 0.0, 6.0),
        Span(2, 0, "corpus.read_pgm", 6.0, 9.0),
        Span(3, None, "stage.filter", 10.0, 11.5),
        Span(4, 3, "tracker.filter_stream", 10.0, 11.0),
    ]
    rows = tracing.layer_table(spans)
    share = {}
    for stage, _, _, _, frac in rows:
        share[stage] = share.get(stage, 0.0) + frac
    assert share == pytest.approx({"eval": 1.0, "filter": 1.0})
    assert tracing.dominant_layers(rows) == {"eval": "metrics", "filter": "tracker"}
