import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
import tracker_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voskit.boxes import MASK_THRESHOLD, BBox, attention_map
from voskit.corpus import label_ids
from voskit.tracker import (
    TRACK_CSV_HEADER,
    TrackRow,
    compose_label,
    filter_stream,
    run_filter,
    track_csv_row,
)


def rect_channel(shape, x, y, w, h, value=1.0):
    m = np.zeros(shape, dtype=np.float64)
    m[y : y + h, x : x + w] = value
    return m


def moving_scene(n_frames=8, shape=(40, 60), v=(3, 1), blob_from=3):
    """Object marching right/down plus a fixed far-away distractor blob from
    frame blob_from on. Returns (frames, true boxes, blob box)."""
    frames = []
    boxes = []
    blob = (45, 2, 8, 6)  # x, y, w, h far from the object path
    for t in range(n_frames):
        x, y = 2 + v[0] * t, 5 + v[1] * t
        channel = rect_channel(shape, x, y, 6, 5)
        if t + 1 >= blob_from:
            channel = np.maximum(channel, rect_channel(shape, *blob, value=0.9))
        frames.append({1: channel})
        boxes.append(BBox(x, y, 6, 5))
    return frames, boxes, blob


def test_warmup_passes_frames_through():
    frames, boxes, _ = moving_scene(blob_from=1)
    out, rows = run_filter(frames)
    for i in (0, 1):
        assert np.array_equal(out[i].label, compose_label(frames[i], frames[i][1].shape))
        assert rows[i].source == "warmup"
        # warm-up box comes from the unfiltered channel, so it includes the blob
    assert rows[0].frame == 1 and rows[1].frame == 2


def test_gating_removes_far_blob_from_frame_three():
    frames, boxes, blob = moving_scene()
    out, rows = run_filter(frames)
    bx, by, bw, bh = blob
    for i in range(2, len(frames)):
        assert rows[i].source == "cv"
        # the blob region is cleared, the object region survives
        assert out[i].label[by : by + bh, bx : bx + bw].sum() == 0
        b = boxes[i]
        assert (out[i].label[int(b.y) : int(b.y + b.h), int(b.x) : int(b.x + b.w)] == 1).all()
        # recovered box is exactly the true box (blob removed, motion exact)
        assert rows[i].box == boxes[i]


def test_filter_is_non_expansive():
    frames, _, _ = moving_scene()
    out, _ = run_filter(frames)
    for i, frame in enumerate(frames):
        # every labelled pixel was labelled before filtering
        assert np.all(out[i].label <= compose_label(frame, frame[1].shape))


def test_huge_margin_is_identity():
    frames, _, _ = moving_scene()
    out, _ = run_filter(frames, margin_frac=100.0)
    for i, frame in enumerate(frames):
        assert np.array_equal(out[i].label, compose_label(frame, frame[1].shape))


def test_fallback_when_gate_empties_mask():
    shape = (30, 50)
    frames = [
        {1: rect_channel(shape, 2, 2, 4, 4)},
        {1: rect_channel(shape, 5, 2, 4, 4)},  # motion +3 in x
        {1: rect_channel(shape, 40, 20, 4, 4)},  # teleports far away
        {1: rect_channel(shape, 40, 20, 4, 4)},
        {1: rect_channel(shape, 40, 20, 4, 4)},
    ]
    out, rows = run_filter(frames)
    # frame 3: predicted gate around x=8 misses the object entirely
    assert rows[2].source == "fallback"
    assert np.array_equal(out[2].label, compose_label(frames[2], shape))
    assert rows[2].box == BBox(40, 20, 4, 4)
    # fallback reset the motion history, so frame 4 warms up again
    assert rows[3].source == "warmup"
    # by frame 5 there are two clean boxes and tracking resumes
    assert rows[4].source == "cv"
    assert rows[4].box == BBox(40, 20, 4, 4)


def test_rows_carry_the_gate_box():
    # Object 1 teleports on frame 3 (fallback) and warms up again; object 2
    # is gated from frame 3 on and sheds a distractor blob. Its faint halo
    # stays below MASK_THRESHOLD; on frame 3 one full pixel lies two columns
    # right of the predicted box, on the last column the 0.4 margin keeps.
    shape = (30, 50)
    blob = rect_channel(shape, 2, 24, 4, 3, value=0.9)
    object_2 = [
        np.maximum(
            rect_channel(shape, 28 + t, 8 + t, 9, 9, value=0.3),
            rect_channel(shape, 30 + t, 10 + t, 5, 5),
        )
        for t in range(5)
    ]
    object_2[2][14, 38] = 1.0
    object_2[2] = object_2[2] + blob
    object_1 = [rect_channel(shape, 2, 2, 4, 4), rect_channel(shape, 5, 2, 4, 4)]
    object_1 += [rect_channel(shape, 40, 20, 4, 4)] * 3
    frames = [{1: a, 2: b} for a, b in zip(object_1, object_2)]
    margin = 0.4
    out, rows = run_filter(frames, margin_frac=margin)
    assert {row.source for row in rows} == {"warmup", "cv", "fallback"}
    assert rows[5].gate == BBox(32, 12, 5, 5)  # object 2, frame 3
    assert rows[5].box == BBox(32, 12, 7, 5)
    for filtered, frame in zip(out, frames):
        gated = {}
        for row in filtered.rows:
            assert (row.gate is None) == (row.source in ("warmup", "fallback"))
            channel = frame[row.object_id]
            if row.gate is not None:
                channel = channel * attention_map(row.gate, *shape, margin)
            gated[row.object_id] = channel
        assert np.array_equal(filtered.label, compose_label(gated, shape))


def test_object_absent_resets_track():
    shape = (20, 30)
    empty = np.zeros(shape)
    frames = [
        {1: rect_channel(shape, 2, 2, 4, 4)},
        {1: rect_channel(shape, 4, 2, 4, 4)},
        {1: empty},  # object vanishes entirely
        {1: rect_channel(shape, 10, 10, 4, 4)},
        {1: rect_channel(shape, 12, 10, 4, 4)},
        {1: rect_channel(shape, 14, 10, 4, 4)},
    ]
    out, rows = run_filter(frames)
    # empty frame inside the gate -> fallback, but the raw frame is empty too
    assert rows[2].box is None
    # reappearance warms up from scratch
    assert rows[3].source == "warmup" and rows[3].box == BBox(10, 10, 4, 4)
    assert rows[4].source == "warmup"
    assert rows[5].source == "cv" and rows[5].box == BBox(14, 10, 4, 4)


def test_object_missing_from_frame_resets_track():
    shape = (40, 60)
    frames = []
    for t in range(6):
        frame = {2: rect_channel(shape, 40, 30, 5, 5)}
        if t < 3:
            frame[1] = rect_channel(shape, 2 + 3 * t, 2, 4, 4)
        elif t > 3:
            frame[1] = rect_channel(shape, 30 + 3 * t, 20, 4, 4)  # far from the old path
        frames.append(frame)
    _, rows = run_filter(frames)
    sources = [(row.frame, row.source) for row in rows if row.object_id == 1]
    # missing at frame 4, so frame 5 warms up instead of gating with stale motion
    assert sources == [(1, "warmup"), (2, "warmup"), (3, "cv"), (5, "warmup"), (6, "warmup")]
    assert [row.source for row in rows if row.object_id == 2][2:] == ["cv"] * 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_soft_mask_rejected(bad):
    shape = (20, 30)
    channel = rect_channel(shape, 2, 2, 4, 4)
    channel[10, 10] = bad
    frames = [{1: rect_channel(shape, 2, 2, 4, 4)}, {1: channel}]
    with pytest.raises(ValueError, match="non-finite"):
        run_filter(frames)


def test_multi_object_tracks_are_independent():
    shape = (40, 60)
    frames = []
    for t in range(6):
        frames.append(
            {
                1: rect_channel(shape, 2 + 4 * t, 3, 5, 5),
                2: rect_channel(shape, 50 - 3 * t, 30, 6, 4),
            }
        )
    out, rows = run_filter(frames)
    by_obj = {1: [], 2: []}
    for row in rows:
        by_obj[row.object_id].append(row)
    for oid, v in ((1, 4), (2, -3)):
        for t, row in enumerate(by_obj[oid]):
            assert row.frame == t + 1
            expected_x = (2 + v * t) if oid == 1 else (50 + v * t)
            assert row.box.x == expected_x
        assert [r.source for r in by_obj[oid]] == ["warmup", "warmup", "cv", "cv", "cv", "cv"]


def test_run_filter_keeps_labels_not_soft_channels():
    # Twenty gated 480x854 float64 frames: run_filter keeps each frame's
    # uint8 label and track rows, not the gated soft channels.
    shape, gated = (480, 854), 20

    def frames():
        for _ in range(gated + 2):
            yield {1: rect_channel(shape, 100, 80, 60, 40)}

    tracemalloc.start()
    try:
        out, rows = run_filter(frames())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row.source for row in rows] == ["warmup"] * 2 + ["cv"] * gated
    assert len(out) == gated + 2
    float64_frame = 480 * 854 * np.dtype(np.float64).itemsize
    assert peak < gated * float64_frame, f"peak {peak / 1e6:.2f} MB"


def test_streaming_and_materialized_agree():
    frames, _, _ = moving_scene()
    streamed = list(filter_stream(iter(frames)))
    materialized, _ = run_filter(frames)
    for a, b in zip(streamed, materialized):
        assert a.frame == b.frame
        assert np.array_equal(a.label, b.label)


def test_determinism():
    frames, _, _ = moving_scene()
    out1, rows1 = run_filter(frames)
    out2, rows2 = run_filter(frames)
    assert rows1 == rows2
    for a, b in zip(out1, out2):
        assert np.array_equal(a.label, b.label)


def test_pt_variant_with_untrained_model_is_stationary_gate():
    # zero-initialized output layer -> predicted motion is exactly zero, so
    # the gate sits on the previous box; for a stationary object that is
    # exactly right and the far blob still gets removed
    from voskit.motion_mlp import MotionPredictor

    model = MotionPredictor.for_frame(40, 60)
    frames, boxes, blob = moving_scene(v=(0, 0))
    out, rows = run_filter(frames, model=model)
    assert [r.source for r in rows] == ["warmup", "warmup"] + ["pt"] * (len(frames) - 2)
    bx, by, bw, bh = blob
    for i in range(2, len(frames)):
        assert rows[i].box == boxes[i]
        assert out[i].label[by : by + bh, bx : bx + bw].sum() == 0


def test_shape_drift_rejected():
    frames = [
        {1: np.zeros((10, 10))},
        {1: np.zeros((10, 11))},
    ]
    with pytest.raises(ValueError):
        run_filter(frames)


def test_compose_label_background_and_ties():
    shape = (4, 4)
    a = np.zeros(shape)
    b = np.zeros(shape)
    a[0, 0] = 0.8
    b[0, 0] = 0.6  # object 1 wins pixel (0,0)
    a[1, 1] = 0.5
    b[1, 1] = 0.5  # tie at 0.5: background scores 0.5 too and wins
    b[2, 2] = 0.9  # object 2 alone
    label = compose_label({1: a, 2: b}, shape)
    assert label.dtype == np.uint8
    assert label[0, 0] == 1
    assert label[1, 1] == 0
    assert label[2, 2] == 2
    assert label[3, 3] == 0


def test_compose_label_object_tie_prefers_smaller_id():
    shape = (2, 2)
    a = np.zeros(shape)
    b = np.zeros(shape)
    a[0, 0] = 0.9
    b[0, 0] = 0.9
    label = compose_label({2: b, 1: a}, shape)
    assert label[0, 0] == 1


def test_compose_label_empty_channels():
    label = compose_label({}, (3, 3))
    assert label.shape == (3, 3) and label.sum() == 0


# Few distinct values, so ties between channels and with the threshold are
# common, as are values one ulp either side of it.
AROUND_THRESHOLD = [
    np.nextafter(MASK_THRESHOLD, 0.0),
    MASK_THRESHOLD,
    np.nextafter(MASK_THRESHOLD, 1.0),
]
soft_values = st.one_of(
    st.sampled_from([0.0, 0.3, *AROUND_THRESHOLD, 0.7, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def channel_dicts(draw):
    """(shape, channels) with no id, one or several: all float64 soft
    channels, all boolean, all 0/1 uint8, or a mix of boolean and float64."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    ids = draw(st.lists(st.integers(1, 255), min_size=0, max_size=5, unique=True))
    kind = draw(st.sampled_from([np.float64, bool, np.uint8, "mixed"]))
    channels = {}
    for oid in ids:
        dtype = draw(st.sampled_from([bool, np.float64])) if kind == "mixed" else kind
        if dtype is np.float64:
            channels[oid] = draw(hnp.arrays(np.float64, shape, elements=soft_values))
        else:
            channels[oid] = draw(hnp.arrays(bool, shape)).astype(dtype)
    return shape, channels


@settings(max_examples=500, deadline=None)
@given(channel_dicts())
def test_compose_label_equals_stacked_argmax_reference(case):
    shape, channels = case
    before = {oid: ch.copy() for oid, ch in channels.items()}
    label = compose_label(channels, shape)
    assert label.dtype == np.uint8
    assert np.array_equal(label, tracker_reference.compose_label(channels, shape))
    for oid, ch in channels.items():  # the running max never writes into a channel
        assert ch.dtype == before[oid].dtype and np.array_equal(ch, before[oid])


# Per dtype, a few values that tie across channels and with the threshold;
# every dtype here casts exactly to the promoted dtype of any mix of them.
MIXED_VALUES = {
    bool: [False, True],
    np.uint8: [0, 1, 2],
    np.int32: [-1, 0, 1],
    np.float32: [0.0, 0.25, 0.5, 0.75, 1.0],
    np.float64: [0.0, 0.3, *AROUND_THRESHOLD, 1.0],
}


@st.composite
def mixed_dtype_channels(draw):
    """(shape, channels) with 1-4 channels, each of its own dtype."""
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    ids = draw(st.lists(st.integers(1, 255), min_size=1, max_size=4, unique=True))
    channels = {}
    for oid in ids:
        dtype = draw(st.sampled_from(list(MIXED_VALUES)))
        values = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(MIXED_VALUES[dtype])))
        channels[oid] = values.astype(dtype)
    return shape, channels


@settings(max_examples=300, deadline=None)
@given(mixed_dtype_channels())
def test_compose_label_of_mixed_dtypes_equals_stacked_argmax_reference(case):
    shape, channels = case
    label = compose_label(channels, shape)
    assert label.dtype == np.uint8
    assert np.array_equal(label, tracker_reference.compose_label(channels, shape))


def test_filter_labels_with_the_box_threshold():
    # A soft mask one ulp below MASK_THRESHOLD, at it, and one ulp above it:
    # only the pixels above it are boxed and labelled, and every labelled
    # pixel lies inside its box.
    below, at, above = AROUND_THRESHOLD
    channel = rect_channel((20, 30), 18, 10, 9, 8, value=below)
    channel[2:12, 1:14] = at
    channel[4:10, 5:12] = above
    [frame] = filter_stream([{3: channel}])
    [row] = frame.rows
    assert row.box == BBox(5, 4, 7, 6)
    assert np.array_equal(frame.label, np.where(channel > MASK_THRESHOLD, 3, 0))
    assert frame.label.sum() == 3 * 7 * 6
    ys, xs = np.nonzero(frame.label)
    assert (xs >= row.box.x).all() and (xs < row.box.x + row.box.w).all()
    assert (ys >= row.box.y).all() and (ys < row.box.y + row.box.h).all()


@st.composite
def channel_sequences(draw):
    """Frames of up to three objects on a small frame, all boolean or all
    soft. Each channel is a rectangle plus a few scattered pixels, so gates
    both hold and lose objects. An id may come late, be empty, vanish or be
    missing from a frame's dict."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    soft = draw(st.booleans())
    values = soft_values if soft else st.booleans()
    # Mostly a foreground rectangle, so that tracks get past warm-up.
    fill = st.one_of(st.just(True), values)
    present = st.sampled_from([True, True, True, False])
    pixel = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    frames = []
    for _ in range(draw(st.integers(1, 8))):
        frame = {}
        for oid in [oid for oid in (1, 2, 7) if draw(present)]:
            channel = np.zeros((height, width), dtype=np.float64 if soft else bool)
            y, x = draw(pixel)
            h, w = draw(st.integers(1, height - y)), draw(st.integers(1, width - x))
            channel[y : y + h, x : x + w] = draw(fill)
            for py, px in draw(st.lists(pixel, max_size=3)):
                channel[py, px] = draw(values)
            frame[oid] = channel
        frames.append(frame)
    return frames


def filter_outcome(stream):
    """Each frame's label bytes and track rows, then the ValueError that
    ended the stream, if one did."""
    out = []
    try:
        for f in stream:
            out.append((f.frame, f.label.dtype, f.label.tobytes(), f.rows))
    except ValueError as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize("pt", [False, True])
@settings(max_examples=300, deadline=None)
@given(channel_sequences(), st.one_of(st.sampled_from([0.0, 0.1, 2.0]), st.floats(0.0, 2.0)))
def test_filter_stream_equals_reference(pt, frames, margin):
    from voskit.motion_mlp import MotionPredictor

    model = MotionPredictor.for_frame(8, 10) if pt else None
    assert filter_outcome(filter_stream(frames, model, margin)) == filter_outcome(
        tracker_reference.filter_stream(frames, model, margin)
    )


# --- laws of the cv filter on label frames ---


@st.composite
def label_sequences(draw):
    """uint8 label frames, up to 8 of them and up to 8x10, of up to three
    ids drawn from 1..255. Each id is a rectangle that moves a few pixels
    per frame, so that its track is gated, plus a few stray pixels that a
    gate may clear; an id may be missing from a frame, and a later id
    paints over an earlier one."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    ids = draw(st.lists(st.integers(1, 255), min_size=1, max_size=3, unique=True))
    pixel = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    step = st.integers(-2, 2)
    tracks = {oid: (draw(pixel), draw(step), draw(step)) for oid in ids}
    frames = []
    for t in range(draw(st.integers(1, 8))):
        label = np.zeros((height, width), dtype=np.uint8)
        for oid, ((y, x), vy, vx) in tracks.items():
            if draw(st.sampled_from([True, True, True, False])):
                y0, x0 = min(max(y + vy * t, 0), height - 1), min(max(x + vx * t, 0), width - 1)
                label[y0 : y0 + draw(st.integers(1, 4)), x0 : x0 + draw(st.integers(1, 4))] = oid
            for py, px in draw(st.lists(pixel, max_size=2)):
                label[py, px] = oid
        frames.append(label)
    return frames


def filter_labels(frames, margin):
    """The cv filter as ``voskit filter`` runs it on label frames: one
    boolean channel per id of the sequence. Each frame's label and track
    rows."""
    ids = label_ids(frames)
    return [
        (out.label, out.rows)
        for out in filter_stream(({i: frame == i for i in ids} for frame in frames), None, margin)
    ]


MARGINS = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5]), st.floats(0.0, 0.5))
NEW_IDS = st.lists(st.integers(1, 255), min_size=3, max_size=3, unique=True)


@settings(max_examples=200, deadline=None)
@given(label_sequences(), MARGINS, NEW_IDS)
def test_relabelling_ids_permutes_track_rows_and_label_values(frames, margin, new_ids):
    ids = label_ids(frames)
    assume(ids)
    lut = np.zeros(256, dtype=np.uint8)
    lut[ids] = new_ids[: len(ids)]
    for (label, rows), (relabelled, new_rows) in zip(
        filter_labels(frames, margin), filter_labels([lut[f] for f in frames], margin), strict=True
    ):
        np.testing.assert_array_equal(relabelled, lut[label])
        moved = [dataclasses.replace(row, object_id=int(lut[row.object_id])) for row in rows]
        assert new_rows == sorted(moved, key=lambda row: row.object_id)


def shifted(box, dy, dx):
    return None if box is None else dataclasses.replace(box, x=box.x + dx, y=box.y + dy)


@settings(max_examples=200, deadline=None)
@given(label_sequences(), MARGINS, st.integers(-60, 60), st.integers(-60, 60))
def test_translating_every_frame_translates_boxes_gates_and_labels(frames, margin, dy, dx):
    # A predicted box, widened by a margin of at most 0.5, stays within
    # five frame sizes of the frame's content, so a pad of five frame sizes
    # plus the largest shift keeps every gate off the canvas edge.
    assume(label_ids(frames))
    height, width = frames[0].shape
    pad = 5 * max(height, width) + 60

    def placed(frame, oy, ox):
        canvas = np.zeros((height + 2 * pad, width + 2 * pad), dtype=np.uint8)
        canvas[pad + oy : pad + oy + height, pad + ox : pad + ox + width] = frame
        return canvas

    base = filter_labels([placed(f, 0, 0) for f in frames], margin)
    moved = filter_labels([placed(f, dy, dx) for f in frames], margin)
    for (label, rows), (moved_label, moved_rows) in zip(base, moved, strict=True):
        np.testing.assert_array_equal(moved_label, np.roll(label, (dy, dx), axis=(0, 1)))
        assert moved_rows == [
            dataclasses.replace(row, box=shifted(row.box, dy, dx), gate=shifted(row.gate, dy, dx))
            for row in rows
        ]


def write_track_csv(rows, path):
    """The track log as the CLI writes it: header, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACK_CSV_HEADER)
        writer.writerows(track_csv_row(row) for row in rows)


def test_write_track_csv(tmp_path):
    rows = run_filter(moving_scene(n_frames=4)[0])[1]
    path = tmp_path / "tracks.csv"
    write_track_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["frame", "object_id", "x", "y", "w", "h", "source"]
    assert len(parsed) == 1 + len(rows)
    first = parsed[1]
    assert first[0] == "1" and first[1] == "1" and first[6] == "warmup"
    assert float(first[2]) == rows[0].box.x


def test_write_track_csv_absent_box(tmp_path):
    path = tmp_path / "tracks.csv"
    write_track_csv([TrackRow(frame=3, object_id=2, box=None, source="warmup")], path)
    text = path.read_text()
    assert "3,2,,,,,warmup" in text
