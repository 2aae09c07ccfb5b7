import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage
import synth_reference
from synth_reference import corrupt as reference_corrupt

from voskit.boxes import BBox, pixel_window
from voskit.metrics import boundary_pixels, erode, jaccard
from voskit.synth import (
    MAX_FRAME_SIDE,
    AcceleratingMotion,
    CorruptionSpec,
    LinearMotion,
    ObjectSpec,
    SceneConfig,
    SceneError,
    SinusoidalMotion,
    _flip_band,
    _pixel_box,
    _render,
    analytic_box,
    corrupt,
    generate,
    scene_from_json,
    scene_to_json,
)
from voskit.tracker import compose_label


def generate_all(cfg):
    """List-building reference over the streaming ``generate``: every label
    frame, each object's per-frame boxes and the (frame, object_id) clip
    events, collected for the whole sequence."""
    labels, clip_events = [], []
    tracks = {o.object_id: [] for o in cfg.objects}
    for t, (label, boxes, clipped_ids) in enumerate(generate(cfg), start=1):
        labels.append(label)
        for oid, box in boxes.items():
            tracks[oid].append(box)
        clip_events.extend((t, oid) for oid in clipped_ids)
    return labels, tracks, clip_events


def corrupt_all(labels, cfg):
    """List-building reference over the per-frame ``corrupt``: every frame's
    soft channel dict and all blob events of the sequence."""
    frames, events = [], []
    for t, label in enumerate(labels, start=1):
        corruption = corrupt(label, t, cfg)
        frames.append(corruption.channels())
        events.extend(corruption.blobs)
    return frames, events


def simple_scene(**overrides):
    kwargs = dict(
        height=60,
        width=90,
        frames=8,
        seed=11,
        objects=(
            ObjectSpec(1, BBox(5, 10, 12, 8), motion=LinearMotion(4, 1)),
            ObjectSpec(2, BBox(60, 30, 10, 10), shape="ellipse", motion=LinearMotion(-2, 0)),
        ),
    )
    kwargs.update(overrides)
    return SceneConfig(**kwargs)


# --- motion models ---


def test_linear_offset_matches_closed_form():
    m = LinearMotion(4, -1)
    for t in range(1, 10):
        assert m.offset(t) == (4 * (t - 1), -1 * (t - 1))


def test_accelerating_offset_is_discrete_sum_of_velocities():
    m = AcceleratingMotion(2, 0, 1, 3)
    for t in range(1, 8):
        n = t - 1
        # velocity on step k is v + a*k, so offset = v*n + a*n(n-1)/2
        dx = sum(2 + 1 * k for k in range(n))
        dy = sum(0 + 3 * k for k in range(n))
        assert m.offset(t) == (dx, dy)


def test_sinusoidal_offset_bounded_and_periodic():
    m = SinusoidalMotion(10, 5, period=8)
    xs = [m.offset(t)[0] for t in range(1, 30)]
    ys = [m.offset(t)[1] for t in range(1, 30)]
    assert max(abs(v) for v in xs) <= 10 + 1e-9
    assert max(abs(v) for v in ys) <= 5 + 1e-9
    assert m.offset(3) == pytest.approx(m.offset(11))


def test_sinusoidal_rejects_bad_period():
    with pytest.raises(SceneError):
        SinusoidalMotion(4, 4, period=0)


def test_analytic_box_linear_example():
    obj = ObjectSpec(1, BBox(5, 10, 12, 8), motion=LinearMotion(4, 0))
    for t in [1, 2, 5, 9]:
        box = analytic_box(obj, t)
        assert (box.x, box.y, box.w, box.h) == (5 + 4 * (t - 1), 10, 12, 8)


def test_analytic_box_integer_acceleration_stays_integral():
    obj = ObjectSpec(1, BBox(0, 0, 4, 4), motion=AcceleratingMotion(1, 2, 1, 0))
    for t in range(1, 12):
        box = analytic_box(obj, t)
        assert box.x == int(box.x) and box.y == int(box.y)


# --- clean generation ---


def test_generate_shapes_and_ids():
    cfg = simple_scene()
    labels, tracks, clips = generate_all(cfg)
    assert len(labels) == cfg.frames
    for frame in labels:
        assert frame.shape == (60, 90) and frame.dtype == np.uint8
        assert set(np.unique(frame)) <= {0, 1, 2}
    assert set(tracks) == {1, 2}
    assert all(len(v) == cfg.frames for v in tracks.values())


def test_generate_rectangle_matches_analytic_box_exactly():
    cfg = simple_scene()
    labels, tracks, _ = generate_all(cfg)
    obj = cfg.objects[0]
    for t, frame in enumerate(labels, start=1):
        box = analytic_box(obj, t)
        x, y, w, h = (int(v) for v in box.as_tuple())
        region = frame[y : y + h, x : x + w]
        assert (region == 1).all()
        outside = (frame == 1).sum()
        assert outside == w * h  # nothing painted beyond the box


def test_generate_zero_velocity_repeats_first_frame():
    cfg = simple_scene(
        objects=(ObjectSpec(1, BBox(10, 10, 8, 6), motion=LinearMotion(0, 0)),)
    )
    labels, _, _ = generate_all(cfg)
    for frame in labels[1:]:
        assert np.array_equal(frame, labels[0])


def test_generate_ellipse_inscribed_in_box():
    cfg = simple_scene(
        objects=(ObjectSpec(2, BBox(20, 15, 11, 7), shape="ellipse", motion=LinearMotion(0, 0)),)
    )
    labels, _, _ = generate_all(cfg)
    on = labels[0] == 2
    ys, xs = np.nonzero(on)
    assert xs.min() >= 20 and xs.max() <= 30
    assert ys.min() >= 15 and ys.max() <= 21
    assert on[15 + 3, 20 + 5]  # center pixel lit
    assert not on[15, 20]  # box corner outside the ellipse
    assert 0 < on.sum() < 11 * 7


def test_generate_records_clip_events():
    # x runs 80..85; the box spills past x=90 from frame 4 on but never leaves
    cfg = simple_scene(
        frames=6,
        objects=(ObjectSpec(1, BBox(80, 20, 8, 8), motion=LinearMotion(1, 0)),),
    )
    labels, tracks, clips = generate_all(cfg)
    assert [t for t, oid in clips] == [4, 5, 6]
    assert all(oid == 1 for _, oid in clips)
    # mask still matches the clipped portion of the analytic box
    for t in (4, 5, 6):
        box = analytic_box(cfg.objects[0], t)
        visible_w = min(box.x + box.w, 90) - box.x
        assert (labels[t - 1] == 1).sum() == int(visible_w) * 8


def test_generate_fully_outside_object_raises():
    cfg = simple_scene(
        frames=8,
        objects=(ObjectSpec(1, BBox(80, 20, 6, 6), motion=LinearMotion(12, 0)),),
    )
    with pytest.raises(SceneError):
        generate_all(cfg)


def test_generate_box_overflowing_to_non_finite_raises():
    # the box covers the frame at x = -1e308; one step left, x overflows to -inf
    wide = BBox(-1e308, 20, 1.5e308, 6)
    cfg = simple_scene(objects=(ObjectSpec(1, wide, motion=LinearMotion(-1e308, 0)),))
    frames = generate(cfg)
    assert (next(frames)[0] == 1).all(axis=1).any()
    with pytest.raises(SceneError, match="non-finite"):
        next(frames)


def test_generate_bitwise_deterministic():
    cfg = simple_scene()
    a = generate_all(cfg)
    b = generate_all(cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
    assert a[1] == b[1] and a[2] == b[2]


def test_overlapping_objects_later_id_wins():
    cfg = simple_scene(
        objects=(
            ObjectSpec(1, BBox(10, 10, 10, 10), motion=LinearMotion(0, 0)),
            ObjectSpec(2, BBox(15, 15, 10, 10), motion=LinearMotion(0, 0)),
        )
    )
    labels, _, _ = generate_all(cfg)
    assert labels[0][17, 17] == 2  # painted in config order; later object on top
    assert labels[0][12, 12] == 1


def test_config_validation():
    with pytest.raises(SceneError):
        simple_scene(frames=2)
    with pytest.raises(SceneError):
        simple_scene(objects=())
    with pytest.raises(SceneError):
        simple_scene(
            objects=(
                ObjectSpec(1, BBox(0, 0, 4, 4)),
                ObjectSpec(1, BBox(9, 9, 4, 4)),
            )
        )
    with pytest.raises(SceneError):
        ObjectSpec(0, BBox(0, 0, 4, 4))
    with pytest.raises(SceneError):
        ObjectSpec(1, BBox(0, 0, 4, 4), shape="triangle")
    with pytest.raises(SceneError):
        CorruptionSpec(blobs=-1)
    with pytest.raises(SceneError):
        CorruptionSpec(flip_prob=1.5)
    with pytest.raises(SceneError):
        CorruptionSpec(blob_size=(9, 4))
    too_big = MAX_FRAME_SIDE + 1
    for height, width in ((0, 90), (60, 0), (too_big, 90), (60, too_big), (60000, 90000)):
        with pytest.raises(SceneError, match=f"frame sides must be in 1..{MAX_FRAME_SIDE}"):
            simple_scene(height=height, width=width)
    assert simple_scene(height=MAX_FRAME_SIDE, width=MAX_FRAME_SIDE).width == MAX_FRAME_SIDE


# --- corruption ---


def test_corrupt_without_corruption_is_exact_indicator():
    cfg = simple_scene()
    labels, _, _ = generate_all(cfg)
    frames, events = corrupt_all(labels, cfg)
    assert events == []
    for label, channels in zip(labels, frames):
        assert set(channels) == {1, 2}
        for oid, channel in channels.items():
            np.testing.assert_array_equal(channel, (label == oid).astype(np.float64))


def test_corrupt_blob_count_and_placement():
    cfg = simple_scene(
        corruption=CorruptionSpec(blobs=2, blob_size=(8, 12), min_distance=25.0)
    )
    labels, tracks, _ = generate_all(cfg)
    frames, events = corrupt_all(labels, cfg)
    n_objects = len(cfg.objects)
    assert len(events) == 2 * n_objects * (cfg.frames - 2)
    assert all(e.frame >= 3 for e in events)
    for e in events:
        assert 8 <= e.box.w <= 12 and 8 <= e.box.h <= 12
        # blob stays inside the frame
        assert 0 <= e.box.x and e.box.x + e.box.w <= cfg.width
        assert 0 <= e.box.y and e.box.y + e.box.h <= cfg.height
        # far from the true object it corrupts
        true = analytic_box(cfg.objects[[o.object_id for o in cfg.objects].index(e.object_id)], e.frame)
        gap = rect_gap(e.box, true)
        assert gap >= 25.0
        # blob pixels carry the soft value on that object's channel
        ch = frames[e.frame - 1][e.object_id]
        x0, y0 = int(e.box.x), int(e.box.y)
        patch = ch[y0 : y0 + int(e.box.h), x0 : x0 + int(e.box.w)]
        assert (patch >= 0.9).all()


def rect_gap(a: BBox, b: BBox) -> float:
    dx = max(0.0, max(a.x - (b.x + b.w), b.x - (a.x + a.w)))
    dy = max(0.0, max(a.y - (b.y + b.h), b.y - (a.y + a.h)))
    return float(np.hypot(dx, dy))


def test_corrupt_no_blobs_on_first_two_frames():
    cfg = simple_scene(corruption=CorruptionSpec(blobs=3, blob_size=(8, 10), min_distance=10.0))
    labels, _, _ = generate_all(cfg)
    frames, events = corrupt_all(labels, cfg)
    assert all(e.frame >= 3 for e in events)
    for t in (1, 2):
        for oid, channel in frames[t - 1].items():
            np.testing.assert_array_equal(channel, (labels[t - 1] == oid).astype(np.float64))


def test_corrupt_blob_is_connected_component_away_from_object():
    cfg = simple_scene(
        objects=(ObjectSpec(1, BBox(5, 5, 8, 8), motion=LinearMotion(1, 0)),),
        corruption=CorruptionSpec(blobs=1, blob_size=(6, 6), min_distance=30.0),
    )
    labels, _, _ = generate_all(cfg)
    frames, events = corrupt_all(labels, cfg)
    ch = frames[3][1]  # frame 4
    n_components = ndimage.label(ch > 0.5)[1]
    assert n_components == 2  # object + one blob


def test_corrupt_flips_degrade_j_only_on_boundary():
    cfg = simple_scene(corruption=CorruptionSpec(flip_prob=0.5))
    labels, _, _ = generate_all(cfg)
    frames, events = corrupt_all(labels, cfg)
    assert events == []
    degraded = 0
    for label, channels in zip(labels, frames):
        for oid, channel in channels.items():
            gt = label == oid
            hard = channel > 0.5
            if not np.array_equal(hard, gt):
                degraded += 1
            # flips happen only within 1 px of the clean boundary
            changed = hard ^ gt
            near = ndimage.binary_dilation(gt, np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
            near &= ~ndimage.binary_erosion(gt, np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]), border_value=0)
            assert not (changed & ~near).any()
            assert jaccard(hard, gt) <= 1.0
    assert degraded > 0


def test_corrupt_bitwise_deterministic():
    cfg = simple_scene(corruption=CorruptionSpec(blobs=2, blob_size=(8, 12), min_distance=20.0, flip_prob=0.1))
    labels, _, _ = generate_all(cfg)
    f1, e1 = corrupt_all(labels, cfg)
    f2, e2 = corrupt_all(labels, cfg)
    assert e1 == e2
    for a, b in zip(f1, f2):
        for oid in a:
            np.testing.assert_array_equal(a[oid], b[oid])


def test_corrupt_impossible_blob_placement_raises():
    cfg = simple_scene(
        height=30,
        width=30,
        objects=(ObjectSpec(1, BBox(8, 8, 12, 12), motion=LinearMotion(0, 0)),),
        corruption=CorruptionSpec(blobs=1, blob_size=(8, 8), min_distance=200.0),
    )
    labels, _, _ = generate_all(cfg)
    with pytest.raises(SceneError):
        corrupt_all(labels, cfg)


def test_scene_rejects_blob_larger_than_frame():
    for size in ((8, 91), (8, 61)):
        with pytest.raises(SceneError, match=f"blob size {size[1]} exceeds frame 60x90"):
            simple_scene(corruption=CorruptionSpec(blobs=1, blob_size=size))
    # the size of blobs never drawn does not matter
    assert simple_scene(corruption=CorruptionSpec(blobs=0, blob_size=(8, 500))).width == 90
    assert simple_scene(corruption=CorruptionSpec(blobs=1, blob_size=(8, 60))).height == 60


def reference_flip_band(indicator: np.ndarray) -> np.ndarray:
    """The flip band as first written: dilation minus erosion built from
    four shifted copies (4-connectivity), the frame edge as background."""
    fg = indicator > 0.5
    up = np.zeros_like(fg)
    down = np.zeros_like(fg)
    left = np.zeros_like(fg)
    right = np.zeros_like(fg)
    up[:-1] = fg[1:]
    down[1:] = fg[:-1]
    left[:, :-1] = fg[:, 1:]
    right[:, 1:] = fg[:, :-1]
    neighbor = up | down | left | right
    dilated = fg | neighbor
    eroded = fg & up & down & left & right
    return dilated & ~eroded


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(bool, st.tuples(st.integers(1, 11), st.integers(1, 11))))
def test_flip_band_equals_shifted_copy_reference(fg):
    band = reference_flip_band(fg.astype(np.float64))
    assert np.array_equal(_flip_band(fg), band)
    # the ring's inner half is the contour boundary: one erosion serves both
    assert np.array_equal(fg & ~erode(fg), band & fg)
    assert np.array_equal(boundary_pixels(fg), band & fg)


# Box fields on a half-pixel grid (so .5 ties, which round to even, are
# common) or anywhere nearby, reaching past every edge of a 1-12 px frame.
box_fields = st.one_of(st.integers(-30, 30).map(lambda n: n / 2), st.floats(-16.0, 16.0))
box_sizes = st.one_of(st.integers(0, 40).map(lambda n: n / 2), st.floats(0.0, 20.0))


@settings(max_examples=500, deadline=None)
@given(
    st.builds(BBox, box_fields, box_fields, box_sizes, box_sizes),
    st.sampled_from([0, 1]),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(["rectangle", "ellipse"]),
)
def test_pixel_box_windows_equal_the_integer_spans_they_replace(box, grow, height, width, shape):
    (x0, y0, x1, y1), clipped = synth_reference._pixel_bounds(box, height, width, grow)
    rows, cols = pixel_window(_pixel_box(box, grow), height, width)
    for window, lo, hi in ((rows, y0, y1), (cols, x0, x1)):
        # An empty span may have hi < 0, which as a slice would count from the end.
        assert window == slice(lo, hi) if lo < hi else window.start == window.stop
    if grow or box.w < 1 or box.h < 1:
        return
    # _render draws, flags clipping and refuses a box outside the frame as
    # the span arithmetic did.
    obj = ObjectSpec(7, box, shape=shape)
    frame, expected = np.zeros((2, height, width), dtype=np.uint8)
    try:
        ref_clipped = synth_reference.render(expected, obj, box)
    except SceneError as exc:
        with pytest.raises(SceneError, match=f"^{re.escape(str(exc))}$"):
            _render(frame, obj, box)
        return
    assert ref_clipped == clipped
    assert _render(frame, obj, box) == clipped
    assert np.array_equal(frame, expected)


def assert_corrupt_matches_reference(cfg):
    """Every frame's crop form equals the whole-frame reference: the same
    blob events, the same soft channels once expanded, and the label that
    ``compose_label`` takes from the reference channels."""
    for t, (label, _boxes, _clipped) in enumerate(generate(cfg), start=1):
        try:
            ref_channels, ref_blobs = reference_corrupt(label, t, cfg)
        except SceneError as exc:
            with pytest.raises(SceneError, match=re.escape(str(exc))):
                corrupt(label, t, cfg)
            return
        corruption = corrupt(label, t, cfg)
        assert corruption.blobs == ref_blobs
        channels = corruption.channels()
        assert list(channels) == list(ref_channels)
        for oid, channel in channels.items():
            assert np.array_equal(channel, ref_channels[oid]), (t, oid)
        assert np.array_equal(corruption.label(), compose_label(ref_channels, label.shape)), t


def edge_scene(flip_prob):
    """Objects clipped at each frame edge, two of them overlapping others,
    and blobs allowed anywhere, so they land on other objects too."""
    return SceneConfig(
        height=40,
        width=50,
        frames=6,
        seed=3,
        objects=(
            ObjectSpec(9, BBox(-4, 10, 12, 9)),  # left edge
            ObjectSpec(4, BBox(43, 12, 10, 8), shape="ellipse"),  # right edge
            ObjectSpec(6, BBox(18, -3, 9, 8), shape="ellipse"),  # top edge
            ObjectSpec(2, BBox(20, 35, 14, 9)),  # bottom edge
            ObjectSpec(3, BBox(4, 14, 10, 10), shape="ellipse"),  # over 9
            ObjectSpec(7, BBox(22, 3, 12, 10)),  # over 6
        ),
        corruption=CorruptionSpec(blobs=2, blob_size=(10, 20), min_distance=0.0, flip_prob=flip_prob),
    )


@pytest.mark.parametrize("flip_prob", [0.0, 0.3, 1.0])
def test_corrupt_crops_equal_whole_frame_reference_at_edges_and_overlaps(flip_prob):
    cfg = edge_scene(flip_prob)
    labels, _, clips = generate_all(cfg)
    assert {oid for _, oid in clips} == {9, 4, 6, 2}
    by_id = {o.object_id: o for o in cfg.objects}
    for under, over in ((9, 3), (6, 7)):
        alone = next(generate(dataclasses.replace(cfg, objects=(by_id[under],))))[0]
        assert (labels[0][alone == under] == over).any()
    # some blob lies on another object's pixels
    _, events = corrupt_all(labels, cfg)
    patches = [labels[e.frame - 1][e.window] for e in events]
    assert any(((p != 0) & (p != e.object_id)).any() for p, e in zip(patches, events))
    assert_corrupt_matches_reference(cfg)


@st.composite
def corrupt_scenes(draw):
    height = draw(st.integers(3, 24))
    width = draw(st.integers(3, 24))
    ids = draw(st.lists(st.integers(1, 255), min_size=1, max_size=3, unique=True))
    objects = []
    for oid in ids:
        w = draw(st.integers(1, width + 2))
        h = draw(st.integers(1, height + 2))
        # at least one pixel column and row of the box is inside the frame
        x = draw(st.integers(1 - w, width - 1))
        y = draw(st.integers(1 - h, height - 1))
        shape = draw(st.sampled_from(["rectangle", "ellipse"]))
        objects.append(ObjectSpec(oid, BBox(x, y, w, h), shape=shape))
    side = min(height, width)
    lo = draw(st.integers(1, side))
    corruption = CorruptionSpec(
        blobs=draw(st.integers(0, 2)),
        blob_size=(lo, draw(st.integers(lo, side))),
        min_distance=draw(st.sampled_from([0.0, 2.0, 6.0])),
        flip_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
    )
    seed = draw(st.integers(0, 2**32))
    return SceneConfig(height, width, 3, seed, tuple(objects), corruption)


@settings(max_examples=300, deadline=None)
@given(corrupt_scenes())
def test_corrupt_crops_equal_whole_frame_reference(cfg):
    assert_corrupt_matches_reference(cfg)


def test_one_480p_frame_allocates_less_than_a_float64_frame():
    cfg = SceneConfig(
        height=480,
        width=854,
        frames=3,
        seed=4,
        objects=(
            ObjectSpec(1, BBox(120, 100, 60, 40), motion=LinearMotion(4, 2)),
            ObjectSpec(2, BBox(500, 260, 70, 50), shape="ellipse", motion=AcceleratingMotion(-3, 1, 1, 0)),
        ),
        corruption=CorruptionSpec(blobs=2, blob_size=(30, 50), min_distance=60.0, flip_prob=0.02),
    )
    frames = enumerate(generate(cfg), start=1)
    for _ in range(2):
        next(frames)
    # frame 3 is the first with blobs
    tracemalloc.start()
    try:
        t, (label, _boxes, _clipped) = next(frames)
        corruption = corrupt(label, t, cfg)
        corruption.label()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corruption.blobs) == 4
    float64_frame = 480 * 854 * np.dtype(np.float64).itemsize
    assert peak < float64_frame, f"peak {peak / 1e6:.2f} MB"


def test_generate_and_corrupt_stream_in_constant_memory():
    base = SceneConfig(
        height=240,
        width=427,
        frames=3,
        seed=4,
        objects=(
            ObjectSpec(1, BBox(60, 60, 40, 30), motion=SinusoidalMotion(30, 20, period=17)),
            ObjectSpec(
                2, BBox(280, 130, 44, 32), shape="ellipse", motion=SinusoidalMotion(-25, 15, period=11)
            ),
        ),
        corruption=CorruptionSpec(blobs=2, blob_size=(15, 25), min_distance=30.0, flip_prob=0.02),
    )

    def streamed_peak(n):
        cfg = dataclasses.replace(base, frames=n)
        tracemalloc.start()
        consumed = 0
        for t, (label, _boxes, _clipped) in enumerate(generate(cfg), start=1):
            corruption = corrupt(label, t, cfg)
            corruption.label()
            consumed += len(corruption.crops) + len(corruption.blobs)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert consumed == 2 * n + 4 * (n - 2)
        return peak

    peak_small = streamed_peak(30)
    peak_large = streamed_peak(300)
    ratio = peak_large / peak_small
    detail = f"peak {peak_small / 1e6:.1f}MB at 30 frames, {peak_large / 1e6:.1f}MB at 300"
    assert ratio < 1.5, detail


# --- JSON round trip ---


def scene_json():
    return {
        "height": 60,
        "width": 90,
        "frames": 8,
        "seed": 11,
        "objects": [
            {
                "id": 1,
                "box": [5, 10, 12, 8],
                "shape": "rectangle",
                "motion": {"kind": "linear", "v": [4, 1]},
            },
            {
                "id": 2,
                "box": [60, 30, 10, 10],
                "shape": "ellipse",
                "motion": {"kind": "accelerating", "v": [1, 0], "a": [0, 1]},
            },
        ],
        "corruption": {"blobs": 2, "blob_size": [8, 12], "min_distance": 25.0, "flip_prob": 0.05},
    }


def test_scene_json_round_trip():
    cfg = scene_from_json(scene_json())
    assert cfg.height == 60 and cfg.frames == 8
    assert cfg.objects[0].motion.offset(3) == (8, 2)
    assert isinstance(cfg.objects[1].motion, AcceleratingMotion)
    assert cfg.corruption.blobs == 2

    echoed = scene_to_json(cfg)
    assert scene_from_json(echoed) == cfg


def test_scene_json_defaults():
    cfg = scene_from_json(
        {"height": 40, "width": 40, "frames": 5, "objects": [{"box": [2, 2, 6, 6]}]}
    )
    assert cfg.objects[0].object_id == 1
    assert cfg.objects[0].shape == "rectangle"
    assert cfg.objects[0].motion.offset(5) == (0, 0)
    assert cfg.corruption.blobs == 0 and cfg.corruption.flip_prob == 0.0
    assert cfg.seed == 0


def echo_text(data) -> str:
    """The scene echo as ``synth`` writes it; the dump tells 0 from 0.0."""
    return json.dumps(scene_to_json(scene_from_json(data)), indent=2, sort_keys=True)


# One object per motion kind, both shapes, and every optional key left out
# somewhere: seed, shape, motion, kind, v, a, amplitude, period, corruption
# and each corruption key. The echo was taken before the parser read its
# defaults from the dataclasses.
SPARSE_SCENE = {
    "height": 24,
    "width": 40,
    "frames": 3,
    "objects": [
        {"box": [2, 3, 6, 4]},
        {"id": 7, "box": [20, 2, 8, 6], "shape": "ellipse", "motion": {}},
        {"box": [4, 14, 5, 5], "motion": {"kind": "accelerating"}},
        {"box": [28, 14, 7, 7], "shape": "ellipse", "motion": {"kind": "sinusoidal"}},
    ],
}
SPARSE_ECHO = {
    "height": 24,
    "width": 40,
    "frames": 3,
    "seed": 0,
    "objects": [
        {
            "id": 1,
            "shape": "rectangle",
            "box": [2.0, 3.0, 6.0, 4.0],
            "motion": {"kind": "linear", "v": [0.0, 0.0]},
        },
        {
            "id": 7,
            "shape": "ellipse",
            "box": [20.0, 2.0, 8.0, 6.0],
            "motion": {"kind": "linear", "v": [0.0, 0.0]},
        },
        {
            "id": 3,
            "shape": "rectangle",
            "box": [4.0, 14.0, 5.0, 5.0],
            "motion": {"kind": "accelerating", "v": [0.0, 0.0], "a": [0.0, 0.0]},
        },
        {
            "id": 4,
            "shape": "ellipse",
            "box": [28.0, 14.0, 7.0, 7.0],
            "motion": {"kind": "sinusoidal", "amplitude": [0.0, 0.0], "period": 12.0},
        },
    ],
    "corruption": {"blobs": 0, "blob_size": [8, 16], "min_distance": 40.0, "flip_prob": 0.0},
}


@pytest.mark.parametrize("corruption", [None, {}])
def test_scene_json_echo_of_omitted_keys_matches_golden(corruption):
    data = dict(SPARSE_SCENE) if corruption is None else dict(SPARSE_SCENE, corruption=corruption)
    assert echo_text(data) == json.dumps(SPARSE_ECHO, indent=2, sort_keys=True)


def test_scene_json_echo_converts_each_value():
    # integral floats echo as ints, ints given for floats echo with a point
    data = {
        "height": 24.0,
        "width": 40,
        "frames": 3.0,
        "seed": 1,
        "objects": [
            {"id": 5.0, "box": [2, 3, 6, 4], "motion": {"v": [1, 2]}},
            {"box": [20, 2, 8, 6], "motion": {"kind": "accelerating", "a": [1, -1]}},
            {"box": [4, 14, 5, 5], "motion": {"kind": "sinusoidal", "amplitude": [3, 0], "period": 10}},
        ],
        "corruption": {"blobs": 2, "blob_size": [2.0, 4.0], "min_distance": 3, "flip_prob": 0},
    }
    expected = {
        "height": 24,
        "width": 40,
        "frames": 3,
        "seed": 1,
        "objects": [
            {
                "id": 5,
                "shape": "rectangle",
                "box": [2.0, 3.0, 6.0, 4.0],
                "motion": {"kind": "linear", "v": [1.0, 2.0]},
            },
            {
                "id": 2,
                "shape": "rectangle",
                "box": [20.0, 2.0, 8.0, 6.0],
                "motion": {"kind": "accelerating", "v": [0.0, 0.0], "a": [1.0, -1.0]},
            },
            {
                "id": 3,
                "shape": "rectangle",
                "box": [4.0, 14.0, 5.0, 5.0],
                "motion": {"kind": "sinusoidal", "amplitude": [3.0, 0.0], "period": 10.0},
            },
        ],
        "corruption": {"blobs": 2, "blob_size": [2, 4], "min_distance": 3.0, "flip_prob": 0.0},
    }
    assert echo_text(data) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    ("path", "value", "message"),
    [
        (("frames",), 3.9, "scene: frames: expected an integer, got 3.9"),
        (("seed",), True, "scene: seed: expected an integer, got True"),
        (("height",), "24", "scene: height: expected an integer, got '24'"),
        (("objects", 0, "id"), 5.5, "object 0: id: expected an integer, got 5.5"),
        (("objects", 1, "id"), False, "object 1: id: expected an integer, got False"),
        (("corruption", "blobs"), 2.7, "corruption: blobs: expected an integer, got 2.7"),
        (("corruption", "blob_size"), [2.9, 4.0], "corruption: blob_size: expected an integer, got 2.9"),
        (("corruption", "blob_size"), [8], r"corruption: blob_size: expected a list of 2 numbers, got \[8\]"),
        (("objects", 0, "box"), [5, 10, 12], "object 0: box: expected a list of 4 numbers"),
        (("objects", 0, "box"), 5, "object 0: box: expected a list of 4 numbers, got 5"),
        (("objects", 0, "motion", "v"), [1, 2, 3], "object 0 motion: v: expected a list of 2 numbers"),
        (("objects", 1, "motion", "a"), [1], "object 1 motion: a: expected a list of 2 numbers"),
        (("objects", 1, "motion", "v"), {"x": 1}, "object 1 motion: v: expected a list of 2 numbers"),
        (("objects",), 3, "scene: objects: 'int' object is not iterable"),
        (("corruption", "flip_prob"), True, "corruption: flip_prob: expected a number, got True"),
        (("corruption", "flip_prob"), "0.5", "corruption: flip_prob: expected a number, got '0.5'"),
        (("corruption", "min_distance"), "60", "corruption: min_distance: expected a number, got '60'"),
        (("corruption", "min_distance"), float("nan"), "corruption: min_distance: must be finite, got nan"),
        (("objects", 0, "box"), [2, 3, True, 4], "object 0: box: expected a number, got True"),
        (("objects", 0, "box"), [2, float("inf"), 6, 4], "object 0: box: must be finite, got inf"),
        (("objects", 0, "motion", "v"), ["3", 1], "object 0 motion: v: expected a number, got '3'"),
        (("objects", 1, "motion", "a"), [None, 1], "object 1 motion: a: expected a number, got None"),
    ],
)
def test_scene_json_rejects_a_value_of_the_wrong_type_naming_its_key(path, value, message):
    data = scene_json()
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(SceneError, match=f"^{message}"):
        scene_from_json(data)


def test_scene_json_sinusoidal_motion():
    cfg = scene_from_json(
        {
            "height": 40,
            "width": 40,
            "frames": 5,
            "objects": [
                {"box": [10, 10, 6, 6], "motion": {"kind": "sinusoidal", "amplitude": [6, 0], "period": 10}}
            ],
        }
    )
    assert isinstance(cfg.objects[0].motion, SinusoidalMotion)


def test_scene_json_rejects_unknown_keys():
    bad_top = scene_json()
    bad_top["bogus"] = 1
    with pytest.raises(SceneError):
        scene_from_json(bad_top)

    bad_obj = scene_json()
    bad_obj["objects"][0]["color"] = "red"
    with pytest.raises(SceneError):
        scene_from_json(bad_obj)

    bad_motion = scene_json()
    bad_motion["objects"][0]["motion"]["speed"] = 3
    with pytest.raises(SceneError):
        scene_from_json(bad_motion)

    # keys of another motion kind
    foreign_keys = scene_json()
    foreign_keys["objects"][0]["motion"] = {"kind": "linear", "v": [1, 1], "a": [5, 5], "period": 3}
    with pytest.raises(SceneError):
        scene_from_json(foreign_keys)

    bad_corr = scene_json()
    bad_corr["corruption"]["strength"] = 2
    with pytest.raises(SceneError):
        scene_from_json(bad_corr)


def test_scene_json_rejects_missing_required():
    data = scene_json()
    del data["frames"]
    with pytest.raises(SceneError):
        scene_from_json(data)

    data = scene_json()
    del data["objects"][0]["box"]
    with pytest.raises(SceneError):
        scene_from_json(data)

    data = scene_json()
    data["objects"][0]["motion"] = {"kind": "warp"}
    with pytest.raises(SceneError):
        scene_from_json(data)

    # a section that is not a JSON object, and a number JSON reads as inf
    data = scene_json()
    data["objects"][0]["motion"] = "linear"
    with pytest.raises(SceneError, match="object 0 motion: expected a JSON object"):
        scene_from_json(data)

    data = scene_json()
    data["corruption"] = []
    with pytest.raises(SceneError, match="corruption: expected a JSON object"):
        scene_from_json(data)

    data = scene_json()
    data["height"] = float("inf")
    with pytest.raises(SceneError, match="infinity"):
        scene_from_json(data)


@pytest.mark.parametrize(
    "motion",
    [
        {"kind": "linear", "v": [float("inf"), 0]},
        {"kind": "linear", "v": [float("nan"), 0]},
        {"kind": "accelerating", "v": [1, 0], "a": [0, float("-inf")]},
        {"kind": "sinusoidal", "amplitude": [3, 0], "period": float("nan")},
    ],
)
def test_scene_json_rejects_non_finite_motion(motion):
    data = scene_json()
    data["objects"][0]["motion"] = motion
    with pytest.raises(SceneError, match="must be finite"):
        scene_from_json(data)
