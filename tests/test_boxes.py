import numpy as np
import pytest
import tracker_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voskit.boxes import (
    MASK_THRESHOLD,
    BBox,
    Motion,
    apply_motion,
    attention_map,
    bbox_from_mask,
    box_delta,
    pixel_window,
)


def test_bbox_validates_fields():
    with pytest.raises(ValueError):
        BBox(0, 0, -1, 5)
    with pytest.raises(ValueError):
        BBox(float("nan"), 0, 1, 1)
    assert BBox(1, 2, 3, 4).as_tuple() == (1, 2, 3, 4)


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        np.float64("nan"),
        np.float32("-inf"),
        1e308,
        -0.0,
        0,
        7,
        -12,
        np.int64(-3),
        np.uint8(200),
        np.float32(2.5),
    ],
    ids=repr,
)
def test_bbox_accepts_exactly_the_fields_np_isfinite_accepts(value):
    fields = (value, 1.0, 2.0, 3.0)
    if np.isfinite(value):
        assert BBox(*fields).as_tuple() == fields
    else:
        with pytest.raises(ValueError) as err:
            BBox(*fields)
        assert str(err.value) == f"box fields must be finite, got {fields}"


def test_box_delta_and_apply_roundtrip():
    prev = BBox(10, 20, 30, 40)
    cur = BBox(14, 18, 32, 38)
    motion = box_delta(cur, prev)
    assert motion.as_tuple() == (4, -2, 2, -2)
    assert apply_motion(prev, motion) == cur


def test_apply_motion_clamps_size():
    box = BBox(5, 5, 3, 3)
    out = apply_motion(box, Motion(0, 0, -10, -10))
    assert out.w == 1.0 and out.h == 1.0  # never collapses to empty


def test_bbox_from_mask_binary_threshold():
    mask = np.zeros((8, 10))
    mask[2:5, 3:7] = 0.8
    box = bbox_from_mask(mask)
    assert box == BBox(x=3, y=2, w=4, h=3)
    # at or below MASK_THRESHOLD -> absent; just above it counts
    mask[2:5, 3:7] = MASK_THRESHOLD
    assert bbox_from_mask(mask) is None
    mask[3, 4] = np.nextafter(MASK_THRESHOLD, 0.0)
    assert bbox_from_mask(mask) is None
    mask[4, 5] = np.nextafter(MASK_THRESHOLD, 1.0)
    assert bbox_from_mask(mask) == BBox(x=5, y=4, w=1, h=1)


def test_bbox_from_mask_label_mode():
    label = np.zeros((6, 6), dtype=np.uint8)
    label[1:3, 1:4] = 2
    label[4:6, 0:2] = 7
    assert bbox_from_mask(label == 2) == BBox(1, 1, 3, 2)
    assert bbox_from_mask(label == 7) == BBox(0, 4, 2, 2)
    assert bbox_from_mask(label == 3) is None


def test_bbox_from_mask_single_pixel():
    mask = np.zeros((5, 5))
    mask[3, 2] = 1.0
    assert bbox_from_mask(mask) == BBox(2, 3, 1, 1)


# Each kind of mask the box scan meets: boolean, 0/1 uint8, soft float with
# values at the threshold and below 0, and integer label frames. ``fill``
# makes most pixels background, so empty masks and single pixels are common.
AROUND_THRESHOLD = [
    np.nextafter(MASK_THRESHOLD, 0.0),
    MASK_THRESHOLD,
    np.nextafter(MASK_THRESHOLD, 1.0),
]
mask_kinds = st.sampled_from(
    [
        (np.bool_, st.booleans(), False),
        (np.uint8, st.integers(0, 1), 0),
        (np.float64, st.sampled_from([-1.0, -0.0, 0.3, *AROUND_THRESHOLD, 1.0]), 0.0),
        (np.float32, st.floats(-2.0, 2.0, width=32), 0.0),
        (np.int64, st.integers(-3, 5), 0),
        (np.uint8, st.integers(0, 255), 0),
    ]
)


@st.composite
def masks(draw):
    dtype, elements, off = draw(mask_kinds)
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    return draw(hnp.arrays(dtype, shape, elements=elements, fill=st.just(off)))


@settings(max_examples=400, deadline=None)
@given(masks())
@example(np.zeros((4, 5), dtype=bool))
@example(np.ones((4, 5), dtype=bool))
@example(np.ones((1, 7), dtype=np.uint8))
@example(np.full((6, 1), MASK_THRESHOLD))
@example(np.eye(5, 3, k=2) > 0)
@example(np.pad(np.ones((1, 1)), ((0, 5), (4, 0))))
@example(np.pad([[1.0], [0.0], [0.7]], ((0, 0), (3, 2))))
def test_bbox_from_mask_equals_reference(mask):
    assert bbox_from_mask(mask) == tracker_reference.bbox_from_mask(mask)


def test_attention_map_covers_box_with_margin():
    box = BBox(10, 5, 20, 10)
    am = attention_map(box, 40, 60, margin_frac=0.1)
    assert am.dtype == bool
    assert set(np.unique(am)) <= {0, 1}
    # margin is 2 px in x (0.1*20) and 1 px in y (0.1*10)
    assert am[5:15, 10:30].all()  # the box itself
    assert am[4:16, 8:32].all()  # expanded region
    assert am[3, :].sum() == 0  # above the expanded region
    assert am[:, 7].sum() == 0  # left of the expanded region


def test_attention_map_zero_margin_exact():
    am = attention_map(BBox(2, 3, 4, 5), 12, 12, margin_frac=0.0)
    expected = np.zeros((12, 12), dtype=np.uint8)
    expected[3:8, 2:6] = 1
    assert np.array_equal(am, expected)


def test_attention_map_clips_to_frame():
    am = attention_map(BBox(-5, -5, 8, 8), 10, 10, margin_frac=0.0)
    assert am[:3, :3].all()
    assert am.sum() == 9


def test_attention_map_outside_frame_is_empty():
    am = attention_map(BBox(100, 100, 5, 5), 10, 10)
    assert am.sum() == 0


def test_attention_map_fractional_box_rounds_outward():
    am = attention_map(BBox(2.6, 2.6, 1.0, 1.0), 8, 8, margin_frac=0.0)
    # box spans [2.6, 3.6): pixels 2 and 3 in each axis
    assert am[2:4, 2:4].all()
    assert am.sum() == 4


def test_attention_map_covers_the_frame_at_a_huge_margin():
    # At 1e308 the expanded edges overflow to -inf and +inf; they clip to
    # the frame like finite edges do.
    am = attention_map(BBox(10, 5, 20, 10), 40, 60, margin_frac=1e308)
    assert am.dtype == bool and am.shape == (40, 60)
    assert am.all()


def test_attention_map_rejects_negative_margin():
    with pytest.raises(ValueError):
        attention_map(BBox(0, 0, 2, 2), 5, 5, margin_frac=-0.1)


# Box fields from small integers and fractions (negative ones too, so boxes
# lie off each edge) up to 1e300; frames of 1-12 pixels per side; margins 0,
# fractional and one that overflows the edges to +-inf.
coords = st.one_of(st.integers(-15, 15), st.floats(-15, 15), st.floats(-1e300, 1e300))
sizes = st.one_of(st.integers(0, 15), st.floats(0, 15), st.floats(0, 1e300))
margins = st.one_of(st.just(0.0), st.floats(0, 2), st.just(1e308))
sides = st.integers(1, 12)


@settings(max_examples=500, deadline=None)
@given(st.builds(BBox, coords, coords, sizes, sizes), sides, sides, margins)
@example(BBox(-10, 2, 3, 2), 5, 6, 0.0)  # wholly left: a negative stop clamps, not wraps
@example(BBox(1, -10, 2, 3), 5, 6, 0.0)  # wholly above the frame
@example(BBox(-10, -10, 4, 4), 5, 6, 0.5)  # off the top-left corner
@example(BBox(2, 3, 4, 5), 12, 12, 0.0)  # integer box, zero margin
@example(BBox(0.5, 0, 2, 1), 1, 7, 0.1)  # 1xN frame
@example(BBox(0, 2.5, 1, 3), 7, 1, 0.1)  # Nx1 frame
@example(BBox(1e300, -1e300, 1e300, 1e300), 4, 4, 1e308)
def test_attention_map_equals_reference_and_is_its_pixel_window(box, height, width, margin):
    am = attention_map(box, height, width, margin)
    assert am.dtype == bool and am.shape == (height, width)
    assert np.array_equal(am, tracker_reference.attention_map(box, height, width, margin) == 1)
    rows, cols = pixel_window(box, height, width, margin)
    for span, side in ((rows, height), (cols, width)):
        assert span.step is None and 0 <= span.start <= span.stop
        assert span.start == span.stop or span.stop <= side
    inside = np.zeros((height, width), dtype=bool)
    inside[rows.start : rows.stop, cols.start : cols.stop] = True
    assert np.array_equal(am, inside)
