import tracemalloc

import numpy as np
import pytest
from eval_reference import evaluate_sequence as reference_evaluate_sequence
from eval_reference import matched as reference_matched
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from voskit.corpus import CorpusError
from voskit.metrics import (
    _matched,
    boundary_pixels,
    contour_f,
    contour_tolerance,
    evaluate_corpus,
    evaluate_sequence,
    jaccard,
    summary_lines,
    write_report_csv,
)
from voskit.rng import Rng


def square(shape, x, y, side, value=1):
    m = np.zeros(shape, dtype=np.uint8)
    m[y : y + side, x : x + side] = value
    return m


# --- jaccard ---


def test_jaccard_identical_and_disjoint():
    a = square((20, 20), 3, 3, 5)
    b = square((20, 20), 12, 12, 5)
    assert jaccard(a, a) == 1.0
    assert jaccard(a, b) == 0.0


def test_jaccard_nested_blocks():
    gt = square((10, 10), 2, 2, 4)  # 16 px
    pred = square((10, 10), 2, 2, 2)  # 4 px inside
    assert jaccard(pred, gt) == 4 / 16


def test_jaccard_empty_conventions():
    empty = np.zeros((5, 5))
    assert jaccard(empty, empty) == 1.0
    assert jaccard(empty, square((5, 5), 1, 1, 2)) == 0.0
    assert jaccard(square((5, 5), 1, 1, 2), empty) == 0.0


def test_jaccard_symmetry_random():
    for seed in range(10):
        rng = Rng(seed)
        a = rng.uniform(100).reshape(10, 10) > 0.5
        b = rng.uniform(100).reshape(10, 10) > 0.5
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0


def test_jaccard_shape_mismatch():
    with pytest.raises(ValueError):
        jaccard(np.zeros((3, 3)), np.zeros((3, 4)))


# --- slow references: erosion boundary and disk-dilation matching ---


def reference_boundary(mask):
    """Foreground minus its 4-neighbour erosion, outside the frame as 0."""
    m = np.asarray(mask).astype(bool)
    if not m.any():
        return np.zeros_like(m)
    cross = ndimage.generate_binary_structure(2, 1)
    return m & ~ndimage.binary_erosion(m, structure=cross, border_value=0)


def reference_contour_f(pred, gt, tolerance_px=None):
    """Boundary F by dilating each full-frame boundary with a Euclidean disk."""
    p, g = np.asarray(pred).astype(bool), np.asarray(gt).astype(bool)
    if not p.any() and not g.any():
        return 1.0
    if p.any() != g.any():
        return 0.0
    tol = contour_tolerance(p.shape) if tolerance_px is None else tolerance_px
    span = np.arange(-tol, tol + 1)
    yy, xx = np.meshgrid(span, span, indexing="ij")
    disk = yy**2 + xx**2 <= tol**2
    pb, gb = reference_boundary(p), reference_boundary(g)
    precision = np.count_nonzero(pb & ndimage.binary_dilation(gb, structure=disk)) / np.count_nonzero(pb)
    recall = np.count_nonzero(gb & ndimage.binary_dilation(pb, structure=disk)) / np.count_nonzero(gb)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))


@st.composite
def mask_pairs(draw):
    """Two masks of one random shape: noise, or noise thinned towards
    sparse boundaries, so both dense and one-pixel components occur."""
    shape = draw(shapes)
    pair = []
    for _ in range(2):
        m = draw(hnp.arrays(bool, shape))
        if draw(st.booleans()):
            m &= draw(hnp.arrays(bool, shape))
        pair.append(m)
    return pair


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(bool, shapes))
def test_boundary_equals_erosion_reference(mask):
    assert np.array_equal(boundary_pixels(mask), reference_boundary(mask))


@settings(max_examples=300, deadline=None)
@given(mask_pairs(), st.integers(0, 6))
def test_contour_f_equals_disk_dilation_reference(pair, tol):
    pred, gt = pair
    assert contour_f(pred, gt, tolerance_px=tol) == reference_contour_f(pred, gt, tol)
    assert contour_f(pred, gt) == reference_contour_f(pred, gt)


@settings(max_examples=100, deadline=None)
@given(mask_pairs(), st.integers(7, 50))
def test_contour_f_equals_reference_at_wide_tolerances(pair, tol):
    # Disks wider than the frame: row offsets leave the frame and column
    # ranges are clipped at both edges.
    pred, gt = pair
    assert contour_f(pred, gt, tolerance_px=tol) == reference_contour_f(pred, gt, tol)


@st.composite
def matching_sets(draw):
    """A frame shape, two sorted sets of its flat pixel indices (rows and
    columns drawn often at the frame edges) and a tolerance: 0-20, or at
    least the frame height, up to the height + width cap of contour_f."""
    height, width = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rows = st.one_of(st.integers(0, height - 1), st.sampled_from([0, height - 1]))
    cols = st.one_of(st.integers(0, width - 1), st.sampled_from([0, width - 1]))
    pixels = st.builds(lambda y, x: y * width + x, rows, cols)
    points, keys = (np.array(sorted(draw(st.sets(pixels, max_size=60))), dtype=np.intp) for _ in range(2))
    tol = draw(st.one_of(st.integers(0, 20), st.integers(height, height + width)))
    return points, keys, tol, (height, width)


@settings(max_examples=500, deadline=None)
@given(matching_sets())
def test_nearest_rows_first_matching_counts_equal_the_full_scan(case):
    assert _matched(*case) == reference_matched(*case)


@st.composite
def far_clusters(draw):
    """A frame up to 80 px a side, keys inside one box and points in one to
    four small clusters anywhere, so that whole clusters lie far outside the
    keys' box; boxes touch the frame edge often. tol 0-20."""
    height, width = draw(st.integers(1, 80)), draw(st.integers(1, 80))

    def box_pixels(side):
        h, w = draw(st.integers(1, min(side, height))), draw(st.integers(1, min(side, width)))
        y0 = draw(st.one_of(st.sampled_from([0, height - h]), st.integers(0, height - h)))
        x0 = draw(st.one_of(st.sampled_from([0, width - w]), st.integers(0, width - w)))
        pixel = st.builds(
            lambda y, x: (y0 + y) * width + x0 + x, st.integers(0, h - 1), st.integers(0, w - 1)
        )
        return draw(st.sets(pixel, min_size=1, max_size=40))

    keys = box_pixels(30)
    points = set().union(*(box_pixels(6) for _ in range(draw(st.integers(1, 4)))))
    tol = draw(st.integers(0, 20))
    return (np.array(sorted(points), dtype=np.intp), np.array(sorted(keys), dtype=np.intp),
            tol, (height, width))


@settings(max_examples=300, deadline=None)
@given(far_clusters())
def test_matching_counts_with_clusters_far_from_the_keys_equal_the_full_scan(case):
    assert _matched(*case) == reference_matched(*case)


def test_contour_f_tolerance_beyond_the_frame_matches_everything():
    a = square((9, 14), 1, 1, 2)
    b = np.zeros((9, 14), dtype=bool)
    b[8, 13] = True
    assert contour_f(a, b, tolerance_px=10**9) == 1.0
    assert contour_f(a, b, tolerance_px=9 + 14) == 1.0
    rng = Rng(3)
    for _ in range(5):
        p = rng.uniform(9 * 14).reshape(9, 14) > 0.7
        g = rng.uniform(9 * 14).reshape(9, 14) > 0.9
        assert contour_f(p, g, tolerance_px=10**9) == 1.0
        assert contour_f(p, g, tolerance_px=9 + 14) == contour_f(p, g, tolerance_px=10**9)


@pytest.mark.parametrize("tol", range(7))
def test_contour_f_reference_edge_cases(tol):
    empty = np.zeros((9, 11), dtype=bool)
    dot = empty.copy()
    dot[4, 5] = True
    corner = empty.copy()
    corner[0, 0] = True
    full = np.ones_like(empty)
    edge = empty.copy()
    edge[:, -3:] = True
    one = np.ones((1, 1), dtype=bool)
    cases = [(empty, empty), (dot, empty), (dot, dot), (dot, corner), (corner, full),
             (full, edge), (edge, dot), (one, one), (one, ~one)]
    for pred, gt in cases:
        assert contour_f(pred, gt, tolerance_px=tol) == reference_contour_f(pred, gt, tol)


def test_contour_f_equals_reference_on_full_size_frames():
    # Frame-sized ellipses with distractor blobs at the DAVIS 480p tolerance.
    yy, xx = np.mgrid[:120, :214]
    for seed in range(3):
        rng = Rng(seed)
        cy, cx, ry, rx = rng.uniform_range(30, 90, 4)
        gt = ((yy - cy) / (ry / 2)) ** 2 + ((xx - cx) / (rx / 2)) ** 2 <= 1
        pred = gt ^ (rng.uniform(gt.size).reshape(gt.shape) > 0.97)
        pred[10:20, 150 + 10 * seed : 170 + 10 * seed] = True
        assert contour_f(pred, gt) == reference_contour_f(pred, gt)


def test_contour_negative_tolerance_is_rejected():
    m = square((10, 10), 2, 2, 4)
    with pytest.raises(ValueError, match="tolerance"):
        contour_f(m, m, tolerance_px=-1)


# --- boundaries and contour F ---


def test_boundary_of_solid_square_is_its_ring():
    m = square((12, 12), 3, 3, 5)
    b = boundary_pixels(m)
    expected = square((12, 12), 3, 3, 5) & ~square((12, 12), 4, 4, 3)
    assert np.array_equal(b, expected.astype(bool))


def test_boundary_frame_edge_counts():
    m = np.ones((4, 4), dtype=bool)
    b = boundary_pixels(m)
    # every edge pixel borders the outside; the 2x2 core does not
    assert b.sum() == 12
    assert not b[1:3, 1:3].any()


def test_contour_tolerance_examples():
    assert contour_tolerance((100, 100)) == 2  # ceil(0.008 * 141.42)
    assert contour_tolerance((480, 854)) == 8  # ceil(0.008 * 979.6)


def test_contour_identical_masks():
    m = square((50, 50), 10, 12, 9)
    assert contour_f(m, m) == 1.0


def test_contour_one_pixel_shift_within_tolerance():
    a = square((100, 100), 40, 40, 10)
    b = square((100, 100), 41, 40, 10)
    assert contour_f(a, b) == 1.0


def test_contour_far_shift_scores_zero():
    a = square((100, 100), 10, 45, 10)
    b = square((100, 100), 40, 45, 10)  # 30 px apart >> tolerance 2
    assert contour_f(a, b) == 0.0


def test_contour_partial_match_between_zero_and_one():
    a = square((100, 100), 40, 40, 20)
    b = a.copy()
    b[40:60, 55:60] = 0  # carve a notch: some boundary moves far
    f = contour_f(a, b)
    assert 0.0 < f < 1.0


def test_contour_empty_conventions():
    empty = np.zeros((30, 30))
    m = square((30, 30), 5, 5, 4)
    assert contour_f(empty, empty) == 1.0
    assert contour_f(m, empty) == 0.0
    assert contour_f(empty, m) == 0.0


def test_contour_symmetry():
    for seed in range(5):
        rng = Rng(seed)
        a = (rng.uniform(400).reshape(20, 20) > 0.6).astype(np.uint8)
        b = (rng.uniform(400).reshape(20, 20) > 0.6).astype(np.uint8)
        assert contour_f(a, b) == contour_f(b, a)


def test_contour_explicit_tolerance_widens_match():
    a = square((200, 200), 50, 50, 20)
    b = square((200, 200), 56, 50, 20)  # 6 px shift
    assert contour_f(a, b, tolerance_px=2) < 1.0
    assert contour_f(a, b, tolerance_px=8) == 1.0


# --- sequence / corpus evaluation ---


def drifting_sequence(n=6, shape=(40, 40), ids=(1, 2)):
    gt, pred = [], []
    for t in range(n):
        g = np.zeros(shape, dtype=np.uint8)
        p = np.zeros(shape, dtype=np.uint8)
        for k, oid in enumerate(ids):
            x = 4 + 3 * t + 12 * k
            g[5 + 8 * k : 11 + 8 * k, x : x + 6] = oid
            p[5 + 8 * k : 11 + 8 * k, x + 1 : x + 7] = oid  # 1 px off
        gt.append(g)
        pred.append(p)
    return pred, gt


def test_evaluate_perfect_match():
    pred, gt = drifting_sequence()
    ev = evaluate_sequence(gt, gt)
    assert ev.mean_j == 1.0 and ev.mean_f == 1.0 and ev.mean_jf == 1.0
    assert all(r.j == 1.0 and r.f == 1.0 for r in ev.rows)


def test_evaluate_all_background_prediction_scores_zero_j():
    pred, gt = drifting_sequence()
    blank = [np.zeros_like(f) for f in gt]
    ev = evaluate_sequence(blank, gt)
    assert ev.mean_j == 0.0
    assert all(r.j == 0.0 for r in ev.rows)


def test_evaluate_matches_brute_force_recount():
    # independent recount: per object, per frame, raw pixel loops
    pred, gt = drifting_sequence()
    ev = evaluate_sequence(pred, gt)
    ids = [1, 2]
    per_object = []
    for oid in ids:
        js = []
        for p, g in zip(pred, gt):
            inter = ((p == oid) & (g == oid)).sum()
            union = ((p == oid) | (g == oid)).sum()
            if union == 0 and not (p == oid).any() and not (g == oid).any():
                continue
            js.append(inter / union if union else 1.0)
        per_object.append(sum(js) / len(js))
    expected_j = sum(per_object) / len(per_object)
    assert abs(ev.mean_j - expected_j) < 1e-12


def test_evaluate_excludes_frames_absent_on_both_sides():
    shape = (20, 20)
    gt = [square(shape, 2, 2, 4), np.zeros(shape, dtype=np.uint8), square(shape, 6, 2, 4)]
    pred = [square(shape, 2, 2, 4), np.zeros(shape, dtype=np.uint8), square(shape, 6, 2, 4)]
    ev = evaluate_sequence(pred, gt)
    assert len(ev.rows) == 2  # middle frame skipped
    assert ev.mean_j == 1.0


def test_evaluate_counts_one_sided_absence_as_zero():
    shape = (20, 20)
    gt = [square(shape, 2, 2, 4)] * 3
    pred = [square(shape, 2, 2, 4), np.zeros(shape, dtype=np.uint8), square(shape, 2, 2, 4)]
    ev = evaluate_sequence(pred, gt)
    js = [r.j for r in ev.rows]
    assert js == [1.0, 0.0, 1.0]
    assert abs(ev.mean_j - 2 / 3) < 1e-12


def test_evaluate_monotone_gating_never_hurts_j():
    # zeroing prediction pixels that are background in GT never decreases J
    for seed in range(5):
        rng = Rng(seed)
        gt = (rng.uniform(400).reshape(20, 20) > 0.5).astype(np.uint8)
        pred = (rng.uniform(400).reshape(20, 20) > 0.4).astype(np.uint8)
        gated = pred & gt
        assert jaccard(gated, gt) >= jaccard(pred, gt)


def test_evaluate_validates_inputs():
    pred, gt = drifting_sequence()
    with pytest.raises(CorpusError, match="prediction has 5 frames, ground truth more"):
        evaluate_sequence(iter(pred[:-1]), iter(gt))
    with pytest.raises(CorpusError, match="ground truth has 5 frames, prediction more"):
        evaluate_sequence(iter(pred), iter(gt[:-1]))
    shrunk = pred[:3] + [pred[3][:30]] + pred[4:]
    with pytest.raises(CorpusError, match=r"frame 4: mask dims \(30, 40\) vs \(40, 40\)"):
        evaluate_sequence(shrunk, gt)
    with pytest.raises(CorpusError, match="^b: frame 4"):
        evaluate_corpus([("a", (gt, gt)), ("b", (shrunk, gt))])
    with pytest.raises(ValueError):
        evaluate_sequence([], [])


def test_corpus_report_means_and_jf(tmp_path):
    pred, gt = drifting_sequence()
    report = evaluate_corpus({"b": (pred, gt), "a": (gt, gt)}.items())
    ev_a = evaluate_sequence(gt, gt)
    ev_b = evaluate_sequence(pred, gt)
    assert abs(report.mean_j - (ev_a.mean_j + ev_b.mean_j) / 2) < 1e-12
    assert report.mean_jf == (report.mean_j + report.mean_f) / 2

    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sequence,object,frame,J,F"
    assert len(lines) == 1 + len(ev_a.rows) + len(ev_b.rows)
    assert lines[1].startswith("a,1,1,")

    summary = summary_lines(report)
    assert any("J&F" in line for line in summary)
    assert f"{report.mean_jf:.4f}" in summary[-1]


def test_corpus_streams_items_like_a_mapping():
    pred, gt = drifting_sequence()
    from_dict = evaluate_corpus({"b": (pred, gt), "a": (gt, gt)}.items())
    streamed = evaluate_corpus(iter([("a", (gt, gt)), ("b", (pred, gt))]))
    assert streamed.mean_j == from_dict.mean_j and streamed.mean_f == from_dict.mean_f
    assert list(streamed.sequences) == ["a", "b"]
    with pytest.raises(ValueError, match="duplicate"):
        evaluate_corpus([("a", (gt, gt)), ("a", (gt, gt))])


def test_corpus_requires_sequences():
    with pytest.raises(ValueError):
        evaluate_corpus([])


def test_scores_always_in_unit_interval():
    for seed in range(5):
        rng = Rng(seed)
        gt = [(rng.uniform(400).reshape(20, 20) > 0.5).astype(np.uint8) for _ in range(3)]
        pred = [(rng.uniform(400).reshape(20, 20) > 0.5).astype(np.uint8) for _ in range(3)]
        ev = evaluate_sequence(pred, gt)
        for row in ev.rows:
            assert 0.0 <= row.j <= 1.0
            assert 0.0 <= row.f <= 1.0


# --- streaming evaluation against the whole-sequence reference ---


@st.composite
def label_sequence_pairs(draw):
    """A prediction and a ground-truth sequence of small label frames over
    ids {1, 2, 7}: ids appear late, vanish, show on one side only, or not
    at all."""
    n = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    labels = st.sampled_from([0, 0, 1, 2, 7])
    return tuple(
        [draw(hnp.arrays(np.uint8, shape, elements=labels)) for _ in range(n)]
        for _side in range(2)
    )


def _frames(*labels, shape=(6, 6)):
    """One frame per label: that id on a 3x3 square, 0 for an empty frame."""
    return [square(shape, 1, 1, 3, value) for value in labels]


@settings(max_examples=300, deadline=None)
@given(label_sequence_pairs())
@example((_frames(0, 0, 0), _frames(0, 0, 0)))  # no ids
@example((_frames(0, 0, 2), _frames(0, 1, 2)))  # ids appear late
@example((_frames(1, 0, 0), _frames(1, 1, 0)))  # an id vanishes
@example((_frames(3, 3, 0), _frames(0, 0, 0)))  # an id on one side only
def test_streaming_evaluate_sequence_equals_whole_sequence_reference(pair):
    pred, gt = pair
    ev = evaluate_sequence(iter(pred), (frame for frame in gt))
    ref = reference_evaluate_sequence(pred, gt)
    assert ev.rows == ref.rows
    assert (ev.mean_j, ev.mean_f) == (ref.mean_j, ref.mean_f)


@st.composite
def sparse_label_pairs(draw):
    """One prediction and one ground-truth frame up to 300x400 holding a few
    small objects, each on both sides (the prediction shifted by up to 4
    px) or on one side only, and often touching a frame edge. At 300x400
    the contour tolerance is 4 px, wider than the crop of a 1x1 object."""
    height, width = draw(st.integers(1, 300)), draw(st.integers(1, 400))
    pred = np.zeros((height, width), np.uint8)
    gt = np.zeros((height, width), np.uint8)
    for _ in range(draw(st.integers(1, 3))):
        oid = draw(st.sampled_from([1, 2, 7]))
        h, w = draw(st.integers(1, min(6, height))), draw(st.integers(1, min(6, width)))
        patch = draw(hnp.arrays(bool, (h, w)))
        y = draw(st.sampled_from([0, height - h]) | st.integers(0, height - h))
        x = draw(st.sampled_from([0, width - w]) | st.integers(0, width - w))
        dy, dx = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        py, px = min(max(y + dy, 0), height - h), min(max(x + dx, 0), width - w)
        sides = draw(st.sampled_from(["both", "both", "pred", "gt"]))
        if sides != "pred":
            gt[y : y + h, x : x + w][patch] = oid
        if sides != "gt":
            pred[py : py + h, px : px + w][patch] = oid
    return [pred], [gt]


def _corner_pairs(shape, side, offset):
    """A side x side square in each corner of gt, so each object touches two
    frame edges; the prediction holds it offset px inward, or not at all."""
    height, width = shape
    corners = [(0, 0), (0, width - side), (height - side, 0), (height - side, width - side)]
    pred = np.zeros(shape, np.uint8)
    gt = np.zeros(shape, np.uint8)
    for oid, (y, x) in enumerate(corners, start=1):
        gt[y : y + side, x : x + side] = oid
        if oid != 4:
            py = y + offset if y == 0 else y - offset
            px = x + offset if x == 0 else x - offset
            pred[py : py + side, px : px + side] = oid
    return [pred], [gt]


@settings(max_examples=200, deadline=None)
@given(sparse_label_pairs())
@example(_corner_pairs((300, 400), 1, 3))  # tolerance 4 > 1x1 object, shift 3
@example(_corner_pairs((300, 400), 5, 4))
@example(_corner_pairs((7, 9), 2, 1))
def test_object_crop_scores_equal_whole_frame_reference(pair):
    pred, gt = pair
    ev = evaluate_sequence(pred, gt)
    ref = reference_evaluate_sequence(pred, gt)
    assert ev.rows == ref.rows
    assert (ev.mean_j, ev.mean_f) == (ref.mean_j, ref.mean_f)


def test_evaluate_sequence_streams_in_constant_memory():
    # One square drifting right on 240x427 frames, the prediction a pixel
    # behind; frames are made on demand, so only the scorer can hold them.
    shape = (240, 427)

    def frames(n, lag):
        return (square(shape, 20 + t % 300 - lag, 60, 80) for t in range(n))

    def streamed_peak(n):
        tracemalloc.start()
        ev = evaluate_sequence(frames(n, lag=1), frames(n, lag=0))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(ev.rows) == n
        return peak

    peak_small = streamed_peak(100)
    peak_large = streamed_peak(1000)
    assert peak_large / peak_small < 1.5, (peak_small, peak_large)


# --- laws: each holds for the definition itself, with no reference ---

SYMMETRIES = [
    lambda m: m,
    lambda m: np.rot90(m, 1),
    lambda m: np.rot90(m, 2),
    lambda m: np.rot90(m, 3),
    np.fliplr,
    np.flipud,
    np.transpose,
    lambda m: np.rot90(m, 1).T,
]


@settings(max_examples=200, deadline=None)
@given(mask_pairs(), st.none() | st.integers(0, 6))
def test_jaccard_and_contour_f_are_bit_equal_when_the_masks_swap(pair, tol):
    pred, gt = pair
    assert jaccard(pred, gt) == jaccard(gt, pred)
    assert contour_f(pred, gt, tol) == contour_f(gt, pred, tol)


@settings(max_examples=100, deadline=None)
@given(mask_pairs(), st.none() | st.integers(0, 6))
def test_jaccard_and_contour_f_are_bit_equal_under_the_8_flips_and_rotations(pair, tol):
    # The default tolerance is a function of the frame diagonal, which no
    # symmetry changes.
    pred, gt = pair
    j, f = jaccard(pred, gt), contour_f(pred, gt, tol)
    for move in SYMMETRIES:
        assert jaccard(move(pred), move(gt)) == j
        assert contour_f(move(pred), move(gt), tol) == f


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(bool, shapes), st.none() | st.integers(0, 6))
def test_a_mask_scored_against_itself_scores_1(mask, tol):
    assert jaccard(mask, mask) == 1.0
    assert contour_f(mask, mask, tol) == 1.0


@settings(max_examples=200, deadline=None)
@given(label_sequence_pairs(), st.lists(st.integers(1, 255), min_size=3, max_size=3, unique=True))
def test_relabelling_ids_permutes_the_rows_of_evaluate_sequence(pair, new_ids):
    # Ids 1, 2 and 7 go to three distinct nonzero ids; each object is
    # scored on its own pixels only, so its rows keep their bits.
    pred, gt = pair
    lut = np.zeros(256, np.uint8)
    lut[[1, 2, 7]] = new_ids
    ev = evaluate_sequence(pred, gt)
    relabelled = evaluate_sequence([lut[m] for m in pred], [lut[m] for m in gt])
    moved = sorted((r.frame, int(lut[r.object_id]), r.j, r.f) for r in ev.rows)
    assert [(r.frame, r.object_id, r.j, r.f) for r in relabelled.rows] == moved
    # The means add the same per-object means in another order.
    assert relabelled.mean_j == pytest.approx(ev.mean_j, rel=1e-12)
    assert relabelled.mean_f == pytest.approx(ev.mean_f, rel=1e-12)
