"""Segmentation quality scores: region similarity J, contour accuracy F,
and their mean J&F, aggregated per object, per sequence, and per corpus.

Conventions for absent objects: a frame where an object is empty in both
prediction and ground truth scores 1 (correctly absent) for J and F, and is
excluded from that object's per-frame average; empty on exactly one side
scores 0. Contour matching uses a tolerance of ceil(0.008 * image diagonal)
pixels, boundaries are 4-connectivity transitions to background with the
frame edge counting as background. A boundary pixel matches when the other
boundary has a pixel inside the Euclidean disk of that radius around it
(the DAVIS rule). Matching is exact integer arithmetic on the boundary
points, so it costs time in proportion to the boundary, not the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import corpus
from .boxes import bbox_from_mask


def _as_binary(mask: np.ndarray) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    return m.astype(bool)


def _check_dims(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, g = _as_binary(pred), _as_binary(gt)
    if p.shape != g.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {g.shape}")
    return p, g


def jaccard(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union of two binary masks.

    Both empty scores 1 (object correctly absent), exactly one empty scores 0.
    """
    p, g = _check_dims(pred, gt)
    union = np.count_nonzero(p | g)
    if union == 0:
        return 1.0
    return np.count_nonzero(p & g) / union


def erode(mask: np.ndarray, edge: bool = False) -> np.ndarray:
    """4-neighbour erosion of a boolean mask: a pixel stays set when it and
    its four neighbours are set, neighbours beyond the frame reading as edge."""
    p = np.pad(mask, 1, constant_values=edge)
    return mask & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Boundary of a binary mask: foreground pixels with a 4-neighbor in the
    background, the frame edge counting as background."""
    m = _as_binary(mask)
    return m & ~erode(m)


def contour_tolerance(shape: tuple[int, int]) -> int:
    """DAVIS-convention matching radius: ceil(0.008 * image diagonal)."""
    return math.ceil(0.008 * math.hypot(shape[0], shape[1]))


def _matched(points: np.ndarray, keys: np.ndarray, tol: int, shape: tuple[int, int]) -> int:
    """How many ``points`` lie within distance tol of a pixel in ``keys``,
    both sorted flat indices ``row * width + col`` (``np.flatnonzero``).
    Point (y, x) matches when row y + dy holds a key with a column in
    x +- isqrt(tol^2 - dy^2) for some dy; columns are clipped to the frame
    so that a range never wraps into the next row."""
    height, width = shape
    total = len(points)
    cols = points % width
    span = min(tol, height - 1)
    for dy in range(-span, span + 1):
        reach = math.isqrt(tol * tol - dy * dy)
        row = points - cols + dy * width
        lo = row + np.maximum(cols - reach, 0)
        hi = row + np.minimum(cols + reach, width - 1)
        missed = np.searchsorted(keys, lo) == np.searchsorted(keys, hi, side="right")
        points, cols = points[missed], cols[missed]
    return total - len(points)


def contour_f(pred: np.ndarray, gt: np.ndarray, tolerance_px: int | None = None) -> float:
    """Boundary F-measure, matching boundary pixels within tolerance_px
    (default :func:`contour_tolerance` of the frame).

    precision = fraction of pred boundary within tolerance of gt boundary,
    recall symmetric, F = 2PR/(P+R) (0 when P+R = 0). Both masks empty
    scores 1, exactly one empty scores 0. Raises ValueError for a negative
    tolerance.
    """
    p, g = _check_dims(pred, gt)
    tol = contour_tolerance(p.shape) if tolerance_px is None else int(tolerance_px)
    if tol < 0:
        raise ValueError(f"tolerance_px must be >= 0, got {tolerance_px}")
    # Every pair of pixels in the frame is closer than height + width.
    tol = min(tol, sum(p.shape))
    p_any, g_any = bool(p.any()), bool(g.any())
    if not p_any and not g_any:
        return 1.0
    if p_any != g_any:
        return 0.0
    pb = np.flatnonzero(boundary_pixels(p))
    gb = np.flatnonzero(boundary_pixels(g))
    precision = _matched(pb, gb, tol, p.shape) / len(pb)
    recall = _matched(gb, pb, tol, p.shape) / len(gb)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class FrameScore:
    frame: int
    object_id: int
    j: float
    f: float


@dataclass
class SequenceEval:
    """Scores for one sequence: per-frame rows plus sequence means. Frames
    where an object is absent on both sides carry no row."""

    rows: list[FrameScore] = field(default_factory=list)
    mean_j: float = 0.0
    mean_f: float = 0.0

    @property
    def mean_jf(self) -> float:
        return (self.mean_j + self.mean_f) / 2.0


def _mean_of_object_means(per_object: dict[int, list[float]]) -> float:
    """Plain average, in id order, of each object's frame average; 1 when
    there are no objects."""
    if not per_object:
        return 1.0
    return float(np.mean([float(np.mean(per_object[k])) for k in sorted(per_object)]))


def evaluate_sequence(pred_seq, gt_seq) -> SequenceEval:
    """Per-object J and F over a pair of label-mask sequences (non-negative
    integer labels), given as any two iterables of frames.

    Frame pairs are scored as they arrive and not kept, so generators stream
    the sequence one frame pair at a time. The objects of a frame are the
    nonzero labels on either side; each is scored on the smallest box that
    holds its pixels on both sides. Sequence means are plain averages over
    objects of per-object frame averages. Raises CorpusError when the
    sequences differ in length or a frame pair in dims.
    """
    out = SequenceEval()
    per_object_j: dict[int, list[float]] = {}
    per_object_f: dict[int, list[float]] = {}
    index = 0
    for index, (p, g) in enumerate(zip_longest(pred_seq, gt_seq), start=1):
        if p is None or g is None:
            sides = ("prediction", "ground truth")
            short, other = sides if p is None else sides[::-1]
            raise corpus.CorpusError(f"{short} has {index - 1} frames, {other} more")
        p, g = np.asarray(p), np.asarray(g)
        if p.shape != g.shape:
            raise corpus.CorpusError(f"frame {index}: mask dims {p.shape} vs {g.shape}")
        tol = contour_tolerance(p.shape)
        for object_id in corpus.label_ids((p, g)):
            pm = p == object_id
            gm = g == object_id
            # J and F do not change under translation, and the smallest box
            # holding both masks is bordered by background only, as the
            # frame is by its edge: score that crop with the frame's radius.
            x, y, w, h = map(int, bbox_from_mask(pm | gm).as_tuple())
            crop = slice(y, y + h), slice(x, x + w)
            j = jaccard(pm[crop], gm[crop])
            f = contour_f(pm[crop], gm[crop], tol)
            out.rows.append(FrameScore(frame=index, object_id=object_id, j=j, f=f))
            per_object_j.setdefault(object_id, []).append(j)
            per_object_f.setdefault(object_id, []).append(f)
    if index == 0:
        raise ValueError("empty sequence")
    out.mean_j = _mean_of_object_means(per_object_j)
    out.mean_f = _mean_of_object_means(per_object_f)
    return out


@dataclass
class EvalReport:
    """Corpus-level report: per-sequence evals plus plain-average corpus
    means; mean J&F is exactly (mean J + mean F) / 2."""

    sequences: dict[str, SequenceEval] = field(default_factory=dict)
    mean_j: float = 0.0
    mean_f: float = 0.0

    @property
    def mean_jf(self) -> float:
        return (self.mean_j + self.mean_f) / 2.0


def evaluate_corpus(pairs) -> EvalReport:
    """Evaluate an iterable of ``(name, (pred_seq, gt_seq))`` items, such as
    a dict's ``.items()``. Items are scored as they arrive and not kept, so
    generators stream the corpus one frame pair at a time. A CorpusError
    names its sequence. Corpus means average the sequence means in
    sorted-name order."""
    report = EvalReport()
    for name, (pred_seq, gt_seq) in pairs:
        if name in report.sequences:
            raise ValueError(f"duplicate sequence name {name!r}")
        try:
            report.sequences[name] = evaluate_sequence(pred_seq, gt_seq)
        except corpus.CorpusError as exc:
            raise corpus.CorpusError(f"{name}: {exc}") from exc
    if not report.sequences:
        raise ValueError("no sequences to evaluate")
    evals = [report.sequences[name] for name in sorted(report.sequences)]
    report.mean_j = float(np.mean([e.mean_j for e in evals]))
    report.mean_f = float(np.mean([e.mean_f for e in evals]))
    return report


def write_report_csv(report: EvalReport, path) -> None:
    """Per-frame score rows as `sequence,object,frame,J,F`."""
    with open(path, "w", newline="") as fh:
        fh.write("sequence,object,frame,J,F\n")
        for name in sorted(report.sequences):
            for row in report.sequences[name].rows:
                fh.write(f"{name},{row.object_id},{row.frame},{row.j:.6f},{row.f:.6f}\n")


def summary_lines(report: EvalReport) -> list[str]:
    return [
        f"sequences: {len(report.sequences)}",
        f"corpus mean J:   {report.mean_j:.4f}",
        f"corpus mean F:   {report.mean_f:.4f}",
        f"corpus mean J&F: {report.mean_jf:.4f}",
    ]
