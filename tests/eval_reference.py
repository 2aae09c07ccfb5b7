"""The whole-sequence ``evaluate_sequence`` that ``voskit.metrics`` ran
before it streamed frame pairs: it copies both sequences into lists, scans
them for ids up front and scores every id on every frame. The slow
reference the streaming version must equal exactly.

Also the contour matching count ``_matched`` as it was before it tried the
nearest rows first: every row offset from -tol to +tol, in order, with no
early stop. The count must be the same."""

import math

import numpy as np

from voskit import corpus
from voskit.metrics import FrameScore, SequenceEval, contour_f, jaccard


def evaluate_sequence(pred_seq, gt_seq) -> SequenceEval:
    pred_seq = [np.asarray(f) for f in pred_seq]
    gt_seq = [np.asarray(f) for f in gt_seq]
    if len(pred_seq) != len(gt_seq):
        raise ValueError(f"sequence lengths differ: {len(pred_seq)} vs {len(gt_seq)}")
    if not gt_seq:
        raise ValueError("empty sequence")
    for i, (p, g) in enumerate(zip(pred_seq, gt_seq), start=1):
        if p.shape != g.shape:
            raise ValueError(f"frame {i}: mask shapes differ: {p.shape} vs {g.shape}")

    object_ids = corpus.label_ids(gt_seq + pred_seq)

    out = SequenceEval()
    per_object_j: dict[int, list[float]] = {}
    per_object_f: dict[int, list[float]] = {}
    for index, (p, g) in enumerate(zip(pred_seq, gt_seq), start=1):
        for object_id in object_ids:
            pm = p == object_id
            gm = g == object_id
            if not pm.any() and not gm.any():
                continue
            j = jaccard(pm, gm)
            f = contour_f(pm, gm)
            out.rows.append(FrameScore(frame=index, object_id=object_id, j=j, f=f))
            per_object_j.setdefault(object_id, []).append(j)
            per_object_f.setdefault(object_id, []).append(f)

    object_mean_j: dict[int, float] = {}
    object_mean_f: dict[int, float] = {}
    for object_id in object_ids:
        js = per_object_j.get(object_id)
        fs = per_object_f.get(object_id)
        # An id absent on both sides in every frame has no scored frames;
        # count it as perfectly absent.
        object_mean_j[object_id] = float(np.mean(js)) if js else 1.0
        object_mean_f[object_id] = float(np.mean(fs)) if fs else 1.0
    if object_ids:
        out.mean_j = float(np.mean([object_mean_j[k] for k in object_ids]))
        out.mean_f = float(np.mean([object_mean_f[k] for k in object_ids]))
    else:
        out.mean_j = 1.0
        out.mean_f = 1.0
    return out


def matched(points: np.ndarray, keys: np.ndarray, tol: int, shape: tuple[int, int]) -> int:
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
