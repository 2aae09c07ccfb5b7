"""Prediction filtering for mask sequences.

Each object's bounding box is tracked through the video; a box is predicted
for the coming frame from the motion between the two previous boxes, turned
into a binary attention gate, and multiplied into the object's predicted
soft mask. The box is then reinitialized from the filtered mask, so the
track follows what survives the gate. Masks are binarized at
``boxes.MASK_THRESHOLD``, both into boxes and into the composed label.

Frames are dicts mapping object id -> soft mask (H x W finite values in
[0, 1]; a boolean mask counts as 0/1); an object missing from a frame is
absent, like an empty mask.
The first two frames of the sequence, and the first two frames an object is
seen with a usable box, pass through ungated (warm-up: two boxes are needed
before a motion exists). If gating empties an object's mask, the frame falls
back to the ungated mask for that object and the motion history is reset, so
the track re-acquires instead of dying.

``filter_stream`` is the real implementation and holds only per-object box
state; memory is O(frame size + objects), independent of sequence length.
``run_filter`` materializes the stream for convenience.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .boxes import MASK_THRESHOLD, BBox, apply_motion, attention_map, bbox_from_mask, box_delta

SOURCE_WARMUP = "warmup"
SOURCE_CV = "cv"
SOURCE_PT = "pt"
SOURCE_FALLBACK = "fallback"

TRACK_CSV_HEADER = ["frame", "object_id", "x", "y", "w", "h", "source"]


@dataclass(frozen=True)
class TrackRow:
    """One (frame, object) entry of the track log. box is None when the
    object had no pixels above MASK_THRESHOLD that frame; gate is the predicted
    box the mask was gated with, None on warm-up and fallback rows."""

    frame: int
    object_id: int
    box: BBox | None
    source: str
    gate: BBox | None = None


@dataclass
class FilteredFrame:
    """Per-frame output: the label mask composed from the gated channels,
    and the track rows produced for this frame."""

    frame: int
    label: np.ndarray
    rows: list[TrackRow] = field(default_factory=list)


def compose_label(channels: dict[int, np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """Argmax composition of soft channels into an integer label mask.

    A pixel takes the id of its largest channel when that value exceeds
    MASK_THRESHOLD, and is background (0) otherwise; among tied objects the
    smallest id wins. Computed with a running max instead of a stacked
    argmax: the winner is the first channel attaining the max.
    """
    if not channels:
        return np.zeros(shape, dtype=np.uint8)
    ids = sorted(channels)
    best = channels[ids[0]]
    label = np.full(shape, ids[0], dtype=np.uint8)
    for oid in ids[1:]:
        ch = channels[oid]
        better = ch > best
        best = np.where(better, ch, best)
        label[better] = oid
    label[best <= MASK_THRESHOLD] = 0
    return label


def filter_stream(
    frames: Iterable[dict[int, np.ndarray]],
    model=None,
    margin_frac: float = 0.1,
) -> Iterator[FilteredFrame]:
    """Filter a sequence of per-object soft-mask frames, streaming.

    Without a model the tracker repeats the last motion ("cv"); with one it
    maps the last motion through ``model.predict_motion`` ("pt"). Frame
    indices are 1-based. margin_frac widens each predicted box into its
    gate.
    """
    variant = SOURCE_CV if model is None else SOURCE_PT

    # (last box, box before it) per object of the previous frame
    states: dict[int, tuple[BBox | None, BBox | None]] = {}
    shape: tuple[int, int] | None = None
    for index, frame in enumerate(frames, start=1):
        out_channels: dict[int, np.ndarray] = {}
        rows: list[TrackRow] = []
        next_states: dict[int, tuple[BBox | None, BBox | None]] = {}
        for object_id in sorted(frame):
            channel = np.asarray(frame[object_id])
            if shape is None:
                shape = channel.shape
            if channel.shape != shape:
                raise ValueError(
                    f"frame {index} object {object_id}: shape {channel.shape} "
                    f"drifted from sequence shape {shape}"
                )
            if not np.isfinite(channel).all():
                raise ValueError(f"frame {index} object {object_id}: non-finite soft mask")
            prev, prev2 = states.get(object_id, (None, None))

            predicted = box = None
            if prev is not None and prev2 is not None:
                motion = box_delta(prev, prev2)
                if model is not None:
                    motion = model.predict_motion(motion)
                predicted = apply_motion(prev, motion)
                filtered = channel * attention_map(predicted, shape[0], shape[1], margin_frac)
                box = bbox_from_mask(filtered)
                source = variant
            if box is None:
                # Warm-up, or lost inside the gate: pass the channel through
                # ungated and take the box from it. A fallback also forgets
                # the old motion, so the track re-acquires.
                source = SOURCE_WARMUP if predicted is None else SOURCE_FALLBACK
                filtered = channel
                box = bbox_from_mask(channel)
                predicted = None

            keep = box is not None and source != SOURCE_FALLBACK
            next_states[object_id] = (box, prev if keep else None)

            out_channels[object_id] = filtered
            rows.append(
                TrackRow(frame=index, object_id=object_id, box=box, source=source, gate=predicted)
            )
        states = next_states

        if shape is None:
            raise ValueError(f"frame {index} carries no object channels")
        yield FilteredFrame(frame=index, label=compose_label(out_channels, shape), rows=rows)


def run_filter(
    frames: Iterable[dict[int, np.ndarray]],
    model=None,
    margin_frac: float = 0.1,
) -> tuple[list[FilteredFrame], list[TrackRow]]:
    """Materialized version of :func:`filter_stream`."""
    out = list(filter_stream(frames, model, margin_frac))
    rows = [row for f in out for row in f.rows]
    return out, rows


def track_csv_row(row: TrackRow) -> list:
    """One line of the track log as CSV fields; an absent box leaves x, y,
    w, h empty."""
    coords = ["", "", "", ""] if row.box is None else [repr(v) for v in row.box.as_tuple()]
    return [row.frame, row.object_id, *coords, row.source]

