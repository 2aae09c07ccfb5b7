"""The box scan, the gate and the filter loop that ``voskit.boxes`` and
``voskit.tracker`` ran before the box scan took a boolean mask as its own
selection, the tracker passed warm-up and fallback channels through in one
branch, and the gate became ``boxes.pixel_window`` rendered as a boolean:
``bbox_from_mask`` thresholds every mask and scans every column,
``attention_map`` clips its own edges into a uint8 0/1 map, and
``filter_stream`` has a warm-up branch plus a fallback nested in its gate
branch. The reference the rewrite must equal exactly: the same boxes, gates
(as booleans), labels and track rows. Its ``compose_label`` is the stacked
argmax that the running max replaced, so the reference filter runs none of
the code it checks."""

import numpy as np

from voskit.boxes import MASK_THRESHOLD, BBox, apply_motion, box_delta
from voskit.tracker import (
    SOURCE_CV,
    SOURCE_FALLBACK,
    SOURCE_PT,
    SOURCE_WARMUP,
    FilteredFrame,
    TrackRow,
)


def bbox_from_mask(mask):
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    sel = m > MASK_THRESHOLD
    rows = np.flatnonzero(sel.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(sel.any(axis=0))
    return BBox(
        x=float(cols[0]),
        y=float(rows[0]),
        w=float(cols[-1] - cols[0] + 1),
        h=float(rows[-1] - rows[0] + 1),
    )


def attention_map(box, height, width, margin_frac=0.1):
    if margin_frac < 0:
        raise ValueError(f"margin_frac must be >= 0, got {margin_frac}")
    x0 = box.x - margin_frac * box.w
    x1 = box.x + box.w + margin_frac * box.w
    y0 = box.y - margin_frac * box.h
    y1 = box.y + box.h + margin_frac * box.h
    # Clip before converting: a huge margin takes the edges to +-inf.
    c0 = int(max(np.floor(x0), 0))
    c1 = int(min(np.ceil(x1), width))
    r0 = int(max(np.floor(y0), 0))
    r1 = int(min(np.ceil(y1), height))
    out = np.zeros((height, width), dtype=np.uint8)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = 1
    return out


def compose_label(channels, shape):
    """Stacked argmax in id order: the first maximum wins, and the label is
    0 where the maximum is <= MASK_THRESHOLD."""
    if not channels:
        return np.zeros(shape, dtype=np.uint8)
    ids = sorted(channels)
    stack = np.stack([channels[oid] for oid in ids])
    winner = np.asarray(ids)[np.argmax(stack, axis=0)]
    return np.where(stack.max(axis=0) > MASK_THRESHOLD, winner, 0).astype(np.uint8)


def filter_stream(frames, model=None, margin_frac=0.1):
    variant = SOURCE_CV if model is None else SOURCE_PT

    states = {}
    shape = None
    for index, frame in enumerate(frames, start=1):
        out_channels = {}
        rows = []
        next_states = {}
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

            predicted = None
            if prev is None or prev2 is None:
                filtered = channel
                box = bbox_from_mask(channel)
                source = SOURCE_WARMUP
            else:
                motion = box_delta(prev, prev2)
                if model is not None:
                    motion = model.predict_motion(motion)
                predicted = apply_motion(prev, motion)
                gate = attention_map(predicted, shape[0], shape[1], margin_frac)
                filtered = channel * gate
                box = bbox_from_mask(filtered)
                source = variant
                if box is None:
                    filtered = channel
                    box = bbox_from_mask(channel)
                    source = SOURCE_FALLBACK
                    predicted = None

            forget = box is None or source == SOURCE_FALLBACK
            next_states[object_id] = (box, None if forget else prev)

            out_channels[object_id] = filtered
            rows.append(
                TrackRow(frame=index, object_id=object_id, box=box, source=source, gate=predicted)
            )
        states = next_states

        if shape is None:
            raise ValueError(f"frame {index} carries no object channels")
        yield FilteredFrame(frame=index, label=compose_label(out_channels, shape), rows=rows)
