"""The box scan and the filter loop that ``voskit.boxes`` and
``voskit.tracker`` ran before the box scan took a boolean mask as its own
selection and the tracker passed warm-up and fallback channels through in one
branch: ``bbox_from_mask`` thresholds every mask and scans every column, and
``filter_stream`` has a warm-up branch plus a fallback nested in its gate
branch. The reference the rewrite must equal exactly: the same boxes, labels
and track rows."""

import numpy as np

from voskit.boxes import MASK_THRESHOLD, BBox, apply_motion, attention_map, box_delta
from voskit.tracker import (
    SOURCE_CV,
    SOURCE_FALLBACK,
    SOURCE_PT,
    SOURCE_WARMUP,
    FilteredFrame,
    TrackRow,
    compose_label,
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
