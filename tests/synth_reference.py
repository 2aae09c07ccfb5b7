"""The whole-frame ``corrupt`` that ``voskit.synth`` ran before it worked on
object crops: one frame-sized float64 soft channel per object, flipped on the
whole frame's band and maxed with BLOB_VALUE on each blob. The slow reference
the crop form must equal exactly, through ``Corruption.channels`` and, after
``compose_label``, through ``Corruption.label``. Its check of the blob size
against the frame is now ``SceneConfig``'s."""

import numpy as np

from voskit.rng import Rng
from voskit.synth import (
    BLOB_VALUE,
    BlobEvent,
    SceneConfig,
    _flip_band,
    _place_blob,
    analytic_box,
)


def corrupt(label: np.ndarray, t: int, cfg: SceneConfig):
    """(channels, blob_events) of frame t: channels maps each object id to
    its float64 soft mask."""
    spec = cfg.corruption
    base = Rng(cfg.seed).spawn(t)
    channels: dict[int, np.ndarray] = {}
    blob_events: list[BlobEvent] = []
    for obj in cfg.objects:
        fg = label == obj.object_id
        channel = fg.astype(np.float64)
        rng = base.spawn(obj.object_id)
        if spec.flip_prob > 0.0:
            band = np.flatnonzero(_flip_band(fg))
            if band.size:
                draws = rng.uniform(band.size)
                hits = band[draws < spec.flip_prob]
                flat = channel.reshape(-1)
                flat[hits] = 1.0 - flat[hits]
        if t >= 3 and spec.blobs > 0:
            true_box = analytic_box(obj, t)
            for _ in range(spec.blobs):
                blob = _place_blob(rng, cfg, true_box)
                x0, y0 = int(blob.x), int(blob.y)
                x1, y1 = x0 + int(blob.w), y0 + int(blob.h)
                patch = channel[y0:y1, x0:x1]
                np.maximum(patch, BLOB_VALUE, out=patch)
                blob_events.append(BlobEvent(frame=t, object_id=obj.object_id, box=blob))
        channels[obj.object_id] = channel
    return channels, blob_events
