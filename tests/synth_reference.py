"""The whole-frame ``corrupt`` that ``voskit.synth`` ran before it worked on
object crops: one frame-sized float64 soft channel per object, flipped on the
whole frame's band and maxed with BLOB_VALUE on each blob. The slow reference
the crop form must equal exactly, through ``Corruption.channels`` and, after
``compose_label``, through ``Corruption.label``. Its check of the blob size
against the frame is now ``SceneConfig``'s.

Also the integer span arithmetic ``voskit.synth`` used before its windows
came from ``boxes.pixel_window``: ``_pixel_bounds`` and the ``_render`` that
drew with it, which the rounded-box windows must equal."""

import numpy as np

from voskit.rng import Rng
from voskit.synth import (
    BLOB_VALUE,
    BlobEvent,
    SceneConfig,
    SceneError,
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


def _pixel_bounds(box, height: int, width: int, grow: int = 0):
    """Integer pixel span (x0, y0, x1, y1) of a box, grown by grow pixels on
    each side and clipped to the frame, plus a clip flag. The span is empty
    (x0 >= x1 or y0 >= y1) when nothing of it is visible."""
    x0 = int(np.rint(box.x)) - grow
    y0 = int(np.rint(box.y)) - grow
    x1 = x0 + int(np.rint(box.w)) + 2 * grow
    y1 = y0 + int(np.rint(box.h)) + 2 * grow
    span = (max(x0, 0), max(y0, 0), min(x1, width), min(y1, height))
    return span, span != (x0, y0, x1, y1)


def render(frame: np.ndarray, obj, box) -> bool:
    height, width = frame.shape
    (cx0, cy0, cx1, cy1), clipped = _pixel_bounds(box, height, width)
    if cx0 >= cx1 or cy0 >= cy1:
        raise SceneError(
            f"object {obj.object_id} is fully outside the {height}x{width} frame at {box}"
        )
    if obj.shape == "rectangle":
        frame[cy0:cy1, cx0:cx1] = obj.object_id
    else:
        cx = box.x + (box.w - 1) / 2.0
        cy = box.y + (box.h - 1) / 2.0
        rx = box.w / 2.0
        ry = box.h / 2.0
        rows = np.arange(cy0, cy1, dtype=np.float64)[:, None]
        cols = np.arange(cx0, cx1, dtype=np.float64)[None, :]
        inside = ((cols - cx) / rx) ** 2 + ((rows - cy) / ry) ** 2 <= 1.0
        patch = frame[cy0:cy1, cx0:cx1]
        patch[inside] = obj.object_id
    return clipped
