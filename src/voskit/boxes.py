"""Axis-aligned boxes, frame-to-frame box motion, box-shaped gating, and
the pixel rules of masks: the foreground threshold and 4-neighbour erosion.

Boxes use (x, y, w, h) in continuous pixel units: x is the left column edge,
y the top row edge. An absent object is represented by ``None`` rather than a
degenerate box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_BOX_SIZE = 1.0
# Soft-mask pixels above this are foreground, in boxes and composed labels.
MASK_THRESHOLD = 0.5


@dataclass(frozen=True)
class BBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.x, self.y, self.w, self.h)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"box fields must be finite, got {vals}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box width/height must be >= 0, got {vals}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class Motion:
    """Per-frame change of a box: top-left delta plus size delta."""

    dx: float
    dy: float
    dw: float
    dh: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.dx, self.dy, self.dw, self.dh)


def box_delta(cur: BBox, prev: BBox) -> Motion:
    """Componentwise motion cur - prev."""
    return Motion(cur.x - prev.x, cur.y - prev.y, cur.w - prev.w, cur.h - prev.h)


def apply_motion(box: BBox, motion: Motion) -> BBox:
    """Advance a box by one motion step; width/height are clamped at
    MIN_BOX_SIZE so a prediction can never collapse to an empty gate."""
    return BBox(
        x=box.x + motion.dx,
        y=box.y + motion.dy,
        w=max(box.w + motion.dw, MIN_BOX_SIZE),
        h=max(box.h + motion.dh, MIN_BOX_SIZE),
    )


def foreground(mask: np.ndarray) -> np.ndarray:
    """The boolean selection of a mask's pixels with ``value > MASK_THRESHOLD``;
    a boolean mask is its own selection."""
    return mask if mask.dtype == bool else mask > MASK_THRESHOLD


def erode(mask: np.ndarray, edge: bool = False) -> np.ndarray:
    """4-neighbour erosion of a boolean mask: a pixel stays set when it and
    its four neighbours are set, neighbours beyond the frame reading as edge."""
    p = np.pad(mask, 1, constant_values=edge)
    return mask & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]


def bbox_from_mask(mask: np.ndarray) -> BBox | None:
    """Tightest box covering the ``foreground`` pixels, or None when there
    are none."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    sel = foreground(m)
    rows = np.flatnonzero(sel.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(sel[rows[0] : rows[-1] + 1].any(axis=0))
    return BBox(
        x=float(cols[0]),
        y=float(rows[0]),
        w=float(cols[-1] - cols[0] + 1),
        h=float(rows[-1] - rows[0] + 1),
    )


def pixel_window(box: BBox, height: float, width: float, margin_frac: float = 0.0) -> tuple[slice, slice]:
    """The (rows, cols) slices of the pixels a box covers: the box widened by
    margin_frac of its size on each side, clipped to a height x width frame
    (also when a huge margin takes its edges to +-inf) and rounded outward to
    whole pixels. A slice is empty on an axis where the box misses the frame."""
    if margin_frac < 0:
        raise ValueError(f"margin_frac must be >= 0, got {margin_frac}")
    spans = []
    for lo, size, limit in ((box.y, box.h, height), (box.x, box.w, width)):
        start = math.floor(max(lo - margin_frac * size, 0))
        stop = math.ceil(min(lo + size + margin_frac * size, limit))
        spans.append(slice(start, max(stop, start)))
    return spans[0], spans[1]


def attention_map(
    box: BBox,
    height: int,
    width: int,
    margin_frac: float = 0.1,
) -> np.ndarray:
    """Boolean gate rendered from a box: True exactly on its ``pixel_window``."""
    out = np.zeros((height, width), dtype=bool)
    out[pixel_window(box, height, width, margin_frac)] = True
    return out
