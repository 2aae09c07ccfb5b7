"""Axis-aligned boxes, frame-to-frame box motion, and box-shaped gating.

Boxes use (x, y, w, h) in continuous pixel units: x is the left column edge,
y the top row edge. An absent object is represented by ``None`` rather than a
degenerate box.
"""

from __future__ import annotations

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
        if not all(np.isfinite(v) for v in vals):
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


def bbox_from_mask(mask: np.ndarray) -> BBox | None:
    """Tightest box covering the pixels with ``value > MASK_THRESHOLD``, or
    None when there are none. A boolean mask is its own selection."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    sel = m if m.dtype == bool else m > MASK_THRESHOLD
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


def attention_map(
    box: BBox,
    height: int,
    width: int,
    margin_frac: float = 0.1,
) -> np.ndarray:
    """Binary gate rendered from a box.

    The box is first expanded by margin_frac * w horizontally and
    margin_frac * h vertically, then rounded outward to whole pixels and
    clipped to the frame. Returns a uint8 map of 0/1; a box entirely outside
    the frame yields all zeros.
    """
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
