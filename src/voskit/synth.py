"""Deterministic synthetic mask sequences with known motion.

``generate`` renders a multi-object label sequence one frame at a time,
together with each frame's analytic bounding boxes, so box-tracking code can
be tested against zero-error ground truth. ``corrupt`` degrades one ground
truth frame into per-object soft masks the way a real matching-based
segmenter fails: boundary pixels flip with a small probability, and spurious
far-field blobs (soft value 0.9) appear from frame 3 on, placed at least a
configured distance from the true object. Frames 1 and 2 never receive
blobs, so the first two boxes of every track are trustworthy. A consumer
that handles each frame before asking for the next holds one frame in
memory, whatever the sequence length.

All randomness flows from the scene seed through counter-based streams
keyed by (frame, object), so output is bit-identical across platforms and
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .boxes import BBox
from .metrics import erode
from .rng import Rng

BLOB_VALUE = 0.9
BLOB_ATTEMPTS = 100
# Largest frame height or width a scene may ask for; covers DAVIS full
# resolution (3840x2160) and bounds a frame-sized float64 array at 128 MiB.
MAX_FRAME_SIDE = 4096


class SceneError(ValueError):
    """Scene configuration that cannot be rendered as specified."""


def _require_finite(motion) -> None:
    for f in fields(motion):
        value = getattr(motion, f.name)
        if not math.isfinite(value):
            raise SceneError(f"{type(motion).__name__}.{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class LinearMotion:
    vx: float = 0.0
    vy: float = 0.0

    def __post_init__(self):
        _require_finite(self)

    def offset(self, t: int) -> tuple[float, float]:
        return (self.vx * (t - 1), self.vy * (t - 1))


@dataclass(frozen=True)
class AcceleratingMotion:
    """Velocity grows by (ax, ay) each frame step; with integer v and a the
    offsets stay integral, keeping analytic boxes exact."""

    vx: float = 0.0
    vy: float = 0.0
    ax: float = 0.0
    ay: float = 0.0

    def __post_init__(self):
        _require_finite(self)

    def offset(self, t: int) -> tuple[float, float]:
        n = t - 1
        half = n * (n - 1) / 2.0
        return (self.vx * n + self.ax * half, self.vy * n + self.ay * half)


@dataclass(frozen=True)
class SinusoidalMotion:
    amp_x: float = 0.0
    amp_y: float = 0.0
    period: float = 12.0

    def __post_init__(self):
        _require_finite(self)
        if self.period <= 0:
            raise SceneError(f"sinusoidal period must be > 0, got {self.period}")

    def offset(self, t: int) -> tuple[float, float]:
        phase = 2.0 * math.pi * (t - 1) / self.period
        return (self.amp_x * math.sin(phase), self.amp_y * math.sin(phase))


@dataclass(frozen=True)
class ObjectSpec:
    object_id: int
    box: BBox
    shape: str = "rectangle"
    motion: object = field(default_factory=LinearMotion)

    def __post_init__(self):
        if not (1 <= self.object_id <= 255):
            raise SceneError(f"object id must be in 1..255, got {self.object_id}")
        if self.shape not in ("rectangle", "ellipse"):
            raise SceneError(f"unknown shape {self.shape!r}")
        if self.box.w < 1 or self.box.h < 1:
            raise SceneError(f"object box must be at least 1x1, got {self.box}")


@dataclass(frozen=True)
class CorruptionSpec:
    blobs: int = 0
    blob_size: tuple[int, int] = (8, 16)
    min_distance: float = 40.0
    flip_prob: float = 0.0

    def __post_init__(self):
        lo, hi = self.blob_size
        if self.blobs < 0 or lo < 1 or hi < lo:
            raise SceneError(f"bad blob configuration: {self}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise SceneError(f"flip_prob must be in [0,1], got {self.flip_prob}")
        if self.min_distance < 0:
            raise SceneError(f"min_distance must be >= 0, got {self.min_distance}")


@dataclass(frozen=True)
class SceneConfig:
    height: int
    width: int
    frames: int
    seed: int = 0
    objects: tuple[ObjectSpec, ...] = ()
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)

    def __post_init__(self):
        if not (1 <= self.height <= MAX_FRAME_SIDE and 1 <= self.width <= MAX_FRAME_SIDE):
            raise SceneError(f"frame sides must be in 1..{MAX_FRAME_SIDE}, got {self.height}x{self.width}")
        if self.frames < 3:
            raise SceneError(f"need at least 3 frames for tracking, got {self.frames}")
        if not self.objects:
            raise SceneError("scene has no objects")
        ids = [o.object_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise SceneError(f"duplicate object ids: {ids}")


def analytic_box(obj: ObjectSpec, t: int) -> BBox:
    """Configured box advanced to frame t (1-based); offsets are rounded to
    whole pixels so rendered masks sit exactly on the analytic box. A box
    whose position overflows to a non-finite value raises SceneError."""
    dx, dy = obj.motion.offset(t)
    x = obj.box.x + float(np.rint(dx))
    y = obj.box.y + float(np.rint(dy))
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SceneError(f"object {obj.object_id} moves to non-finite ({x}, {y}) at frame {t}")
    return BBox(x=x, y=y, w=obj.box.w, h=obj.box.h)


def _pixel_bounds(box: BBox, height: int, width: int):
    """Integer pixel span of a box clipped to the frame, plus a clip flag.
    Returns None when nothing of the box is visible."""
    x0 = int(np.rint(box.x))
    y0 = int(np.rint(box.y))
    w = int(np.rint(box.w))
    h = int(np.rint(box.h))
    cx0, cy0 = max(x0, 0), max(y0, 0)
    cx1, cy1 = min(x0 + w, width), min(y0 + h, height)
    if cx0 >= cx1 or cy0 >= cy1:
        return None
    clipped = (cx0, cy0, cx1, cy1) != (x0, y0, x0 + w, y0 + h)
    return (cx0, cy0, cx1, cy1), clipped


def _render(frame: np.ndarray, obj: ObjectSpec, box: BBox) -> bool:
    height, width = frame.shape
    bounds = _pixel_bounds(box, height, width)
    if bounds is None:
        raise SceneError(
            f"object {obj.object_id} is fully outside the {height}x{width} frame at {box}"
        )
    (cx0, cy0, cx1, cy1), clipped = bounds
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


def generate(cfg: SceneConfig):
    """Render the scene one frame at a time. Yields (label, boxes,
    clipped_ids) per frame: the uint8 label frame, each object's analytic box
    by id, and the ids of objects that lost pixels to the frame boundary.
    An object that leaves the frame entirely raises SceneError when its
    frame is reached."""
    for t in range(1, cfg.frames + 1):
        label = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
        boxes: dict[int, BBox] = {}
        clipped_ids: list[int] = []
        for obj in cfg.objects:
            box = boxes[obj.object_id] = analytic_box(obj, t)
            if _render(label, obj, box):
                clipped_ids.append(obj.object_id)
        yield label, boxes, clipped_ids


def _box_gap(a: BBox, b: BBox) -> float:
    """Euclidean gap between two boxes' pixel extents (0 when they touch)."""
    gx = max(0.0, a.x - (b.x + b.w), b.x - (a.x + a.w))
    gy = max(0.0, a.y - (b.y + b.h), b.y - (a.y + a.h))
    return math.hypot(gx, gy)


def _flip_band(fg: np.ndarray) -> np.ndarray:
    """Pixels eligible for boundary noise: the one-pixel ring on either side
    of the object contour (4-connectivity), i.e. the dilation of fg minus
    its erosion, the frame edge counting as background."""
    return ~erode(~fg, edge=True) & ~erode(fg)


@dataclass(frozen=True)
class BlobEvent:
    frame: int
    object_id: int
    box: BBox


def corrupt(label: np.ndarray, t: int, cfg: SceneConfig):
    """Degrade frame t (1-based) of a generated sequence into per-object
    soft channels.

    Returns (channels, blob_events): channels maps each object id to its
    float64 soft mask; blob_events records the frame's injected blobs so
    tests can assert their removal. Deterministic in (cfg.seed, t).
    """
    spec = cfg.corruption
    hi = spec.blob_size[1]
    if hi > cfg.width or hi > cfg.height:
        raise SceneError(f"blob size {hi} exceeds frame {cfg.height}x{cfg.width}")
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


def _place_blob(rng: Rng, cfg: SceneConfig, true_box: BBox) -> BBox:
    lo, hi = cfg.corruption.blob_size
    for _ in range(BLOB_ATTEMPTS):
        w = rng.integer1(lo, hi)
        h = rng.integer1(lo, hi)
        x = rng.integer1(0, cfg.width - w)
        y = rng.integer1(0, cfg.height - h)
        blob = BBox(x=float(x), y=float(y), w=float(w), h=float(h))
        if _box_gap(blob, true_box) >= cfg.corruption.min_distance:
            return blob
    raise SceneError(
        f"could not place a blob >= {cfg.corruption.min_distance} px from "
        f"{true_box} in {BLOB_ATTEMPTS} attempts; frame too crowded"
    )


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise SceneError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _section(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise SceneError(f"{context}: expected a JSON object, got {type(value).__name__}")
    return value


# Motion kind -> the keys its JSON may hold besides "kind".
_MOTION_KEYS = {
    "linear": {"v"},
    "accelerating": {"v", "a"},
    "sinusoidal": {"amplitude", "period"},
}


def _motion_from_json(data: dict) -> object:
    kind = data.get("kind", "linear")
    if not isinstance(kind, str) or kind not in _MOTION_KEYS:
        raise SceneError(f"unknown motion kind {kind!r}")
    extra = set(data) - _MOTION_KEYS[kind] - {"kind"}
    if extra:
        raise SceneError(f"motion ({kind}): unknown keys {sorted(extra)}")
    if kind == "linear":
        vx, vy = data.get("v", [0.0, 0.0])
        return LinearMotion(vx=float(vx), vy=float(vy))
    if kind == "accelerating":
        vx, vy = data.get("v", [0.0, 0.0])
        ax, ay = data.get("a", [0.0, 0.0])
        return AcceleratingMotion(vx=float(vx), vy=float(vy), ax=float(ax), ay=float(ay))
    # sinusoidal
    ax, ay = data.get("amplitude", [0.0, 0.0])
    return SinusoidalMotion(amp_x=float(ax), amp_y=float(ay), period=float(data.get("period", 12.0)))


def _motion_to_json(motion) -> dict:
    if isinstance(motion, LinearMotion):
        return {"kind": "linear", "v": [motion.vx, motion.vy]}
    if isinstance(motion, AcceleratingMotion):
        return {"kind": "accelerating", "v": [motion.vx, motion.vy], "a": [motion.ax, motion.ay]}
    if isinstance(motion, SinusoidalMotion):
        return {
            "kind": "sinusoidal",
            "amplitude": [motion.amp_x, motion.amp_y],
            "period": motion.period,
        }
    raise SceneError(f"unknown motion type {type(motion).__name__}")


def scene_from_json(data: dict) -> SceneConfig:
    """Build a config from parsed JSON. Malformed input raises SceneError:
    unknown keys (so typos fail loudly), a section that is not a JSON
    object, and a value that does not convert (a number JSON reads as
    infinity, say)."""
    try:
        return _scene_from_json(_section(data, "scene"))
    except SceneError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneError(str(exc)) from exc


def _scene_from_json(data: dict) -> SceneConfig:
    known = {"height", "width", "frames", "seed", "objects", "corruption"}
    extra = set(data) - known
    if extra:
        raise SceneError(f"scene: unknown keys {sorted(extra)}")
    objects = []
    raw_objects = _require(data, "objects", "scene")
    for i, raw in enumerate(raw_objects):
        raw = _section(raw, f"object {i}")
        known_obj = {"id", "shape", "box", "motion"}
        extra = set(raw) - known_obj
        if extra:
            raise SceneError(f"object {i}: unknown keys {sorted(extra)}")
        x, y, w, h = _require(raw, "box", f"object {i}")
        objects.append(
            ObjectSpec(
                object_id=int(raw.get("id", i + 1)),
                box=BBox(x=float(x), y=float(y), w=float(w), h=float(h)),
                shape=raw.get("shape", "rectangle"),
                motion=_motion_from_json(_section(raw.get("motion", {}), f"object {i} motion")),
            )
        )
    raw_corruption = _section(data.get("corruption", {}), "corruption")
    known_cor = {"blobs", "blob_size", "min_distance", "flip_prob"}
    extra = set(raw_corruption) - known_cor
    if extra:
        raise SceneError(f"corruption: unknown keys {sorted(extra)}")
    lo, hi = raw_corruption.get("blob_size", (8, 16))
    corruption = CorruptionSpec(
        blobs=int(raw_corruption.get("blobs", 0)),
        blob_size=(int(lo), int(hi)),
        min_distance=float(raw_corruption.get("min_distance", 40.0)),
        flip_prob=float(raw_corruption.get("flip_prob", 0.0)),
    )
    return SceneConfig(
        height=int(_require(data, "height", "scene")),
        width=int(_require(data, "width", "scene")),
        frames=int(_require(data, "frames", "scene")),
        seed=int(data.get("seed", 0)),
        objects=tuple(objects),
        corruption=corruption,
    )


def scene_to_json(cfg: SceneConfig) -> dict:
    """Fully resolved config echo (defaults filled in)."""
    return {
        "height": cfg.height,
        "width": cfg.width,
        "frames": cfg.frames,
        "seed": cfg.seed,
        "objects": [
            {
                "id": o.object_id,
                "shape": o.shape,
                "box": list(o.box.as_tuple()),
                "motion": _motion_to_json(o.motion),
            }
            for o in cfg.objects
        ],
        "corruption": {
            "blobs": cfg.corruption.blobs,
            "blob_size": list(cfg.corruption.blob_size),
            "min_distance": cfg.corruption.min_distance,
            "flip_prob": cfg.corruption.flip_prob,
        },
    }
