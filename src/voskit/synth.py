"""Deterministic synthetic mask sequences with known motion.

``generate`` renders a multi-object label sequence one frame at a time,
together with each frame's analytic bounding boxes, so box-tracking code can
be tested against zero-error ground truth. ``corrupt`` degrades one ground
truth frame the way a real matching-based segmenter fails: boundary pixels
flip with a small probability, and spurious far-field blobs (soft value 0.9)
appear from frame 3 on, placed at least a configured distance from the true
object. Frames 1 and 2 never receive blobs, so the first two boxes of every
track are trustworthy. A consumer that handles each frame before asking for
the next holds one frame in memory, whatever the sequence length.

``corrupt`` returns the frame in crop form: each object's flipped pixels on
its pixel bounds grown by one pixel, plus its blob boxes. ``Corruption.label``
writes the corrupted uint8 label from that by priority, with no frame-sized
float64 array; ``Corruption.channels`` expands it into per-object soft
masks for in-memory filtering.

All randomness flows from the scene seed through counter-based streams
keyed by (frame, object), so output is bit-identical across platforms and
independent of evaluation order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .boxes import BBox, erode, pixel_window
from .corpus import InputError
from .rng import Rng

BLOB_VALUE = 0.9
BLOB_ATTEMPTS = 100
# Largest frame height or width a scene may ask for; covers DAVIS full
# resolution (3840x2160) and bounds a uint8 label frame at 16 MiB. ``synth``
# allocates no frame-sized float64 array; only ``Corruption.channels`` does.
MAX_FRAME_SIDE = 4096


class SceneError(InputError):
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
        # A period too small for the phase to stay finite gives a NaN
        # offset, which analytic_box refuses as a SceneError.
        sine = math.sin(phase) if math.isfinite(phase) else math.nan
        return (self.amp_x * sine, self.amp_y * sine)


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
        hi = self.corruption.blob_size[1]
        if self.corruption.blobs and (hi > self.width or hi > self.height):
            raise SceneError(f"blob size {hi} exceeds frame {self.height}x{self.width}")


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


def _pixel_box(box: BBox, grow: int = 0) -> BBox:
    """The box with each field rounded to the nearest pixel, then grown by
    grow pixels on each side; nearest, since ``pixel_window``'s outward rule
    alone would render a fractional box 1 px wider."""
    x, y, w, h = (float(np.rint(v)) for v in box.as_tuple())
    return BBox(x - grow, y - grow, w + 2 * grow, h + 2 * grow)


def _render(frame: np.ndarray, obj: ObjectSpec, box: BBox) -> bool:
    """Draw obj at box, rounded to whole pixels; True when the frame clips it."""
    height, width = frame.shape
    pixel_box = _pixel_box(box)
    rows, cols = window = pixel_window(pixel_box, height, width)
    if rows.start == rows.stop or cols.start == cols.stop:
        raise SceneError(
            f"object {obj.object_id} is fully outside the {height}x{width} frame at {box}"
        )
    if obj.shape == "rectangle":
        frame[window] = obj.object_id
    else:
        cx = box.x + (box.w - 1) / 2.0
        cy = box.y + (box.h - 1) / 2.0
        rx = box.w / 2.0
        ry = box.h / 2.0
        ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
        xs = np.arange(cols.start, cols.stop, dtype=np.float64)[None, :]
        inside = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        frame[window][inside] = obj.object_id
    return (rows.stop - rows.start, cols.stop - cols.start) != (pixel_box.h, pixel_box.w)


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

    @property
    def window(self) -> tuple[slice, slice]:
        return pixel_window(self.box, math.inf, math.inf)  # blobs lie inside the frame


@dataclass(frozen=True)
class ObjectCrop:
    """One object's value-1 pixels after boundary flips: ``mask`` covers the
    frame ``window``, the object's pixel bounds grown by one pixel, which
    holds its whole flip band."""

    object_id: int
    window: tuple[slice, slice]
    mask: np.ndarray


@dataclass(frozen=True)
class Corruption:
    """One corrupted frame in crop form: per-object crops in scene order and
    the frame's blob events, each blob a box of soft value BLOB_VALUE on its
    object's channel."""

    shape: tuple[int, int]
    crops: list[ObjectCrop]
    blobs: list[BlobEvent]

    def label(self) -> np.ndarray:
        """The uint8 label ``compose_label(self.channels(), self.shape)``
        composes at MASK_THRESHOLD, written by priority instead: blob boxes
        in descending id order, then object pixels in descending id order.
        A value of 1 beats a blob's 0.9, and on a tie the smaller id, painted
        last, wins."""
        label = np.zeros(self.shape, dtype=np.uint8)
        for event in sorted(self.blobs, key=lambda e: e.object_id, reverse=True):
            label[event.window] = event.object_id
        for crop in sorted(self.crops, key=lambda c: c.object_id, reverse=True):
            label[crop.window][crop.mask] = crop.object_id
        return label

    def channels(self) -> dict[int, np.ndarray]:
        """Per-object float64 soft masks of the frame, in scene order: 1 on
        an object's pixels, BLOB_VALUE elsewhere on its blobs, 0 otherwise."""
        channels: dict[int, np.ndarray] = {}
        for crop in self.crops:
            channel = channels[crop.object_id] = np.zeros(self.shape)
            channel[crop.window][crop.mask] = 1.0
        for event in self.blobs:
            patch = channels[event.object_id][event.window]
            np.maximum(patch, BLOB_VALUE, out=patch)
        return channels


def corrupt(label: np.ndarray, t: int, cfg: SceneConfig) -> Corruption:
    """Degrade frame t (1-based) of a generated sequence, in crop form.

    Each object's flips are drawn on its pixel bounds grown by one pixel:
    the band's row-major order there is the frame's, so the crop draws flip
    the same pixels a whole-frame pass would. Deterministic in
    (cfg.seed, t).
    """
    spec = cfg.corruption
    base = Rng(cfg.seed).spawn(t)
    crops: list[ObjectCrop] = []
    blob_events: list[BlobEvent] = []
    for obj in cfg.objects:
        true_box = analytic_box(obj, t)
        window = pixel_window(_pixel_box(true_box, grow=1), cfg.height, cfg.width)
        fg = label[window] == obj.object_id
        rng = base.spawn(obj.object_id)
        if spec.flip_prob > 0.0:
            band = np.flatnonzero(_flip_band(fg))
            if band.size:
                draws = rng.uniform(band.size)
                hits = band[draws < spec.flip_prob]
                flat = fg.reshape(-1)
                flat[hits] = ~flat[hits]
        crops.append(ObjectCrop(obj.object_id, window, fg))
        if t >= 3:
            for _ in range(spec.blobs):
                blob = _place_blob(rng, cfg, true_box)
                blob_events.append(BlobEvent(frame=t, object_id=obj.object_id, box=blob))
    return Corruption(shape=label.shape, crops=crops, blobs=blob_events)


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


def _section(value, context: str, known=None) -> dict:
    """value, checked to be a JSON object with no key outside known, if given."""
    if not isinstance(value, dict):
        raise SceneError(f"{context}: expected a JSON object, got {type(value).__name__}")
    extra = set(value) - set(value if known is None else known)
    if extra:
        raise SceneError(f"{context}: unknown keys {sorted(extra)}")
    return value


def _present(data: dict, convert: dict, context: str) -> dict:
    """Keyword arguments from the keys of data that convert names, each
    converted; a key left out leaves its field's default to the dataclass.
    A value that does not convert raises SceneError naming its key."""
    kwargs = {}
    for key, fn in convert.items():
        if key in data:
            try:
                kwargs[key] = fn(data[key])
            except SceneError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise SceneError(f"{context}: {key}: {exc}") from exc
    return kwargs


def _integer(value) -> int:
    """A JSON number with no fractional part; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected an integer, got {value!r}")
    integer = int(value)
    if integer != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return integer


def _real(value) -> float:
    """A finite JSON number; a boolean, a string or a NaN is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    real = float(value)
    if not math.isfinite(real):
        raise ValueError(f"must be finite, got {value!r}")
    return real


def _numbers(value, count: int = 2, convert=_real) -> tuple:
    """A JSON list of count numbers, each converted."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ValueError(f"expected a list of {count} numbers, got {value!r}")
    return tuple(convert(v) for v in value)


# Motion kind -> its class and, for each JSON key, the fields it fills: a
# key naming two fields holds an [x, y] pair, a key naming one a number.
_MOTIONS = {
    "linear": (LinearMotion, {"v": ("vx", "vy")}),
    "accelerating": (AcceleratingMotion, {"v": ("vx", "vy"), "a": ("ax", "ay")}),
    "sinusoidal": (SinusoidalMotion, {"amplitude": ("amp_x", "amp_y"), "period": ("period",)}),
}


def _motion_from_json(data, context: str) -> object:
    kind = _section(data, context).get("kind", "linear")
    if not isinstance(kind, str) or kind not in _MOTIONS:
        raise SceneError(f"unknown motion kind {kind!r}")
    cls, keys = _MOTIONS[kind]
    _section(data, f"motion ({kind})", {"kind", *keys})
    convert = {
        key: _numbers if len(names) == 2 else lambda v: (_real(v),) for key, names in keys.items()
    }
    kwargs = {}
    for key, values in _present(data, convert, context).items():
        kwargs.update(zip(keys[key], values))
    return cls(**kwargs)


def _motion_to_json(motion) -> dict:
    for kind, (cls, keys) in _MOTIONS.items():
        if isinstance(motion, cls):
            echo = {"kind": kind}
            for key, names in keys.items():
                values = [getattr(motion, name) for name in names]
                echo[key] = values if len(names) == 2 else values[0]
            return echo
    raise SceneError(f"unknown motion type {type(motion).__name__}")


def scene_from_json(data: dict) -> SceneConfig:
    """Build a config from parsed JSON; a key left out takes its dataclass
    field's default. Malformed input raises SceneError: unknown keys (so
    typos fail loudly), a section that is not a JSON object, and a value
    that does not convert, named by its key: a string, a boolean, or a
    number JSON reads as NaN or infinity for any number key, a non-integral
    number for an integer key, or a list of the wrong length, say."""
    convert = {
        **dict.fromkeys(("height", "width", "frames", "seed"), _integer),
        "objects": lambda objects: tuple(_object_from_json(o, i) for i, o in enumerate(objects)),
        "corruption": _corruption_from_json,
    }
    try:
        _section(data, "scene", convert)
        for key in ("height", "width", "frames", "objects"):
            _require(data, key, "scene")
        return SceneConfig(**_present(data, convert, "scene"))
    except SceneError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneError(str(exc)) from exc


def _object_from_json(data, i: int) -> ObjectSpec:
    context = f"object {i}"
    convert = {
        "id": _integer,
        "box": lambda box: BBox(*_numbers(box, 4)),
        "shape": str,
        "motion": lambda motion: _motion_from_json(motion, f"{context} motion"),
    }
    _require(_section(data, context, convert), "box", context)
    kwargs = _present(data, convert, context)
    return ObjectSpec(object_id=kwargs.pop("id", i + 1), **kwargs)


def _corruption_from_json(data) -> CorruptionSpec:
    convert = {
        "blobs": _integer,
        "blob_size": lambda size: _numbers(size, 2, _integer),
        "min_distance": _real,
        "flip_prob": _real,
    }
    return CorruptionSpec(**_present(_section(data, "corruption", convert), convert, "corruption"))


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
        "corruption": {**asdict(cfg.corruption), "blob_size": list(cfg.corruption.blob_size)},
    }
