"""Named-parameter persistence and selective weight transplant.

A ParamStore is an ordered list of (name, float32 tensor) entries. The file
format is fixed so the bytes round trip identically on any platform:

    magic "TVCK", version byte 0x01, all integers little-endian,
    u32 entry count, then per entry:
    u16 name length, UTF-8 name, u8 ndim, ndim x u32 dims,
    prod(dims) x f32 values.

Transplant copies values from a source store into every target entry whose
name starts with a prefix and whose shape matches the same-named source
entry; everything else is left untouched. That is the whole mechanism for
re-using a trained sub-network inside a fresh one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import InputError, open_output

MAGIC = b"TVCK"
VERSION = 1


class CheckpointError(InputError):
    """Base class for checkpoint file and transplant errors."""


class BadMagicError(CheckpointError):
    """File does not start with the TVCK magic."""


class UnsupportedVersionError(CheckpointError):
    """Magic matches but the version byte is unknown."""


class TruncatedFileError(CheckpointError):
    """File ends before a declared header field or data block."""


class EntryShapeError(CheckpointError):
    """Entry structure is inconsistent (shape/data mismatch, duplicate or
    trailing content; in strict transplant, a shape conflict)."""


class ParamStore:
    """Ordered, uniquely named float32 tensors."""

    def __init__(self):
        self._data: dict[str, np.ndarray] = {}

    @classmethod
    def from_items(cls, items) -> "ParamStore":
        store = cls()
        for name, value in items:
            store.add(name, value)
        return store

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._data:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._data[name] = np.ascontiguousarray(value, dtype=np.float32)

    def names(self) -> list[str]:
        return list(self._data)

    def get(self, name: str) -> np.ndarray:
        return self._data[name]

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return list(self._data.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamStore):
            return NotImplemented
        return self.names() == other.names() and all(
            np.array_equal(value, other.get(name)) for name, value in self._data.items()
        )


def save(store: ParamStore, path) -> None:
    blob = bytearray(struct.pack("<4sBI", MAGIC, VERSION, len(store)))
    for name, value in store.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        entry = f"<H{len(encoded)}sB{value.ndim}I"
        blob += struct.pack(entry, len(encoded), encoded, value.ndim, *value.shape)
        blob += value.astype("<f4", copy=False).tobytes()
    with open_output(path) as fh:
        fh.write(blob)


def load(path) -> ParamStore:
    """Read a store from path; every CheckpointError it raises names path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob)
    except CheckpointError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _parse(blob: bytes) -> ParamStore:
    if blob[:4] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    pos = len(MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise TruncatedFileError(f"file ends inside {what} (need {n} bytes at offset {pos})")
        pos += n
        return blob[pos - n : pos]

    version = take(1, "version")[0]
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    store = ParamStore()
    (count,) = struct.unpack("<I", take(4, "entry count"))
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"entry {i} name length"))
        try:
            name = take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EntryShapeError(f"entry {i} name is not valid UTF-8") from exc
        ndim = take(1, f"entry {i} ndim")[0]
        shape = tuple(struct.unpack("<I", take(4, f"entry {i} dim {d}"))[0] for d in range(ndim))
        raw = take(4 * math.prod(shape), f"entry {i} ({name}) data")
        try:
            value = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:
            # A zero dim beside dims whose product numpy cannot index.
            raise EntryShapeError(f"entry {i} ({name}) has unusable shape {shape}") from exc
        if name in store:
            raise EntryShapeError(f"duplicate entry name {name!r}")
        store.add(name, value)
    if pos != len(blob):
        raise EntryShapeError(f"{len(blob) - pos} trailing bytes after last declared entry")
    return store


@dataclass
class TransplantReport:
    transplanted: list[str] = field(default_factory=list)
    skipped_missing: list[str] = field(default_factory=list)
    skipped_shape: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"transplanted: {len(self.transplanted)}",
            f"skipped (missing in source): {len(self.skipped_missing)}",
            f"skipped (shape mismatch): {len(self.skipped_shape)}",
        ]
        for name in self.transplanted:
            out.append(f"  + {name}")
        for name in self.skipped_missing:
            out.append(f"  - {name} (missing)")
        for name in self.skipped_shape:
            out.append(f"  - {name} (shape mismatch)")
        return out


def transplant(
    target: ParamStore,
    source: ParamStore,
    prefix: str,
    strict: bool = False,
) -> tuple[ParamStore, TransplantReport]:
    """Copy same-named, same-shaped, prefix-matched values from source.

    Returns a new store (same names, same order, same shapes as target) and
    a report. In strict mode a prefixed name whose source shape differs is
    an error instead of a skip.
    """
    report = TransplantReport()
    out = ParamStore()
    for name, value in target.items():
        if not name.startswith(prefix):
            pass  # kept from the target, unreported
        elif name not in source:
            report.skipped_missing.append(name)
        elif source.get(name).shape != value.shape:
            if strict:
                raise EntryShapeError(
                    f"transplant shape mismatch for {name!r}: "
                    f"target {value.shape} vs source {source.get(name).shape}"
                )
            report.skipped_shape.append(name)
        else:
            report.transplanted.append(name)
            value = source.get(name)
        out.add(name, value)
    return out, report
