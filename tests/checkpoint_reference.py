"""The ``.tvck`` reader and ``transplant`` that ``voskit.checkpoint`` ran
before it read through one bounds-checked ``take``: a reader object with
``u8``/``u16``/``u32`` methods, and a transplant with one ``add; continue``
branch per outcome. The reference the rewrite must equal exactly: the same
store, or the same exception class with the same message."""

import struct

import numpy as np

from voskit.checkpoint import (
    MAGIC,
    VERSION,
    BadMagicError,
    EntryShapeError,
    ParamStore,
    TransplantReport,
    TruncatedFileError,
    UnsupportedVersionError,
)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedFileError(
                f"file ends inside {what} (need {n} bytes at offset {self.pos})"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def parse(blob: bytes) -> ParamStore:
    reader = _Reader(blob)
    magic = reader.take(4, "magic") if len(blob) >= 4 else blob
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = reader.u8("version")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    count = reader.u32("entry count")
    store = ParamStore()
    for i in range(count):
        name_len = reader.u16(f"entry {i} name length")
        try:
            name = reader.take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EntryShapeError(f"entry {i} name is not valid UTF-8") from exc
        ndim = reader.u8(f"entry {i} ndim")
        shape = tuple(reader.u32(f"entry {i} dim {d}") for d in range(ndim))
        n_values = 1
        for dim in shape:
            n_values *= dim
        raw = reader.take(4 * n_values, f"entry {i} ({name}) data")
        try:
            value = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:
            raise EntryShapeError(f"entry {i} ({name}) has unusable shape {shape}") from exc
        if name in store:
            raise EntryShapeError(f"duplicate entry name {name!r}")
        store.add(name, value)
    if reader.pos != len(blob):
        raise EntryShapeError(
            f"{len(blob) - reader.pos} trailing bytes after last declared entry"
        )
    return store


def transplant(target: ParamStore, source: ParamStore, prefix: str, strict: bool = False):
    report = TransplantReport()
    out = ParamStore()
    for name, value in target.items():
        if not name.startswith(prefix):
            out.add(name, value)
            continue
        if name not in source:
            report.skipped_missing.append(name)
            out.add(name, value)
            continue
        candidate = source.get(name)
        if candidate.shape != value.shape:
            if strict:
                raise EntryShapeError(
                    f"transplant shape mismatch for {name!r}: "
                    f"target {value.shape} vs source {candidate.shape}"
                )
            report.skipped_shape.append(name)
            out.add(name, value)
            continue
        report.transplanted.append(name)
        out.add(name, candidate)
    return out, report
