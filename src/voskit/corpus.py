"""On-disk corpus conventions.

A corpus is a directory of sequence directories. Each sequence holds
`masks_gt/` and/or `masks_pred/` with one binary PGM (P5, maxval 255) per
frame named 00001.pgm, 00002.pgm, ... with no gaps; pixel value is the
object id, 0 is background. Sequences may also carry a `tracks.csv` box log
and a `scene.json` config echo.
"""

from __future__ import annotations

import os

import numpy as np

GT_DIR = "masks_gt"
PRED_DIR = "masks_pred"
TRACKS_NAME = "tracks.csv"
SCENE_NAME = "scene.json"


class InputError(ValueError):
    """Malformed input: a mask file, corpus, scene or checkpoint. CLI exit 2."""


class CorpusError(InputError):
    """Malformed mask file or corpus layout, or prediction and ground truth
    that do not line up frame for frame."""


def write_pgm(path, mask: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255; pixel value = object id."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    if m.dtype != np.uint8:
        if m.min() < 0 or m.max() > 255:
            raise ValueError("mask values must fit in a byte")
        m = m.astype(np.uint8)
    height, width = m.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(m).data)


def _read_header_tokens(blob: bytes, path) -> tuple[list[int], int]:
    """PGM header after the magic: three integers, '#' comments allowed.
    Returns (width, height, maxval) and the offset where pixel data starts."""
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise CorpusError(f"{path}: truncated PGM header")
        c = blob[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = blob.find(b"\n", pos)
            if end == -1:
                raise CorpusError(f"{path}: unterminated comment in header")
            pos = end + 1
        elif c.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            try:
                tokens.append(int(blob[start:pos]))
            except ValueError:  # more digits than int() converts
                raise CorpusError(f"{path}: {pos - start}-digit number in PGM header") from None
        else:
            raise CorpusError(f"{path}: unexpected byte {c!r} in PGM header")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise CorpusError(f"{path}: missing whitespace after maxval")
    return tokens, pos + 1


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise CorpusError(f"{path}: not a binary PGM (bad magic {blob[:2]!r})")
    (width, height, maxval), offset = _read_header_tokens(blob, path)
    if not (0 < maxval <= 255):
        raise CorpusError(f"{path}: unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise CorpusError(f"{path}: image is {width}x{height}, need positive dims")
    expected = width * height
    if len(blob) - offset < expected:
        raise CorpusError(
            f"{path}: pixel data has {len(blob) - offset} bytes, expected {expected}"
        )
    mask = np.frombuffer(blob, np.uint8, count=expected, offset=offset).reshape(height, width)
    # maxval 255 (all that write_pgm writes) admits every byte; skip the scan.
    if maxval < 255 and (top := int(mask.max())) > maxval:
        raise CorpusError(f"{path}: pixel value {top} exceeds maxval {maxval}")
    return mask.copy()


def frame_name(index: int) -> str:
    """1-based frame index to its file name, 00001.pgm first."""
    return f"{index:05d}.pgm"


def list_frame_files(mask_dir) -> list[str]:
    """Validated frame file list: NNNNN.pgm contiguous from 00001."""
    if not os.path.isdir(mask_dir):
        raise CorpusError(f"{mask_dir}: not a directory")
    names = sorted(n for n in os.listdir(mask_dir) if n.endswith(".pgm"))
    if not names:
        raise CorpusError(f"{mask_dir}: no .pgm frames")
    for i, name in enumerate(names, start=1):
        if name != frame_name(i):
            raise CorpusError(
                f"{mask_dir}: expected frame file {frame_name(i)}, found {name}"
            )
    return names


def iter_mask_dir(mask_dir):
    """Frames one at a time, for streaming consumers. Raises CorpusError
    when a frame's dims differ from the first frame's."""
    shape = None
    for name in list_frame_files(mask_dir):
        frame = read_pgm(os.path.join(mask_dir, name))
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise CorpusError(
                f"{os.path.join(mask_dir, name)}: frame dims {frame.shape} differ from {shape}"
            )
        yield frame


def write_mask_dir(mask_dir, frames) -> int:
    """Write frames as 00001.pgm...; returns the frame count."""
    os.makedirs(mask_dir, exist_ok=True)
    count = 0
    for i, frame in enumerate(frames, start=1):
        write_pgm(os.path.join(mask_dir, frame_name(i)), frame)
        count = i
    return count


def list_sequences(root) -> list[str]:
    """Sorted names of sequence directories (those holding mask subdirs)."""
    if not os.path.isdir(root):
        raise CorpusError(f"{root}: not a directory")
    out = []
    for name in sorted(os.listdir(root)):
        seq = os.path.join(root, name)
        if not os.path.isdir(seq):
            continue
        if os.path.isdir(os.path.join(seq, GT_DIR)) or os.path.isdir(
            os.path.join(seq, PRED_DIR)
        ):
            out.append(name)
    if not out:
        raise CorpusError(f"{root}: no sequence directories with mask data")
    return out


def sequence_mask_dir(root, sequence: str, kind: str, required: bool = True):
    """Path of a sequence's mask dir; kind is 'gt' or 'pred'. With
    required=False a missing dir returns None instead of raising."""
    sub = {"gt": GT_DIR, "pred": PRED_DIR}[kind]
    path = os.path.join(root, sequence, sub)
    if not os.path.isdir(path):
        if required:
            raise CorpusError(f"{path}: missing {sub} directory")
        return None
    return path


def label_ids(frames) -> list[int]:
    """Sorted nonzero object ids appearing anywhere in a sequence of
    non-negative integer label arrays; frames may be any iterable. Only
    foreground pixels are counted."""
    ids: set[int] = set()
    for frame in frames:
        ids.update(np.flatnonzero(np.bincount(frame[frame != 0], minlength=256)).tolist())
    return sorted(ids)
