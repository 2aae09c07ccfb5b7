"""On-disk corpus conventions.

A corpus is a directory of sequence directories. Each sequence holds
`masks_gt/` and/or `masks_pred/` with one binary PGM (P5, maxval 255) per
frame named 00001.pgm, 00002.pgm, ... with no gaps; pixel value is the
object id, 0 is background. Sequences may also carry a `tracks.csv` box log
and a `scene.json` config echo.
"""

from __future__ import annotations

import contextlib
import os
import re

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


# The Netpbm PGM header: "P5", then width, height and maxval as runs of ASCII
# digits. Whitespace or '#' comments that end at a newline come before each
# number (none is needed before the width), and exactly one whitespace byte
# after the maxval; the pixels start where the match ends.
_SKIP = rb"(?:\s|#[^\n]*\n)"
PGM_HEADER = re.compile(rb"P5" + _SKIP + rb"*(\d+)" + (_SKIP + rb"+(\d+)") * 2 + rb"\s")
# A header that PGM_HEADER rejects because a '#' before its third number
# starts a comment that no newline ends.
_OPEN_COMMENT = re.compile(rb"P5" + _SKIP + rb"*(?:\d+(?!\d)" + _SKIP + rb"*){0,2}#[^\n]*\Z")


@contextlib.contextmanager
def open_output(path, mode="wb", **kwargs):
    """``open(path, mode)`` for a file that a command writes. An OSError on
    the way that names no file, such as a full device at the last flush, is
    given ``path`` as its filename, so that its message names the file."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


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
    with open_output(path) as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(m).data)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise CorpusError(f"{path}: not a binary PGM (bad magic {blob[:2]!r})")
    header = PGM_HEADER.match(blob)
    if header is None:
        problem = "unterminated comment in" if _OPEN_COMMENT.match(blob) else "malformed PGM"
        raise CorpusError(f"{path}: {problem} header")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # more digits than int() converts
        longest = max(map(len, header.groups()))
        raise CorpusError(f"{path}: {longest}-digit number in PGM header") from None
    offset = header.end()
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
