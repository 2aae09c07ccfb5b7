import tempfile

import corpus_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit import corpus
from voskit.corpus import (
    PGM_HEADER,
    CorpusError,
    frame_name,
    iter_mask_dir,
    label_ids,
    list_frame_files,
    list_sequences,
    read_pgm,
    sequence_mask_dir,
    write_mask_dir,
    write_pgm,
)
from voskit.rng import Rng


def test_frame_name_padding():
    assert frame_name(1) == "00001.pgm"
    assert frame_name(123) == "00123.pgm"


def test_pgm_round_trip(tmp_path):
    path = tmp_path / "m.pgm"
    mask = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(path, mask)
    got = read_pgm(path)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, mask)


def test_pgm_header_layout(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
    raw = path.read_bytes()
    assert raw == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_pgm_round_trip_random(tmp_path):
    for seed in range(5):
        rng = Rng(seed)
        mask = (rng.uniform(200) * 255).astype(np.uint8).reshape(10, 20)
        path = tmp_path / f"r{seed}.pgm"
        write_pgm(path, mask)
        np.testing.assert_array_equal(read_pgm(path), mask)


def test_pgm_reader_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n 4\t2 # trailing\n255\n" + bytes(range(8)))
    got = read_pgm(path)
    assert got.shape == (2, 4)
    np.testing.assert_array_equal(got.reshape(-1), np.arange(8, dtype=np.uint8))


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(CorpusError):
        read_pgm(path)


def test_pgm_rejects_bad_maxval(tmp_path):
    path = tmp_path / "max.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(CorpusError):
        read_pgm(path)


def test_pgm_rejects_pixels_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 2\n1\n" + bytes([0, 1, 7, 0]))
    with pytest.raises(CorpusError, match="pixel value 7 exceeds maxval 1"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n7\n" + bytes([0, 1, 7, 0]))
    np.testing.assert_array_equal(read_pgm(path), [[0, 1], [7, 0]])


def test_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 9)
    with pytest.raises(CorpusError, match=r"short\.pgm: pixel data has 9 bytes, expected 16$"):
        read_pgm(path)


def test_pgm_reads_its_pixels_into_a_writable_array_of_its_own(tmp_path):
    # Bytes past width x height are ignored, and the frame owns its data,
    # so a caller may write into it without touching the file's buffer.
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes(range(6)) + b"trailing")
    got = read_pgm(path)
    np.testing.assert_array_equal(got, [[0, 1, 2], [3, 4, 5]])
    assert got.flags.writeable and got.flags.owndata
    got[0, 0] = 9
    assert read_pgm(path)[0, 0] == 0


@pytest.mark.parametrize("dims", [b"0 3", b"4 0", b"0 99999999999999999999999"])
def test_pgm_rejects_zero_dims(tmp_path, dims):
    path = tmp_path / "z.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n")
    with pytest.raises(CorpusError):
        read_pgm(path)


def test_pgm_rejects_header_number_past_int_digit_limit(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n")
    with pytest.raises(CorpusError, match="long.pgm: 5000-digit number in PGM header"):
        read_pgm(path)


def _pgm_blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.pgm"
        write_pgm(path, np.arange(12, dtype=np.uint8).reshape(3, 4))
        with open(path, "rb") as fh:
            return fh.read()


PGM_BLOB = _pgm_blob()


def _read_pgm_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.pgm"
        with open(path, "wb") as fh:
            fh.write(blob)
        return read_pgm(path)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(PGM_BLOB) - 1))
def test_truncated_pgm_raises_corpus_error(cut):
    with pytest.raises(CorpusError):
        _read_pgm_bytes(PGM_BLOB[:cut])


@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, len(PGM_BLOB) - 1), st.integers(1, 255)), min_size=1, max_size=4
    )
)
def test_byte_flipped_pgm_reads_or_raises_corpus_error(flips):
    blob = bytearray(PGM_BLOB)
    for pos, bits in flips:
        blob[pos] ^= bits
    try:
        mask = _read_pgm_bytes(bytes(blob))
    except CorpusError:
        return
    assert mask.dtype == np.uint8 and mask.ndim == 2 and mask.size > 0


HEADER_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f"])
HEADER_COMMENT = st.binary(max_size=4).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
# Bytes that a header may meet where it wants whitespace or a digit: ones
# that str.isspace, unlike bytes.isspace, counts as whitespace, signs, the
# comment mark, a NUL, a high byte, and any byte at all.
STRAY_BYTES = st.one_of(
    HEADER_SPACE,
    st.sampled_from([b"\x1c", b"\x1f", b"\x85", b"\xa0", b"-", b"+", b"#", b"\x00", b"\xff", b"7"]),
    st.binary(min_size=1, max_size=1),
)
HEADER_SKIP = st.lists(st.one_of(HEADER_SPACE, HEADER_COMMENT), max_size=3)
HEADER_SEPARATOR = st.lists(st.one_of(HEADER_SPACE, HEADER_COMMENT), min_size=1, max_size=3)
DIGIT_RUN = st.text("0123456789", min_size=1, max_size=6).map(str.encode)


@st.composite
def pgm_headers(draw):
    """A well-formed header with every kind of whitespace and comments
    between its digit runs and a few payload bytes after it, then broken by
    up to two stray bytes, each inserted between two of those parts, or
    dropped bytes, and maybe truncated. Runs have at most 6 digits, well
    within int()'s limit."""
    parts = [b"P5", *draw(HEADER_SKIP), draw(DIGIT_RUN)]
    for _ in range(2):
        parts += [*draw(HEADER_SEPARATOR), draw(DIGIT_RUN)]
    parts += [draw(HEADER_SPACE), draw(st.binary(max_size=8))]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            parts.insert(draw(st.integers(1, len(parts))), draw(STRAY_BYTES))
        else:
            blob = b"".join(parts)
            pos = draw(st.integers(2, len(blob)))
            parts = [blob[:pos], blob[pos + 1 :]]
    blob = b"".join(parts)
    if draw(st.booleans()):
        blob = blob[: draw(st.integers(2, len(blob)))]
    return blob


def scanned(blob):
    """The reference scanner's (width, height, maxval, pixel offset), or
    the problem that read_pgm reports for a header it rejects."""
    try:
        tokens, offset = corpus_reference.read_header_tokens(blob, "ref.pgm")
    except CorpusError as exc:
        return "unterminated comment in" if "unterminated" in str(exc) else "malformed PGM"
    return (*tokens, offset)


def matched(blob):
    """``scanned`` from ``PGM_HEADER`` and the pattern that read_pgm tells an
    unterminated comment by."""
    if match := PGM_HEADER.match(blob):
        return (*map(int, match.groups()), match.end())
    return "unterminated comment in" if corpus._OPEN_COMMENT.match(blob) else "malformed PGM"


@settings(max_examples=600, deadline=None)
@given(pgm_headers())
def test_header_pattern_reads_what_the_reference_scanner_reads(blob):
    # The same accept or reject, the same (width, height, maxval) and the
    # same pixel offset; a rejected header is an unterminated comment when
    # the scanner says so, and malformed otherwise.
    want = scanned(blob)
    assert matched(blob) == want
    if isinstance(want, str):
        with pytest.raises(CorpusError, match=f"fuzz.pgm: {want} header$"):
            _read_pgm_bytes(blob)


@pytest.mark.parametrize(
    "header",
    [b"P5 4 2 255 ", b"P5\n# c\n4\t2\r\n#\n255\n", b"P5#\n\v04\f2#x\n 255\t"],
)
def test_header_pattern_equals_the_scanner_after_every_one_byte_edit(header):
    # Every byte value inserted at every position after the magic, every
    # byte dropped, and every cut, on headers whose payload has no newline.
    blob = header + bytes(range(11, 19))
    edits = [blob[:pos] for pos in range(2, len(blob))]
    for pos in range(2, len(header) + 1):
        edits.append(blob[:pos] + blob[pos + 1 :])
        edits += [blob[:pos] + bytes([byte]) + blob[pos:] for byte in range(256)]
    for edit in edits:
        assert matched(edit) == scanned(edit), edit


@pytest.mark.parametrize(
    "blob",
    [b"P5", b"P5 4 2", b"P5 4 2 255", b"P5 4 x2 255 ", b"P5 4 2 255#\n", b"P5 4 2 255\x1c"],
)
def test_pgm_rejects_a_malformed_header(tmp_path, blob):
    path = tmp_path / "m.pgm"
    path.write_bytes(blob + bytes(8))
    with pytest.raises(CorpusError, match=r"m\.pgm: malformed PGM header$"):
        read_pgm(path)


def test_pgm_converts_byte_range_values_and_rejects_others(tmp_path):
    path = tmp_path / "conv.pgm"
    write_pgm(path, np.array([[0, 255], [3, 4]], dtype=np.int64))
    assert read_pgm(path)[0, 1] == 255
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "f.pgm", np.full((2, 2), 300))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "g.pgm", np.zeros(4))


@pytest.mark.parametrize(
    "mask",
    [
        np.arange(48, dtype=np.uint8).reshape(6, 8)[::2, 1::3],  # strided view
        np.arange(48, dtype=np.uint8).reshape(6, 8).T,  # Fortran order
        np.arange(48, dtype=np.uint8).reshape(6, 8)[:, ::-1],  # negative stride
        np.arange(48, dtype=np.int64).reshape(6, 8)[1:, :5] * 5,  # int64 view
        np.array([[0.0, 255.0], [3.0, 7.9]]),  # float64, truncated on the way
        np.zeros((3, 0), dtype=np.uint8),  # no pixels
    ],
    ids=["strided", "fortran", "reversed", "int64", "float64", "empty"],
)
def test_pgm_writes_the_bytes_of_a_contiguous_uint8_copy(tmp_path, mask):
    """A non-contiguous or non-uint8 mask writes the same file as its
    contiguous uint8 copy's bytes did."""
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    height, width = mask.shape
    pixels = np.ascontiguousarray(mask.astype(np.uint8)).tobytes()
    assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode("ascii") + pixels


def masks(n, shape=(6, 8)):
    out = []
    for t in range(n):
        m = np.zeros(shape, dtype=np.uint8)
        m[1:4, t : t + 3] = 1
        m[4:6, 0:2] = 2
        out.append(m)
    return out


def test_mask_dir_round_trip(tmp_path):
    seq = masks(4)
    assert write_mask_dir(tmp_path / "d", seq) == 4
    names = list_frame_files(tmp_path / "d")
    assert names == ["00001.pgm", "00002.pgm", "00003.pgm", "00004.pgm"]
    got = list(iter_mask_dir(tmp_path / "d"))
    assert len(got) == 4
    for a, b in zip(got, seq):
        np.testing.assert_array_equal(a, b)


def test_frame_files_must_start_at_one(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    write_pgm(d / "00002.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(CorpusError):
        list_frame_files(d)


def test_frame_files_must_be_contiguous(tmp_path):
    d = tmp_path / "d"
    write_mask_dir(d, masks(3))
    (d / "00002.pgm").unlink()
    with pytest.raises(CorpusError):
        list_frame_files(d)


def test_empty_mask_dir_rejected(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    with pytest.raises(CorpusError):
        list_frame_files(d)


def test_list_sequences_sorted(tmp_path):
    for name in ["zeta", "alpha", "mid"]:
        write_mask_dir(tmp_path / name / "masks_gt", masks(2))
    (tmp_path / "not_a_sequence").mkdir()
    (tmp_path / "stray.txt").write_text("x")
    assert list_sequences(tmp_path) == ["alpha", "mid", "zeta"]


def test_sequence_mask_dir_required(tmp_path):
    import os

    write_mask_dir(tmp_path / "s" / "masks_gt", masks(2))
    assert os.path.isdir(sequence_mask_dir(tmp_path, "s", "gt"))
    with pytest.raises(CorpusError):
        sequence_mask_dir(tmp_path, "s", "pred")
    assert sequence_mask_dir(tmp_path, "s", "pred", required=False) is None


def test_label_ids():
    assert label_ids(masks(3)) == [1, 2]


def test_label_ids_streams_and_matches_unique():
    rng = np.random.default_rng(0)
    frames = [rng.integers(0, 4, size=(5, 6), dtype=np.uint8) for _ in range(3)]
    frames.append(np.array([[0, 300], [7, 0]]))
    expected = sorted({int(v) for f in frames for v in np.unique(f)} - {0})
    assert label_ids(iter(frames)) == expected
    assert all(type(v) is int for v in label_ids(frames))


def test_label_ids_ignores_background():
    assert label_ids([np.zeros((4, 4), dtype=np.uint8)]) == []


def label_ids_reference(frames) -> list[int]:
    """``label_ids`` counting every pixel, background included, then
    dropping id 0: the whole-frame scan the foreground-only count replaces."""
    ids: set[int] = set()
    for frame in frames:
        ids.update(np.flatnonzero(np.bincount(np.ravel(frame), minlength=256)).tolist())
    ids.discard(0)
    return sorted(ids)


@st.composite
def label_frames(draw):
    """A uint8 label frame: all background, fully dense foreground, every
    id 1..255 present, or random ids over a random share of background."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["zero", "dense", "all_ids", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros((h, w), dtype=np.uint8)
    if kind == "dense":
        return rng.integers(1, 256, size=(h, w), dtype=np.uint8)
    if kind == "all_ids":
        ids = np.arange(256, dtype=np.uint8)
        return np.resize(rng.permutation(ids), (h + 16, w + 16))
    frame = rng.integers(1, draw(st.integers(2, 256)), size=(h, w), dtype=np.uint8)
    frame[rng.random((h, w)) < draw(st.floats(0.0, 1.0))] = 0
    return frame


@settings(max_examples=200, deadline=None)
@given(st.lists(label_frames(), min_size=0, max_size=4))
def test_label_ids_equals_whole_frame_count(frames):
    assert label_ids(frames) == label_ids_reference(frames)
