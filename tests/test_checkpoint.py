import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit.checkpoint import (
    MAGIC,
    BadMagicError,
    CheckpointError,
    EntryShapeError,
    ParamStore,
    TruncatedFileError,
    UnsupportedVersionError,
    load,
    save,
    transplant,
)
from voskit.rng import Rng

import checkpoint_reference


def sample_store():
    store = ParamStore()
    store.add("pt.layer0.weight", np.arange(12, dtype=np.float64).reshape(4, 3))
    store.add("pt.layer0.bias", np.zeros(3))
    store.add("pt.norm.scale", np.array(9.81))
    return store


# --- round trips ---


def test_round_trip_preserves_names_shapes_values(tmp_path):
    path = tmp_path / "w.tvck"
    store = sample_store()
    save(store, path)
    loaded = load(path)
    assert loaded.names() == store.names()
    for name, arr in store.items():
        got = loaded.get(name)
        assert got.shape == arr.shape
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, arr.astype(np.float32))


def test_round_trip_is_byte_exact(tmp_path):
    p1 = tmp_path / "a.tvck"
    p2 = tmp_path / "b.tvck"
    store = sample_store()
    save(store, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_store_round_trip(tmp_path):
    path = tmp_path / "empty.tvck"
    save(ParamStore(), path)
    loaded = load(path)
    assert len(loaded) == 0
    # header is exactly magic + version + u32 zero count
    assert path.read_bytes() == MAGIC + b"\x01" + b"\x00\x00\x00\x00"


def test_single_entry_layout(tmp_path):
    path = tmp_path / "one.tvck"
    store = ParamStore()
    store.add("a", np.array([[1.0, 2.0], [3.0, 4.0]]))
    save(store, path)
    raw = path.read_bytes()
    expected = (
        MAGIC
        + b"\x01"
        + struct.pack("<I", 1)
        + struct.pack("<H", 1)
        + b"a"
        + b"\x02"
        + struct.pack("<II", 2, 2)
        + np.array([1, 2, 3, 4], dtype="<f4").tobytes()
    )
    assert raw == expected
    loaded = load(path)
    np.testing.assert_array_equal(loaded.get("a"), [[1.0, 2.0], [3.0, 4.0]])


def test_scalar_normalization_and_high_rank_entries(tmp_path):
    path = tmp_path / "ranks.tvck"
    store = ParamStore()
    store.add("s", np.array(2.5))  # 0-d inputs are stored as shape (1,)
    store.add("t3", np.ones((2, 3, 4)))
    save(store, path)
    loaded = load(path)
    assert loaded.get("s").shape == (1,)
    assert float(loaded.get("s")[0]) == 2.5
    assert loaded.get("t3").shape == (2, 3, 4)


def test_entry_order_is_preserved(tmp_path):
    path = tmp_path / "order.tvck"
    store = ParamStore()
    for name in ["z", "a", "m"]:
        store.add(name, np.zeros(1))
    save(store, path)
    assert load(path).names() == ["z", "a", "m"]


def test_store_rejects_duplicate_names():
    store = ParamStore()
    store.add("a", np.zeros(2))
    with pytest.raises(ValueError):
        store.add("a", np.ones(2))


def test_store_contains_and_get():
    store = sample_store()
    assert "pt.norm.scale" in store
    assert "missing" not in store
    with pytest.raises(KeyError):
        store.get("missing")


# --- malformed files ---


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tvck"
    path.write_bytes(b"NOPE" + b"\x01" + b"\x00\x00\x00\x00")
    with pytest.raises(BadMagicError):
        load(path)


def test_short_file_is_bad_magic(tmp_path):
    path = tmp_path / "tiny.tvck"
    path.write_bytes(b"TV")
    with pytest.raises(BadMagicError):
        load(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.tvck"
    path.write_bytes(MAGIC + b"\x09" + b"\x00\x00\x00\x00")
    with pytest.raises(UnsupportedVersionError):
        load(path)


def test_truncation_at_every_boundary(tmp_path):
    full = tmp_path / "full.tvck"
    save(sample_store(), full)
    raw = full.read_bytes()
    # cut inside count, name, dims, and payload regions
    for cut in [7, 9, 12, 15, len(raw) - 3]:
        clipped = tmp_path / f"cut{cut}.tvck"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFileError):
            load(clipped)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.tvck"
    save(sample_store(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(EntryShapeError):
        load(path)


def test_duplicate_entry_names_rejected(tmp_path):
    path = tmp_path / "dup.tvck"
    entry = struct.pack("<H", 1) + b"a" + b"\x01" + struct.pack("<I", 1) + struct.pack("<f", 0.0)
    path.write_bytes(MAGIC + b"\x01" + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(EntryShapeError):
        load(path)


def test_all_errors_share_base_class():
    for err in [BadMagicError, UnsupportedVersionError, TruncatedFileError, EntryShapeError]:
        assert issubclass(err, CheckpointError)


@pytest.mark.parametrize(
    "blob, error, message",
    [
        (b"JUNKJUNK", BadMagicError, "bad magic b'JUNK', expected b'TVCK'"),
        (MAGIC + b"\x09", UnsupportedVersionError, "unsupported version 9"),
        (MAGIC + b"\x01\x00\x00", TruncatedFileError, "file ends inside entry count (need 4 bytes at offset 5)"),
        (MAGIC + b"\x01" + bytes(5), EntryShapeError, "1 trailing bytes after last declared entry"),
    ],
    ids=["magic", "version", "truncated", "entry"],
)
def test_load_errors_name_the_file(tmp_path, blob, error, message):
    # transplant loads two files; its error must say which one is bad
    path = tmp_path / "w.tvck"
    path.write_bytes(blob)
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


# --- transplant ---


def donor_and_target():
    target = ParamStore()
    target.add("pt.layer0.weight", np.zeros((4, 3)))
    target.add("pt.layer0.bias", np.zeros(3))
    target.add("pt.layer1.weight", np.zeros((3, 3)))
    target.add("pt.norm.scale", np.array(1.0))

    source = ParamStore()
    source.add("pt.layer0.weight", np.full((4, 3), 7.0))
    source.add("pt.layer0.bias", np.full(3, 7.0))
    source.add("pt.layer1.weight", np.full((2, 2), 7.0))  # shape mismatch
    source.add("other.thing", np.ones(5))
    return target, source


def test_transplant_prefix_filters_and_reports():
    target, source = donor_and_target()
    result, report = transplant(target, source, "pt.layer0.")
    assert sorted(report.transplanted) == ["pt.layer0.bias", "pt.layer0.weight"]
    assert report.skipped_missing == [] and report.skipped_shape == []
    np.testing.assert_array_equal(result.get("pt.layer0.weight"), np.full((4, 3), 7.0))
    np.testing.assert_array_equal(result.get("pt.layer1.weight"), np.zeros((3, 3)))


def test_transplant_skips_shape_mismatch_and_missing():
    target, source = donor_and_target()
    result, report = transplant(target, source, "pt.")
    assert report.skipped_shape == ["pt.layer1.weight"]
    assert report.skipped_missing == ["pt.norm.scale"]
    np.testing.assert_array_equal(result.get("pt.layer1.weight"), np.zeros((3, 3)))
    assert float(result.get("pt.norm.scale")[0]) == 1.0
    assert any("pt.layer1.weight" in line for line in report.lines())


def test_transplant_strict_raises_on_shape_conflict():
    target, source = donor_and_target()
    with pytest.raises(EntryShapeError) as exc:
        transplant(target, source, "pt.", strict=True)
    assert "pt.layer1.weight" in str(exc.value)


def test_transplant_preserves_target_structure():
    target, source = donor_and_target()
    result, _ = transplant(target, source, "pt.layer0.")
    assert result.names() == target.names()
    for name, arr in target.items():
        assert result.get(name).shape == arr.shape


def test_transplant_is_idempotent():
    target, source = donor_and_target()
    once, _ = transplant(target, source, "pt.layer0.")
    twice, _ = transplant(once, source, "pt.layer0.")
    assert once == twice


def test_transplant_untouched_donor_entries_ignored():
    target, source = donor_and_target()
    result, report = transplant(target, source, "pt.layer0.")
    assert "other.thing" not in result
    assert all(not n.startswith("other.") for n in report.transplanted)


def test_transplant_equality_semantics(tmp_path):
    target, source = donor_and_target()
    a, _ = transplant(target, source, "pt.layer0.")
    b, _ = transplant(target, source, "pt.layer0.")
    assert a == b
    assert a != target


def test_save_load_survives_random_stores(tmp_path):
    for seed in range(5):
        rng = Rng(seed)
        store = ParamStore()
        n = rng.integer1(1, 6)
        for i in range(n):
            ndim = rng.integer1(1, 3)
            dims = tuple(rng.integer1(1, 5) for _ in range(ndim))
            store.add(f"p{i}", rng.uniform(int(np.prod(dims))).reshape(dims))
        path = tmp_path / f"r{seed}.tvck"
        save(store, path)
        loaded = load(path)
        assert loaded.names() == store.names()
        for name, arr in store.items():
            np.testing.assert_array_equal(loaded.get(name), arr.astype(np.float32))


# --- fuzzing ---


def _blob(store: ParamStore) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/w.tvck"
        save(store, path)
        with open(path, "rb") as fh:
            return fh.read()


TVCK_BLOB = _blob(sample_store())


def _load_bytes(blob: bytes) -> ParamStore:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.tvck"
        with open(path, "wb") as fh:
            fh.write(blob)
        return load(path)


def test_zero_dim_beside_huge_dims_raises_entry_shape_error(tmp_path):
    # No data bytes are declared, but numpy cannot make the empty array.
    blob = MAGIC + b"\x01" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"a"
    blob += struct.pack("<B", 3) + struct.pack("<3I", 0, 2**32 - 1, 2**32 - 1)
    path = tmp_path / "z.tvck"
    path.write_bytes(blob)
    with pytest.raises(EntryShapeError):
        load(path)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(TVCK_BLOB) - 1))
def test_truncated_checkpoint_raises_checkpoint_error(cut):
    with pytest.raises(CheckpointError):
        _load_bytes(TVCK_BLOB[:cut])


@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, len(TVCK_BLOB) - 1), st.integers(1, 255)), min_size=1, max_size=4
    )
)
def test_byte_flipped_checkpoint_loads_or_raises_checkpoint_error(flips):
    blob = bytearray(TVCK_BLOB)
    for pos, bits in flips:
        blob[pos] ^= bits
    try:
        store = _load_bytes(bytes(blob))
    except CheckpointError:
        return
    # A flip inside names or values can leave a well-formed file.
    assert len(store) == len(sample_store())


# --- equality with the reference reader and transplant ---


@st.composite
def param_stores(draw, names=st.text(max_size=4), shapes=st.lists(st.integers(0, 3), max_size=3)):
    """Stores of up to 4 entries, each filled with one float32 value."""
    entries = draw(
        st.lists(st.tuples(names, shapes, st.floats(width=32)), max_size=4, unique_by=lambda e: e[0])
    )
    return ParamStore.from_items((name, np.full(shape, value)) for name, shape, value in entries)


@st.composite
def damaged_blobs(draw):
    """A saved store cut short, with up to 4 bytes past the magic flipped,
    then extended."""
    blob = _blob(draw(param_stores()))
    blob = bytearray(blob[: draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))])
    if len(blob) > len(MAGIC):
        flips = st.tuples(st.integers(len(MAGIC), len(blob) - 1), st.integers(1, 255))
        for pos, bits in draw(st.lists(flips, max_size=4)):
            blob[pos] ^= bits
    return bytes(blob + draw(st.binary(max_size=8)))


def _contents(store: ParamStore):
    return [(name, value.shape, value.tobytes()) for name, value in store.items()]


def _outcome(call):
    """What ``call()`` gives: its stores' names, shapes and float32 bytes
    (and any other results as they are), or its exception's class and text."""
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    results = result if isinstance(result, tuple) else (result,)
    return [_contents(r) if isinstance(r, ParamStore) else r for r in results]


def _reference_load(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return checkpoint_reference.parse(blob)
    except CheckpointError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@settings(max_examples=300, deadline=None)
@given(blob=damaged_blobs())
def test_load_equals_the_reference_reader(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/w.tvck"
        with open(path, "wb") as fh:
            fh.write(blob)
        assert _outcome(lambda: load(path)) == _outcome(lambda: _reference_load(path))


# Few names and shapes, so that target and source share many of each.
OVERLAPPING_STORES = param_stores(
    names=st.text("ab.", max_size=2), shapes=st.sampled_from([(1,), (2,), (1, 2)])
)


@settings(max_examples=300, deadline=None)
@given(
    target=OVERLAPPING_STORES,
    source=OVERLAPPING_STORES,
    prefix=st.text("ab.", max_size=2),
    strict=st.booleans(),
)
def test_transplant_equals_the_reference(target, source, prefix, strict):
    assert _outcome(lambda: transplant(target, source, prefix, strict)) == _outcome(
        lambda: checkpoint_reference.transplant(target, source, prefix, strict)
    )
