import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit.rng import Rng

import rng_reference


def test_matches_reference_splitmix64_stream():
    # Golden vectors from the canonical C implementation
    # (state += 0x9E3779B97F4A7C15; return mix(state)).
    assert Rng(0).uint64(3).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert Rng(1234567).uint64(3).tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_stream_is_counter_based():
    # Drawing in chunks or all at once gives the same stream.
    a = Rng(99)
    b = Rng(99)
    chunks = np.concatenate([a.uint64(3), a.uint64(1), a.uint64(4)])
    assert np.array_equal(chunks, b.uint64(8))


def test_uniform_range_and_determinism():
    rng = Rng(7)
    u = rng.uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    assert np.array_equal(Rng(7).uniform(10_000), u)


def test_integers_inclusive_bounds():
    for seed in range(5):
        rng = Rng(seed)
        vals = [rng.integer1(2, 5) for _ in range(2000)]
        assert min(vals) >= 2 and max(vals) <= 5
        assert set(vals) == {2, 3, 4, 5}


def test_integers_rejects_empty_range():
    rng = Rng(0)
    with pytest.raises(ValueError):
        rng.integer1(5, 2)
    assert rng.uint64(1).tolist() == Rng(0).uint64(1).tolist()  # no draw was spent


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    calls=st.lists(
        st.one_of(
            # (low, span - 1), small spans as synth draws them and wide ones
            st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 9) | st.integers(0, 2**40 - 1)),
            st.integers(0, 5),  # a uniform batch of that many draws in between
        ),
        max_size=30,
    ),
)
def test_integer1_equals_the_numpy_stream(seed, calls):
    """Python-int draws equal the numpy batch reference on one counter, with
    uniform batches interleaved, for spans of 1 to 2^40."""
    ours, reference = Rng(seed), Rng(seed)
    for call in calls:
        if isinstance(call, tuple):
            low, extra = call
            value = ours.integer1(low, low + extra)
            expected = rng_reference.integers(reference, low, low + extra)[0]
            assert type(value) is int and value == int(expected) and low <= value <= low + extra
        else:
            assert np.array_equal(ours.uniform(call), reference.uniform(call))
    assert np.array_equal(ours.uint64(2), reference.uint64(2))


def test_shuffle_is_a_permutation():
    for seed in range(10):
        items = np.arange(50)
        Rng(seed).shuffle(items)
        assert np.array_equal(np.sort(items), np.arange(50))


def test_shuffle_depends_on_seed():
    a = np.arange(50)
    b = np.arange(50)
    Rng(1).shuffle(a)
    Rng(2).shuffle(b)
    assert not np.array_equal(a, b)


def reference_shuffle(rng: Rng, items) -> None:
    """Fisher-Yates with one integer1 draw per swap: the reference for the
    batched draws of Rng.shuffle."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.integer1(0, i)
        items[i], items[j] = items[j], items[i]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.booleans(), st.integers(0, 2**64 - 1))
def test_shuffle_matches_one_draw_per_swap_reference(n, as_array, seed):
    # An int64 array or a list of n distinct values spread from the least
    # int64 to the greatest.
    values = [-(2**63) + k * (2**64 - 1) // max(n - 1, 1) for k in range(n)]
    a, b = Rng(seed), Rng(seed)
    items = np.array(values, dtype=np.int64) if as_array else list(values)
    expected = list(values)
    a.shuffle(items)
    reference_shuffle(b, expected)
    assert isinstance(items, np.ndarray) == as_array
    assert list(items) == expected
    # both consumed the same draws, so the streams stay in step
    assert np.array_equal(a.uint64(2), b.uint64(2))


def test_shuffle_of_a_2d_array_permutes_its_rows():
    # Swapping rows as numpy views would copy one row over another; the
    # swaps run on a list, so every row survives.
    rows, order = np.arange(20).reshape(10, 2), np.arange(10)
    Rng(3).shuffle(rows)
    Rng(3).shuffle(order)
    assert np.array_equal(rows, np.arange(20).reshape(10, 2)[order])


def test_spawn_children_are_independent_and_deterministic():
    base = Rng(42)
    c1 = base.spawn(1).uint64(4)
    c2 = base.spawn(2).uint64(4)
    assert not np.array_equal(c1, c2)
    # spawn does not consume parent state and is repeatable
    assert np.array_equal(base.spawn(1).uint64(4), c1)
    assert np.array_equal(Rng(42).spawn(1).uint64(4), c1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, -1, 2**64 - 1, 2**64]), st.integers(), st.integers(-(2**80), 2**80)),
    key=st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
def test_spawn_equals_the_numpy_scalar_reference(seed, key):
    """Python-int spawning gives the child stream of the numpy-scalar
    reference for seeds of any sign and size and keys in [0, 2^64)."""
    child, expected = Rng(seed).spawn(key), rng_reference.spawn(Rng(seed), key)
    assert type(child._seed) is int
    assert np.array_equal(child.uint64(3), expected.uint64(3))
    assert child.integer1(0, 2**40) == expected.integer1(0, 2**40)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(0).uint64(8), Rng(1).uint64(8))
