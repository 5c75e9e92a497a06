"""Per-trial Philox substreams: generators and their vectorized uniforms."""

import tracemalloc

import numpy as np
import pytest

from toffsim import rng
from toffsim.rng import ragged_uniforms, trial_rng, trial_uniforms

COUNTS = (1, 3, 4, 5, 17, 33)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**32 + 7])
def test_trial_uniforms_match_numpy_philox(seed, start):
    for count in COUNTS:
        rows = trial_uniforms(seed, start, start + 5, count)
        assert rows.shape == (5, count) and rows.dtype == np.float64
        for i, row in enumerate(rows):
            key = np.array([seed, start + i], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key)).random(count)
            assert np.array_equal(row, want)


def test_trial_uniforms_rows_are_trial_rng_draws():
    rows = trial_uniforms(9, 3, 11, 17)
    for i, row in enumerate(rows):
        assert np.array_equal(row, trial_rng(9, 3 + i).random(17))
    assert np.array_equal(trial_uniforms(9, 0, 1, 4)[0], trial_rng(9, 0).random(4))


def test_trial_uniforms_reach_the_last_trial_index():
    rows = trial_uniforms(5, 2**64 - 2, 2**64, 3)
    assert np.array_equal(rows[1], trial_rng(5, 2**64 - 1).random(3))
    assert trial_uniforms(5, 7, 7, 3).shape == (0, 3)
    assert trial_uniforms(5, 2**64, 2**64, 3).shape == (0, 3)
    assert trial_uniforms(5, 7, 9, 0).shape == (2, 0)


@pytest.mark.parametrize("call", [
    lambda: trial_rng(2**64, 0),
    lambda: trial_rng(0, 2**64),
    lambda: trial_rng(-1, 0),
    lambda: trial_rng(2**70, 0),
    lambda: trial_uniforms(2**64, 0, 2, 3),
    lambda: trial_uniforms(0, 2**64 - 1, 2**64 + 1, 3),
    lambda: trial_uniforms(0, -1, 2, 3),
    lambda: trial_uniforms(0, 4, 2, 3),
    lambda: trial_uniforms(0, 0, 2, -1),
    lambda: trial_uniforms(0, 0, 2, 3, -1),
    lambda: trial_uniforms(0, 0, 2, 3, 2**64 - 2),
])
def test_keys_outside_64_bits_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integer_keys_read_as_their_value(kind):
    value = 2**63 + 4 if kind is np.uint64 else 4
    want = trial_uniforms(value, 3, 5, 6, 4)
    assert np.array_equal(trial_uniforms(kind(value), kind(3), kind(5), kind(6), kind(4)), want)
    assert np.array_equal(trial_rng(kind(value), kind(3)).random(10)[4:], want[0])
    assert np.array_equal(trial_uniforms(1, 0, 1, kind(4)), trial_uniforms(1, 0, 1, 4))


@pytest.mark.parametrize("call", [
    lambda: trial_uniforms(1.5, 0, 1, 4),
    lambda: trial_uniforms(1.0, 0, 1, 4),
    lambda: trial_uniforms(1, 0.0, 1, 4),
    lambda: trial_uniforms(1, 0, 1.0, 4),
    lambda: trial_uniforms(1, 0, 1, 4.0),
    lambda: trial_uniforms(1, 0, 1, 4, 1.0),
    lambda: trial_uniforms(np.float64(1), 0, 1, 4),
    lambda: trial_rng(1.5, 0),
    lambda: trial_rng(1, 0.0),
    lambda: trial_rng(1, np.float64(0)),
    lambda: next(ragged_uniforms(1.5, 0, [4])),
    lambda: next(ragged_uniforms(1, 0.0, [4])),
    lambda: next(ragged_uniforms(1, 0, [4], 4.0)),
    lambda: next(ragged_uniforms(1, 0, [4.0])),
])
def test_float_keys_are_type_errors(call):
    with pytest.raises(TypeError):
        call()


def ragged_rows(seed, start, counts, first=0):
    """The uniforms of `ragged_uniforms` gathered per row, and the slab count."""
    slabs = list(ragged_uniforms(seed, start, counts, first))
    rows = [[] for _ in counts]
    for row_of, uniforms in slabs:
        assert row_of.shape == uniforms.shape and uniforms.dtype == np.float64
        assert np.all(np.diff(row_of) >= 0)  # substream by substream, in order
        for i, u in zip(row_of.tolist(), uniforms.tolist()):
            rows[i].append(u)
    return rows, len(slabs)


@pytest.mark.parametrize("seed, start", [(7, 3), (2**64 - 1, 2**64 - 6)])
@pytest.mark.parametrize("first", [0, 4, 4 << 32, 2**64 - 64])
def test_ragged_uniforms_equal_trial_uniforms_row_by_row(seed, start, first, monkeypatch):
    counts = [3, 0, 9, 4, 1, 17]
    rows, _ = ragged_rows(seed, start, counts, first)
    for i, count in enumerate(counts):
        assert rows[i] == trial_uniforms(seed, start + i, start + i + 1, count, first)[0].tolist()
    # slabs of two blocks: rows split across slabs, and slabs across rows
    monkeypatch.setattr(rng, "_SLAB_BLOCKS", 2)
    split, slabs = ragged_rows(seed, start, counts, first)
    assert split == rows and slabs == 6  # 1 + 0 + 3 + 1 + 1 + 5 = 11 blocks


def test_ragged_uniforms_of_no_draws_yield_nothing():
    assert list(ragged_uniforms(1, 0, [])) == []
    assert list(ragged_uniforms(1, 0, [0, 0])) == []
    assert list(ragged_uniforms(1, 2**64, [])) == []


@pytest.mark.parametrize("call", [
    lambda: ragged_uniforms(2**64, 0, [1]),
    lambda: ragged_uniforms(0, 2**64 - 1, [1, 1]),
    lambda: ragged_uniforms(0, -1, [1]),
    lambda: ragged_uniforms(0, 0, [1, -1]),
    lambda: ragged_uniforms(0, 0, [1], 2),
    lambda: ragged_uniforms(0, 0, [8], 2**64 - 4),
])
def test_ragged_uniforms_refuse_what_they_would_get_wrong(call):
    with pytest.raises(ValueError):
        next(call())


def test_trial_uniforms_peak_memory_stays_within_twice_the_result():
    tracemalloc.start()
    try:
        rows = trial_uniforms(0, 0, 512, 8190)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (512, 8190) and rows.flags.c_contiguous
    assert peak <= 2 * rows.nbytes
    # the in-place Philox kernel holds no more than the one that allocated a
    # fresh array per operation, 36.50 MiB, did
    assert peak <= 1.01 * 36.50 * 2**20
    for i in (0, 511):
        assert np.array_equal(rows[i], trial_rng(0, i).random(8190))


def test_trial_uniforms_slabs_meet_bit_for_bit():
    # rows long enough to be cut into several slabs of blocks, the last one
    # partial; then rows of just over half a slab, one row per slab
    rows = trial_uniforms(3, 10, 14, 4 * rng._SLAB_BLOCKS + 7)
    for i, row in enumerate(rows):
        assert np.array_equal(row, trial_rng(3, 10 + i).random(row.size))
    wide = rng._SLAB_BLOCKS // 2 + 1
    rows = trial_uniforms(4, 0, 3, 4 * wide - 1)
    for i, row in enumerate(rows):
        assert np.array_equal(row, trial_rng(4, i).random(row.size))



@pytest.mark.parametrize("seed, start", [(7, 3), (2**64 - 1, 2**64 - 3)])
@pytest.mark.parametrize("first", [0, 1, 2, 3, 4, 5, 10, 4 * 33 + 3])
def test_trial_uniforms_read_from_an_offset(seed, start, first, monkeypatch):
    # slabs of two blocks, so that rows of a few dozen uniforms span several
    monkeypatch.setattr(rng, "_SLAB_BLOCKS", 2)
    for count in (0,) + COUNTS:
        rows = trial_uniforms(seed, start, start + 3, count, first)
        assert rows.shape == (3, count)
        for i, row in enumerate(rows):
            want = trial_rng(seed, start + i).random(first + count)[first:]
            assert np.array_equal(row, want)


@pytest.mark.parametrize("seed, start", [(3, 10), (2**64 - 1, 2**64 - 2)])
def test_trial_uniforms_offset_rows_span_full_slabs(seed, start):
    # an offset three words short of a slab's end, and rows over two slabs
    first, count = 4 * rng._SLAB_BLOCKS - 3, 4 * rng._SLAB_BLOCKS + 6
    rows = trial_uniforms(seed, start, start + 2, count, first)
    for i, row in enumerate(rows):
        want = trial_rng(seed, start + i).random(first + count)[first:]
        assert np.array_equal(row, want)

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK64 = 2**64 - 1


def philox4x64_10(key, counter):
    """The four output words of one Philox4x64-10 block, in Python ints."""
    (k0, k1), (c0, c1, c2, c3) = key, counter
    for r in range(10):
        if r:
            k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
        p0, p1 = PHILOX_M[0] * c0, PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & MASK64
    return c0, c1, c2, c3


def reference_words(seed, trial, blocks, first_block=0):
    # numpy's Philox keys block j of a stream with the counter (j + 1, 0, 0, 0)
    return [w for j in range(first_block, first_block + blocks)
            for w in philox4x64_10((seed, trial), (j + 1, 0, 0, 0))]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("first_trial, first_block", [
    (0, 0), (2**64 - 3, 1), (7, 2**40 + 5), (2**63, 2**64 - 6)])
def test_philox_words_match_a_python_int_philox(seed, first_trial, first_block):
    # rows x 1 trials against 1 x blocks counters, as `trial_uniforms` passes them
    trials = np.uint64(first_trial) + np.arange(3, dtype=np.uint64)
    counters = np.uint64(first_block + 1) + np.arange(5, dtype=np.uint64)
    words = rng._philox_words(seed, trials[:, None], counters[None, :].copy())
    assert words.shape == (3, 5, 4) and words.dtype == np.uint64
    for i, row in enumerate(words.reshape(3, 20)):
        assert row.tolist() == reference_words(seed, first_trial + i, 5, first_block)
    # flat trials and counters, one block each, as `ragged_uniforms` passes them
    flat = rng._philox_words(seed, np.repeat(trials, 5), np.tile(counters, 3))
    assert np.array_equal(flat, words.reshape(15, 4))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_trial_uniforms_over_several_slabs_match_a_python_int_philox(seed, monkeypatch):
    # slabs of two blocks: rows of 18 words span three slabs, and rows of one
    # block go two to a slab, the last slab holding one
    monkeypatch.setattr(rng, "_SLAB_BLOCKS", 2)
    for first, count, trials in ((5, 13, 3), (0, 3, 5)):
        rows = trial_uniforms(seed, 4, 4 + trials, count, first)
        for i, row in enumerate(rows):
            words = reference_words(seed, 4 + i, -(-(first + count) // 4))
            assert row.tolist() == [(w >> 11) * 2.0**-53 for w in words[first:first + count]]


# -- count tables and their inversion ---------------------------------------------------

def test_count_cdf_caps_its_running_sums_and_ends_at_one():
    # at n = 100 the in-order sums of the mass end just below 1, so the last
    # entry is set: a uniform just below 1 must still invert to a count <= n
    chances = np.full(100, 0.05)
    mass = np.zeros(101)
    mass[0] = 1.0
    for k in range(100):  # the elementwise recurrence, one trial at a time
        mass[1:k + 2] = mass[1:k + 2] * 0.95 + mass[:k + 1] * 0.05
        mass[0] *= 0.95
    sums = np.cumsum(mass)
    assert sums[-1] < 1.0
    table = rng.count_cdf(chances)
    assert table.shape == (101,) and table[-1] == 1.0
    assert np.array_equal(table[:-1], np.minimum(sums[:-1], 1.0))
    assert np.all(np.diff(table) >= 0.0)
    assert rng.invert_cdf(table, [np.nextafter(1.0, 0.0)]).tolist() == [100]
    assert rng.invert_cdf(table, [0.0]).tolist() == [0]


def test_count_cdf_of_sure_trials_is_a_step():
    assert rng.count_cdf([0.0, 0.0, 0.0]).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert rng.count_cdf([1.0, 1.0, 1.0]).tolist() == [0.0, 0.0, 0.0, 1.0]
    assert rng.count_cdf([1.0, 0.0, 1.0, 0.0]).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    assert rng.count_cdf([]).tolist() == [1.0]


def test_invert_cdf_takes_the_least_index_above_each_uniform():
    table = np.array([0.25, 0.25, 0.5, 1.0])
    u = [0.0, 0.2499, 0.25, 0.4999, 0.5, 0.999]
    # an entry of zero mass (index 1) is never drawn
    assert rng.invert_cdf(table, u).tolist() == [0, 0, 2, 2, 3, 3]
