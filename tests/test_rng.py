"""Per-trial Philox substreams: generators and their vectorized uniforms."""

import tracemalloc

import numpy as np
import pytest

from toffsim import rng
from toffsim.rng import master_rng, rekey, trial_rng, trial_uniforms

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
    assert np.array_equal(trial_uniforms(9, 0, 1, 4)[0], master_rng(9).random(4))


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
    lambda: master_rng(2**70),
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


def test_trial_uniforms_peak_memory_stays_within_twice_the_result():
    tracemalloc.start()
    try:
        rows = trial_uniforms(0, 0, 512, 8190)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (512, 8190) and rows.flags.c_contiguous
    assert peak <= 2 * rows.nbytes
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

# (seed, trial) keys at both ends of the 64-bit range
KEYS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (9, 3)]
# draws that leave a generator part-way through a Philox block, or holding
# back half of a 64-bit word for a 32-bit draw
LEFTOVERS = {
    "none": lambda g: None,
    "random(1)": lambda g: g.random(1),
    "random(3)": lambda g: g.random(3),
    "integers(5)": lambda g: g.integers(0, 2, size=5),
    "standard_normal(7)": lambda g: g.standard_normal(7),
    "float32": lambda g: g.random(dtype=np.float32),
}
DRAWS = {
    "random": lambda g: g.random(9),
    "integers": lambda g: g.integers(0, 2, size=9),
    "standard_normal": lambda g: g.standard_normal(9),
}


@pytest.mark.parametrize("seed, trial", KEYS)
@pytest.mark.parametrize("leftover", sorted(LEFTOVERS))
def test_rekeyed_generator_equals_a_fresh_trial_rng(seed, trial, leftover):
    gen = trial_rng(5, 6)
    for name, draw in DRAWS.items():
        LEFTOVERS[leftover](gen)
        assert rekey(gen, seed, trial) is gen
        fresh = trial_rng(seed, trial)
        # two draws of 9: the second starts mid-block
        for _ in range(2):
            assert np.array_equal(draw(gen), draw(fresh)), name


def test_one_generator_rekeyed_per_trial_replays_every_substream():
    gen = trial_rng(4, 0)
    for t in range(20):
        rekey(gen, 4, t)
        assert np.array_equal(gen.random(t + 1), trial_rng(4, t).random(t + 1))
    assert np.array_equal(rekey(gen, 4, 3).random(2), trial_uniforms(4, 3, 4, 2)[0])


@pytest.mark.parametrize("key", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1)])
def test_rekey_refuses_keys_outside_64_bits(key):
    gen = trial_rng(1, 1)
    with pytest.raises(ValueError, match="must lie in"):
        rekey(gen, *key)
    assert np.array_equal(gen.random(3), trial_rng(1, 1).random(3))
