"""Per-trial Philox substreams: generators and their vectorized uniforms."""

import tracemalloc

import numpy as np
import pytest

from toffsim import rng
from toffsim.rng import master_rng, trial_rng, trial_uniforms

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
