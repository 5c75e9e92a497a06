"""Deterministic randomness: counter-based Philox streams keyed per trial.

Every sampled experiment takes a (seed, trial) pair and gets an independent
substream, so results do not depend on execution order and a parallel run
aggregates to exactly the same numbers as a serial one.

`trial_rng(seed, t)` is a numpy Philox4x64-10 generator keyed (seed, t).
Building one costs ~15 us on a 2-vCPU Xeon host, most of it the OS entropy
that numpy's Philox draws and then discards for the given key.
`rekey(gen, seed, t)` points an existing `trial_rng` generator at the
substream (seed, t) instead, in ~1 us: a counter-based Philox stream is
reached by setting its key and a zero counter (Salmon et al., SC 2011).  So
a loop over trials builds one generator and re-keys it per trial.

`trial_uniforms(seed, start, stop, count, first)` computes `count`
uniforms, from uniform `first` of the stream on, of every substream t in
[start, stop) at once, in numpy array arithmetic: row `t - start` is
bit-identical to `trial_rng(seed, t).random(first + count)[first:]`.  It
never builds a `Generator`, so a process that samples only through it does
not load `numpy.random`.  Reading from an offset lets one stream be consumed
a block of draws at a time, as the raw pair preparation reads its attempts.
Seeds and trial indices lie in [0, 2**64).
"""

from __future__ import annotations

import numpy as np

_KEY_LIMIT = 2**64

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11),
# as used by numpy's Philox bit generator
_MUL0 = np.uint64(0xD2E7470EE14C6C93)
_MUL1 = np.uint64(0xCA5A826395121157)
_BUMP0 = 0x9E3779B97F4A7C15
_BUMP1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# Philox blocks (4 words each) computed at once by `trial_uniforms`
_SLAB_BLOCKS = 2**15


def _check_key(value: int, what: str) -> None:
    if not 0 <= value < _KEY_LIMIT:
        raise ValueError(f"{what} must lie in [0, 2**64), got {value}")


def master_rng(seed: int) -> np.random.Generator:
    return trial_rng(seed, 0)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial of one seeded experiment."""
    _check_key(seed, "seed")
    _check_key(trial, "trial index")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# a fresh Philox's counter and output buffer
_ZERO_WORDS = (0, 0, 0, 0)


def rekey(gen: np.random.Generator, seed: int, trial: int) -> np.random.Generator:
    """Point `gen`, made by `trial_rng`, at the substream of (seed, trial).

    Sets the key, a zero counter and an empty output buffer, so the draws
    that follow equal those of a fresh `trial_rng(seed, trial)`.  Returns
    `gen` itself: a generator taken from it, for one trial, is valid only
    until the next re-key.
    """
    _check_key(seed, "seed")
    _check_key(trial, "trial index")
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed, trial)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _mulhilo(mul: np.uint64, x: np.ndarray):
    """(high, low) 64-bit words of the 128-bit products mul * x, via 32-bit limbs."""
    m_lo, m_hi = mul & _LOW32, mul >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    carry = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    high = m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (carry >> _SHIFT32)
    return high, mul * x


def _philox_words(seed: int, first_trial: int, rows: int, first_block: int,
                  blocks: int) -> np.ndarray:
    """(rows, 4 * blocks) output words of Philox blocks first_block.. of the
    substreams of trials first_trial..; numpy keys block j with the counter
    (j + 1, 0, 0, 0)."""
    key0 = seed
    key1 = (np.uint64(first_trial) + np.arange(rows, dtype=np.uint64))[:, None]
    c0 = np.broadcast_to(np.arange(first_block + 1, first_block + blocks + 1,
                                   dtype=np.uint64), (rows, blocks))
    c1 = c2 = c3 = np.zeros((rows, blocks), dtype=np.uint64)
    for r in range(_ROUNDS):
        if r:
            key0 = (key0 + _BUMP0) % _KEY_LIMIT
            key1 = key1 + np.uint64(_BUMP1)
        hi0, lo0 = _mulhilo(_MUL0, c0)
        hi1, lo1 = _mulhilo(_MUL1, c2)
        hi1 ^= c1
        hi1 ^= np.uint64(key0)
        hi0 ^= c3
        hi0 ^= key1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(rows, 4 * blocks)


def trial_uniforms(seed: int, start: int, stop: int, count: int,
                   first: int = 0) -> np.ndarray:
    """`count` uniforms, from uniform `first` on, of the substreams of trials
    start..stop-1.

    Returns a (stop - start, count) float64 array whose row i equals
    `trial_rng(seed, start + i).random(first + count)[first:]` bit for bit:
    numpy's Philox turns each 64-bit output word w into the double
    (w >> 11) * 2**-53, one word a uniform.  The words are computed in slabs
    of at most `_SLAB_BLOCKS` Philox blocks and written into the result, so
    the working arrays stay a few MiB however large the result is.
    """
    _check_key(seed, "seed")
    if not 0 <= start <= stop <= _KEY_LIMIT:
        raise ValueError(f"trial range [{start}, {stop}) must lie in [0, 2**64)")
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0 <= first <= _KEY_LIMIT - count:
        raise ValueError(f"uniforms [{first}, {first + count}) must lie in [0, 2**64)")
    # the words before `first` in its Philox block are skipped
    lead = first % 4
    rows, blocks = stop - start, -(-(lead + count) // 4)
    out = np.empty((rows, count))
    if out.size == 0:
        return out
    block_step = min(blocks, _SLAB_BLOCKS)
    row_step = max(1, _SLAB_BLOCKS // block_step)
    for r0 in range(0, rows, row_step):
        r1 = min(r0 + row_step, rows)
        for b0 in range(0, blocks, block_step):
            b1 = min(b0 + block_step, blocks)
            lo, hi = max(4 * b0 - lead, 0), min(4 * b1 - lead, count)
            skip = lo - (4 * b0 - lead)
            words = _philox_words(seed, start + r0, r1 - r0, first // 4 + b0, b1 - b0)
            np.multiply(words[:, skip:skip + hi - lo] >> _SHIFT11, 2.0**-53,
                        out=out[r0:r1, lo:hi])
    return out
