"""Deterministic randomness: counter-based Philox streams keyed per trial.

Every sampled experiment takes a (seed, trial) pair and gets an independent
substream, so results do not depend on execution order and a parallel run
aggregates to exactly the same numbers as a serial one.

`trial_rng(seed, t)` is a numpy Philox4x64-10 generator keyed (seed, t).
Building one costs ~15 us on a 2-vCPU Xeon host, most of it the OS entropy
that numpy's Philox draws and then discards for the given key.

`trial_uniforms(seed, start, stop, count, first)` computes `count`
uniforms, from uniform `first` of the stream on, of every substream t in
[start, stop) at once, in numpy array arithmetic: row `t - start` is
bit-identical to `trial_rng(seed, t).random(first + count)[first:]`.  It
never builds a `Generator`, so a process that samples only through it does
not load `numpy.random`.  Reading from an offset lets one stream be consumed
a block of draws at a time, as the raw pair preparation reads its attempts.
`ragged_uniforms(seed, start, counts, first)` is its ragged form: a
different count per substream, as distill's trees draw one level at a time.
Both run one Philox kernel, `_philox_words`, over a slab of blocks in place:
the four counter words, two spare words and the scratch for the 32-bit limb
products are allocated once a slab, each round updates the counter words in
place and renames them, and the 64x64-bit high word takes four limb products
(Hacker's Delight §8-2).
`count_cdf(probabilities)` tabulates the law of a count of independent
Bernoulli trials, and `invert_cdf(cdf, uniforms)` draws from a table by
inversion, one uniform a draw: what a sampler keeps of its trials is a
tally, so it draws the tally and not the trials.
Seeds, trial indices and counts are integers (`operator.index`: a numpy
integer is taken at its value, a float is refused), and seeds and trial
indices lie in [0, 2**64).
"""

from __future__ import annotations

import operator

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
# Philox blocks (4 words each) computed at once by `trial_uniforms` and
# `ragged_uniforms`
_SLAB_BLOCKS = 2**15


def _check_key(value: int, what: str) -> int:
    """`value` as an int in [0, 2**64); a TypeError if it is no integer."""
    value = operator.index(value)
    if not 0 <= value < _KEY_LIMIT:
        raise ValueError(f"{what} must lie in [0, 2**64), got {value}")
    return value


def check_trials(seed: int, start: int, stop: int):
    """(seed, start, stop) as ints, for the substreams of trials start..stop-1."""
    seed = _check_key(seed, "seed")
    start, stop = operator.index(start), operator.index(stop)
    if not 0 <= start <= stop <= _KEY_LIMIT:
        raise ValueError(f"trial range [{start}, {stop}) must lie in [0, 2**64)")
    return seed, start, stop


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial of one seeded experiment."""
    seed = _check_key(seed, "seed")
    trial = _check_key(trial, "trial index")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(mul: np.uint64, x: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             scratch) -> None:
    """Write the high and low 64-bit words of the 128-bit products mul * x
    into `hi` and `lo`; `x` and the two `scratch` arrays, all shaped like `x`,
    are overwritten.

    The high word is summed from four 32-bit limb products as in Hacker's
    Delight §8-2, where no partial sum exceeds 64 bits: 15 array operations.
    """
    m_lo, m_hi = mul & _LOW32, mul >> _SHIFT32
    x_lo, t = scratch
    np.multiply(x, mul, out=lo)
    np.bitwise_and(x, _LOW32, out=x_lo)
    x_hi = np.right_shift(x, _SHIFT32, out=x)
    np.multiply(x_lo, m_hi, out=t)
    x_lo *= m_lo
    x_lo >>= _SHIFT32
    t += x_lo  # t = x_lo m_hi + (x_lo m_lo >> 32)
    w = np.multiply(x_hi, m_lo, out=x_lo)
    np.bitwise_and(t, _LOW32, out=hi)
    w += hi  # w = x_hi m_lo + (t & (2**32 - 1))
    x_hi *= m_hi
    t >>= _SHIFT32
    x_hi += t
    w >>= _SHIFT32
    np.add(x_hi, w, out=hi)  # x_hi m_hi + (t >> 32) + (w >> 32)


def _philox_words(seed: int, trial: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Output words of the Philox blocks keyed (seed, trial) at the counters
    (counter, 0, 0, 0), for uint64 arrays `trial` and `counter` that
    broadcast together: shape broadcast + (4,).  numpy keys block j of a
    substream with the counter j + 1.  `counter` is overwritten.

    Every array is allocated once, at the full broadcast shape, so that each
    operation runs over one contiguous array or with a scalar: the four
    counter words, two spare words, the per-block key and the scratch of
    `_mulhilo`.  A round writes each 128-bit product into the spares and a
    consumed counter word, XORs its high word into the counter word it
    updates, and renames the arrays.  The first round is taken in closed
    form, at `counter`'s own shape: three of its counter words are 0, and
    the fourth is `counter`.  So rows x 1 trials against 1 x blocks counters,
    as `trial_uniforms` passes them, take that round once a column.
    """
    shape = np.broadcast_shapes(trial.shape, counter.shape)
    first_hi, first_lo, *spare = np.empty((4,) + counter.shape, dtype=np.uint64)
    _mulhilo(_MUL0, counter, first_hi, first_lo, spare)
    key0 = seed
    key1 = np.empty(shape, dtype=np.uint64)
    key1[...] = trial
    c0, c1, c2, c3, hi, lo = np.empty((6,) + shape, dtype=np.uint64)
    # round 0 of (j + 1, 0, 0, 0): (key0, 0, hi(M0 (j + 1)) ^ key1, lo(M0 (j + 1)))
    c0.fill(key0)
    c1.fill(0)
    np.bitwise_xor(key1, first_hi, out=c2)
    c3[...] = first_lo
    del first_hi, first_lo, spare  # freed before the rounds' scratch is allocated
    scratch = tuple(np.empty((2,) + shape, dtype=np.uint64))
    for _ in range(1, _ROUNDS):
        key0 = (key0 + _BUMP0) % _KEY_LIMIT
        key1 += np.uint64(_BUMP1)
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ key0, lo(M1 c2),
        #                      hi(M0 c0) ^ c3 ^ key1, lo(M0 c0))
        _mulhilo(_MUL1, c2, hi, lo, scratch)
        c1 ^= hi
        c1 ^= np.uint64(key0)
        _mulhilo(_MUL0, c0, c2, hi, scratch)
        c3 ^= c2
        c3 ^= key1
        c0, c1, c2, c3, hi, lo = c1, lo, c3, hi, c2, c0
    return np.stack((c0, c1, c2, c3), axis=-1)


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
    seed, start, stop = check_trials(seed, start, stop)
    count, first = operator.index(count), operator.index(first)
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
        trials = np.uint64(start + r0) + np.arange(r1 - r0, dtype=np.uint64)[:, None]
        for b0 in range(0, blocks, block_step):
            b1 = min(b0 + block_step, blocks)
            lo, hi = max(4 * b0 - lead, 0), min(4 * b1 - lead, count)
            skip = lo - (4 * b0 - lead)
            counters = np.arange(first // 4 + b0 + 1, first // 4 + b1 + 1, dtype=np.uint64)
            words = _philox_words(seed, trials, counters[None, :]).reshape(r1 - r0, -1)
            words >>= _SHIFT11
            np.multiply(words[:, skip:skip + hi - lo], 2.0**-53, out=out[r0:r1, lo:hi])
            del words  # freed before the next slab's words are computed
    return out


def ragged_uniforms(seed: int, start: int, counts: np.ndarray, first: int = 0):
    """The first `counts[i]` uniforms, from uniform `first` on, of the
    substream of trial start + i, for every i, in slabs.

    Yields (rows, uniforms) per slab of at most `_SLAB_BLOCKS` Philox blocks:
    `uniforms` holds the slab's draws, substream by substream in order, and
    `rows[j]` is the i whose substream uniform j comes from.  Taken
    together, the uniforms of row i equal
    `trial_uniforms(seed, start + i, start + i + 1, counts[i], first)[0]`.
    `first` is a multiple of 4, so every substream's draw begins a Philox
    block.  A slab's arrays are computed flat, one block a row, so the
    working arrays stay a few MiB however the counts are spread.
    """
    counts = np.asarray(counts)
    if counts.size and counts.dtype.kind not in "iu":
        raise TypeError(f"counts must be integers, got {counts.dtype}")
    counts = counts.astype(np.int64)
    seed, start, _ = check_trials(seed, start, start + counts.size)
    first = operator.index(first)
    if first % 4:
        raise ValueError(f"first must be a multiple of 4, got {first}")
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be >= 0")
    if counts.size and not 0 <= first <= _KEY_LIMIT - int(counts.max()):
        raise ValueError(f"uniforms from {first} on must lie in [0, 2**64)")
    blocks = (counts + 3) // 4
    ends = np.cumsum(blocks)
    total = int(ends[-1]) if ends.size else 0
    for b0 in range(0, total, _SLAB_BLOCKS):
        flat = np.arange(b0, min(b0 + _SLAB_BLOCKS, total))
        rows = np.searchsorted(ends, flat, side="right")
        # each block's index within its substream's draw
        local = flat - (ends[rows] - blocks[rows])
        words = _philox_words(seed, np.uint64(start) + rows.astype(np.uint64),
                              local.astype(np.uint64) + np.uint64(first // 4 + 1))
        words >>= _SHIFT11
        # a substream's last block may hold words past its count
        keep = np.arange(4) < (counts[rows] - 4 * local)[:, None]
        row_of = np.broadcast_to(rows[:, None], keep.shape)[keep]
        uniforms = words[keep] * 2.0**-53
        del flat, rows, local, words, keep  # freed while the caller takes the slab
        yield row_of, uniforms


def count_cdf(probabilities) -> np.ndarray:
    """P(count <= k) for k = 0..n, where the count is the number of successes
    of n independent trials with success chances `probabilities`: the
    Poisson-binomial law.

    The probability mass is built in a fixed order, one trial at a time, by
    the elementwise update m_k <- m_k (1 - p) + m_(k-1) p (the direct
    convolution of Hong, Comput. Stat. Data Anal. 59, 41 (2013)), O(n^2) in
    all, and summed by `np.cumsum`, which adds in order.  It takes no log or
    exp, so its bits depend on neither libm nor the SIMD target.  The running
    sums are capped at 1 and the last is set to exactly 1, so that every
    uniform in [0, 1) inverts to a count of at most n.
    """
    chances = np.asarray(probabilities, dtype=np.float64).ravel()
    mass = np.zeros(chances.size + 1)
    mass[0] = 1.0
    for k, p in enumerate(chances.tolist()):
        head = mass[:k + 2]  # counts 0..k + 1 once trial k is in
        head[1:] = head[1:] * (1.0 - p) + head[:-1] * p
        head[0] *= 1.0 - p
    cdf = np.cumsum(mass)
    np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    return cdf


def invert_cdf(cdf: np.ndarray, uniforms) -> np.ndarray:
    """For each uniform u, the least k with u < cdf[k]: discrete inversion by
    table search (Devroye, Non-Uniform Random Variate Generation, 1986).
    `cdf` is nondecreasing; a table whose last entry is 1 inverts every
    uniform in [0, 1) to an index of the table."""
    return np.searchsorted(cdf, uniforms, side="right")
