"""The kernel that applies gates and measurement projections: a numpy
gather / matmul / scatter over index plans.

The protocols apply gates and project measurements on a few dozen distinct
(register size, target axes) pairs over and over, so the index plans are
memoized and handed out read-only.
"""

import functools

import numpy as np


def apply_dense(vec, u, base, offs):
    """In-place: vec[b+offs] <- u @ vec[b+offs] for every b in base."""
    idx = np.add.outer(base, offs)
    vec[idx] = vec[idx] @ u.T


def target_plan(n_axes, axes):
    """Index tables for applying a matrix to `axes` of an n-axis qubit tensor.

    Axis 0 is the most significant bit of the flattened index.  Returns
    (base, offs): `base` enumerates every setting of the non-target bits,
    `offs` the 2^k offsets of the target-bit patterns in `axes` order.  Both
    arrays are shared between callers and read-only.
    """
    return _cached_plan(n_axes, tuple(axes))


# a CLI subcommand at its defaults uses at most 23 distinct plans (toffoli-verify,
# with its correction-table check); tests/test_cli.py holds each within maxsize
@functools.lru_cache(maxsize=64)
def _cached_plan(n_axes, axes):
    k = len(axes)
    tbits = [n_axes - 1 - ax for ax in axes]
    offs = np.zeros(2**k, dtype=np.intp)
    for j in range(2**k):
        v = 0
        for t in range(k):
            if (j >> (k - 1 - t)) & 1:
                v |= 1 << tbits[t]
        offs[j] = v
    rest = sorted(set(range(n_axes)) - set(tbits), reverse=True)
    m = np.arange(2 ** (n_axes - k), dtype=np.intp)
    base = np.zeros_like(m)
    for i, bitpos in enumerate(rest):
        base |= ((m >> (len(rest) - 1 - i)) & 1) << bitpos
    base.flags.writeable = False
    offs.flags.writeable = False
    return base, offs
