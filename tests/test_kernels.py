"""The numpy gate kernel, its cached index plans, and the states built on them."""

import numpy as np
import pytest

import toffsim
from toffsim import _kernels
from toffsim._kernels import apply_dense, target_plan
from toffsim.core import (
    QuantumState,
    apply_gate,
    gate,
    measure_operator,
    z_product,
)
from toffsim.rng import master_rng


def test_backend_is_a_known_implementation():
    assert toffsim.kernel_backend == "python"


def test_target_plan_enumerates_every_index_once():
    base, offs = target_plan(5, [1, 3])
    seen = sorted((b + o) for b in base for o in offs)
    assert seen == list(range(32))


def test_target_plan_offsets_follow_axis_order():
    # axis 0 is the most significant bit of the flattened index
    base, offs = target_plan(3, [0, 2])
    assert list(offs) == [0, 1, 4, 5]
    base2, offs2 = target_plan(3, [2, 0])
    assert list(offs2) == [0, 4, 1, 5]


def test_cached_plan_arrays_reject_writes():
    base, offs = target_plan(4, [1, 2])
    assert target_plan(4, (1, 2))[0] is base  # list and tuple share one entry
    with pytest.raises(ValueError):
        base[0] = 1
    with pytest.raises(ValueError):
        offs[0] = 1


def test_plan_cache_stays_within_its_bound():
    plans = [(n, [ax]) for n in range(1, 13) for ax in range(n)]
    info = _kernels._cached_plan.cache_info()
    assert info.maxsize is not None and len(plans) > info.maxsize
    for n, axes in plans:
        target_plan(n, axes)
    assert _kernels._cached_plan.cache_info().currsize <= info.maxsize


def _random_problem(rng, n, k):
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    axes = list(rng.choice(n, size=k, replace=False))
    return vec.astype(np.complex128), m.astype(np.complex128), axes


def _kron_oracle(vec, m, axes, n):
    """m on `axes`: permute them to the front, apply m (x) I, permute back."""
    k = len(axes)
    perm = list(axes) + [ax for ax in range(n) if ax not in axes]
    t = vec.reshape((2,) * n).transpose(perm).reshape(2**n)
    t = np.kron(m, np.eye(2 ** (n - k))) @ t
    return t.reshape((2,) * n).transpose(np.argsort(perm)).reshape(2**n)


@pytest.mark.parametrize("n,k", [(1, 1), (4, 1), (5, 2), (8, 3), (10, 2)])
def test_backends_agree(n, k):
    """The gather kernel and an independent kron/permutation oracle agree."""
    rng = master_rng(2024)
    vec, m, axes = _random_problem(rng, n, k)
    base, offs = target_plan(n, axes)
    got = vec.copy()
    apply_dense(got, m, base, offs)
    np.testing.assert_allclose(got, _kron_oracle(vec, m, axes, n), atol=1e-12)


def test_kernel_matches_dense_matrix_oracle():
    # one-qubit case where the full 2^n x 2^n operator is easy to build
    rng = master_rng(77)
    vec, m, _ = _random_problem(rng, 3, 1)
    axis = 1
    full = np.kron(np.kron(np.eye(2), m), np.eye(2))
    want = full @ vec
    got = vec.copy()
    base, offs = target_plan(3, [axis])
    apply_dense(got, m, base, offs)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_two_qubit_kernel_against_kron_oracle():
    rng = master_rng(78)
    vec, m, _ = _random_problem(rng, 4, 2)
    # apply to axes (0, 3): permute into (0,3,1,2), apply m x I, permute back
    t = vec.reshape(2, 2, 2, 2).transpose(0, 3, 1, 2).reshape(4, 4)
    t = (m @ t).reshape(2, 2, 2, 2).transpose(0, 2, 3, 1)
    want = t.reshape(16)
    got = vec.copy()
    base, offs = target_plan(4, [0, 3])
    apply_dense(got, m, base, offs)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_measuring_a_non_involution_raises():
    s = QuantumState.from_vector(("a",), [1, 1])
    with pytest.raises(ValueError, match="involution"):
        measure_operator(s, gate("S", "a"), postselect=+1)
    with pytest.raises(ValueError, match="involution"):
        measure_operator(s, gate("S", "a"), rng=master_rng(0))


@pytest.mark.parametrize("density", [False, True])
def test_derived_states_keep_the_register(density):
    s = QuantumState.from_vector(("a", "b", "c"), np.arange(1, 9))
    if density:
        s = s.to_density()
    derived = [
        apply_gate(s, "CNOT", "c", "a"),
        measure_operator(s, gate("CNOT", "a", "b"), postselect=+1)[0],
        measure_operator(s, z_product("b", "c"), postselect=-1)[0],
        measure_operator(s, z_product("a"), rng=master_rng(3))[0],
    ]
    for out in derived:
        assert out.labels == s.labels
        assert out.is_density == density
        assert out.data.shape == s.data.shape
        assert out.data.dtype == np.complex128
        assert [out.axis(label) for label in ("a", "b", "c")] == [0, 1, 2]
        with pytest.raises(KeyError):
            out.axis("d")
