"""Noisy transversal measurement of two-qubit involutions through cat blocks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toffsim.core import (
    QuantumState,
    apply_gate,
    apply_matrix,
    branch_probability,
    discard,
    fidelity,
    gate,
    measure_operator,
    sample_outcomes,
    tensor,
    z_product,
)
from toffsim import noisy_meas
from toffsim.distill import MixedAncilla
from toffsim.error_models import (
    PauliChannel,
    UnitaryErrorSet,
    accumulated_flip_angle,
    alpha3_decoherent,
    parity_bias,
)
from toffsim.noisy_meas import (
    ParityShots,
    apply_bitwise_probe,
    cat_labels,
    cat_readout_distribution,
    eigenstring_state,
    eigenstring_weight,
    exact_uniform_count,
    measure_cnot_noisy,
    measure_cphase_noisy,
    prepare_even_cat,
    prepare_raw_ancilla,
    sample_effective,
    sample_exact,
)
from toffsim.rng import master_rng, trial_rng, trial_uniforms

PLUS_PLUS = QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0])


def expected_cat_after(x, cat_state):
    """Even cat for even-weight strings, odd cat (X on the first bit) otherwise."""
    if eigenstring_weight(x):
        return apply_gate(cat_state, "X", cat_state.labels[0])
    return cat_state


# -- eigenstrings and cat blocks ---------------------------------------------------

def test_eigenstring_weight_counts_minus_factors():
    assert eigenstring_weight("1") == 0
    assert eigenstring_weight("4") == 1
    assert eigenstring_weight("44") == 0
    assert eigenstring_weight("1234") == 1
    with pytest.raises(ValueError):
        eigenstring_weight("15")
    with pytest.raises(ValueError):
        eigenstring_weight("")


def test_eigenstring_states_are_actual_eigenstates():
    # the string labels eigenstates pairwise; verify against the involution
    for sym, eig in (("1", +1), ("2", +1), ("3", +1), ("4", -1)):
        s = eigenstring_state(sym)
        assert branch_probability(s, gate("CNOT", "a1", "b1"), eig) == pytest.approx(1.0)


def test_eigenstring_state_interleaves_pairs():
    s = eigenstring_state("24")
    assert s.labels == ("a1", "b1", "a2", "b2")
    assert s.trace == pytest.approx(1.0)


def test_even_cat_amplitudes():
    cat = prepare_even_cat(3)
    amp = 1.0 / 2.0  # 1/sqrt(2^(n-1))
    for idx in range(8):
        want = amp if bin(idx).count("1") % 2 == 0 else 0.0
        assert cat.data[idx] == pytest.approx(want)
    assert cat.labels == cat_labels(3)


def test_exact_cat_size_cap():
    with pytest.raises(ValueError):
        prepare_even_cat(15)


# -- the bitwise probe identity ------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_parity_transfer_exhaustive(n):
    a_labels = tuple(f"a{i+1}" for i in range(n))
    b_labels = tuple(f"b{i+1}" for i in range(n))
    for symbols in itertools.product("1234", repeat=n):
        x = "".join(symbols)
        pairs = eigenstring_state(x, a_labels, b_labels)
        joint = apply_bitwise_probe(pairs, a_labels, b_labels, prepare_even_cat(n))
        want = tensor(pairs, expected_cat_after(x, prepare_even_cat(n)))
        assert fidelity(joint, want) >= 1.0 - 1e-12, f"string {x}"


def test_probe_leaves_pair_marginals_alone():
    x = "314"
    pairs = eigenstring_state(x)
    a_labels, b_labels = ("a1", "a2", "a3"), ("b1", "b2", "b3")
    joint = apply_bitwise_probe(pairs, a_labels, b_labels, prepare_even_cat(3))
    from toffsim.core import discard
    reduced = discard(joint, *cat_labels(3))
    assert fidelity(reduced, pairs) >= 1.0 - 1e-12


def test_cat_readout_distribution_sums_to_one():
    joint = apply_bitwise_probe(eigenstring_state("12"), ("a1", "a2"),
                                ("b1", "b2"), prepare_even_cat(2))
    dist = cat_readout_distribution(joint, cat_labels(2))
    assert dist.shape == (4,)
    assert dist.sum() == pytest.approx(1.0)
    # even string -> all weight on even-parity readouts
    odd_mass = sum(p for idx, p in enumerate(dist) if bin(idx).count("1") % 2)
    assert odd_mass == pytest.approx(0.0, abs=1e-12)


# -- noisy measurement: decoherent model ---------------------------------------------

def test_zero_noise_measurement_is_faithful():
    errors = PauliChannel.uniform(4, 0.0)
    for mode in ("effective", "exact"):
        res = measure_cphase_noisy(PLUS_PLUS, errors, mode=mode, rng=master_rng(8))
        assert res.reported_outcome == res.true_eigenvalue
        if res.reported_outcome == +1:
            want = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
        else:
            want = QuantumState.basis(("a", "b"), "11")
        assert fidelity(res.logical_state, want) >= 1.0 - 1e-12


def test_phase_noise_never_corrupts_the_report():
    errors = PauliChannel.uniform(5, 0.0, q=1.0)  # certain phase flip on every bit
    for t in range(20):
        res = measure_cnot_noisy(PLUS_PLUS, errors, mode="effective",
                                 rng=trial_rng(3, t))
        assert res.reported_outcome == res.true_eigenvalue
        assert res.phase_flips == 5


def test_certain_bit_flip_reverses_the_report():
    errors = PauliChannel(np.array([1.0]))  # one readout bit, always flipped
    for mode in ("effective", "exact"):
        res = measure_cphase_noisy(PLUS_PLUS, errors, mode=mode, rng=master_rng(4))
        assert res.reported_outcome == -res.true_eigenvalue


def test_injected_x_flips_injected_z_does_not():
    errors = PauliChannel.uniform(3, 0.0)
    base = measure_cphase_noisy(PLUS_PLUS, errors, mode="exact", rng=master_rng(6))
    flipped = measure_cphase_noisy(PLUS_PLUS, errors, mode="exact",
                                   rng=master_rng(6), inject=[("X", 1)])
    dephased = measure_cphase_noisy(PLUS_PLUS, errors, mode="exact",
                                    rng=master_rng(6), inject=[("Z", 0), ("Z", 2)])
    assert flipped.reported_outcome == -base.reported_outcome
    assert flipped.true_eigenvalue == base.true_eigenvalue
    assert dephased.reported_outcome == base.reported_outcome


def test_exact_and_effective_modes_agree_statistically():
    errors = PauliChannel.uniform(2, 0.2)
    bias = parity_bias(errors)
    want_plus = (2.0 + bias) / 4.0  # P(report +1) on the raw |++> input
    counts = {"exact": 0, "effective": 0}
    trials = 1500
    for mode in counts:
        for t in range(trials):
            res = measure_cphase_noisy(PLUS_PLUS, errors, mode=mode,
                                       rng=trial_rng(17, t))
            counts[mode] += res.reported_outcome == +1
    sigma = math.sqrt(want_plus * (1 - want_plus) / trials)
    for mode, hits in counts.items():
        assert abs(hits / trials - want_plus) < 4 * sigma, mode


def per_shot_reference(state, channel, rng):
    """One effective CNOT shot as separate draws: Born outcome, bit flips, phase flips."""
    a, b = state.labels
    post, rec = measure_operator(state, gate("CNOT", a, b), rng=rng)
    bit_flips = int(np.sum(rng.random(channel.n) < channel.p))
    phase_flips = int(np.sum(rng.random(channel.n) < channel.q))
    reported = -rec.outcome if bit_flips % 2 else rec.outcome
    return rec.outcome, reported, bit_flips, phase_flips, post


@pytest.mark.parametrize("controlled_phase", [False, True])
def test_batched_effective_shots_equal_per_shot_calls(controlled_phase):
    errors = PauliChannel.uniform(8, 0.2, q=0.1)
    # both eigenspaces of either involution are populated
    state = QuantumState.from_vector(("a", "b"), [1.0, 0.5j, 0.8, -0.3])
    measure = measure_cphase_noisy if controlled_phase else measure_cnot_noisy

    def unframe(s):
        # the controlled-phase measurement is the CNOT one conjugated by H on b
        return apply_gate(s, "H", "b") if controlled_phase else s

    frame = unframe(state)
    rng, ref_rng = master_rng(31), master_rng(31)
    singles = [measure(state, errors, mode="effective", rng=rng) for _ in range(500)]
    refs = [per_shot_reference(frame, errors, ref_rng) for _ in range(500)]
    shots = sample_effective(frame, errors, master_rng(31).random((500, 17)))
    assert set(shots.true_eigenvalues.tolist()) == {+1, -1}
    assert len(shots.logical_states) == 2
    for i, (single, ref) in enumerate(zip(singles, refs)):
        batched = shots.shot(i)
        want_state = unframe(ref[4])
        for res, logical in ((single, single.logical_state),
                             (batched, unframe(batched.logical_state))):
            fields = (res.true_eigenvalue, res.reported_outcome,
                      res.bit_flips, res.phase_flips)
            assert fields == ref[:4]
            assert logical.labels == want_state.labels
            assert np.array_equal(logical.data, want_state.data)
        assert shots.reported_outcomes[i] == ref[1]


def test_batched_effective_input_validation():
    errors = PauliChannel.uniform(3, 0.1)
    with pytest.raises(ValueError, match="shape"):
        sample_effective(PLUS_PLUS, errors, np.zeros((4, 6)))
    with pytest.raises(ValueError, match="shape"):
        sample_effective(PLUS_PLUS, errors, np.zeros(7))
    with pytest.raises(ValueError, match="exact"):
        sample_effective(PLUS_PLUS, UnitaryErrorSet.uniform_ratio(3, 0.05),
                         np.zeros((4, 7)))
    empty = sample_effective(PLUS_PLUS, errors, np.zeros((0, 7)))
    assert empty.reported_outcomes.shape == empty.state_index.shape == (0,)
    assert empty.logical_states == ()


def exact_per_shot_reference(state, errors, rng, inject=()):
    """One exact shot simulated qubit by qubit, as before shot batching.

    Returns (true eigenvalue, reported outcome, bit flips, phase flips,
    logical pair state).
    """
    a, b = state.labels
    n = errors.n
    labels = cat_labels(n)
    joint = tensor(state, prepare_even_cat(n, labels))
    joint = apply_gate(joint, "PROBE", a, b, labels[0])

    bit_flips = phase_flips = 0
    if isinstance(errors, PauliChannel):
        flips = rng.random(n) < errors.p
        phases = rng.random(n) < errors.q
        for i in range(n):
            if flips[i]:
                joint = apply_gate(joint, "X", labels[i])
            if phases[i]:
                joint = apply_gate(joint, "Z", labels[i])
        bit_flips, phase_flips = int(flips.sum()), int(phases.sum())
    else:
        for i, matrix in enumerate(errors.matrices()):
            joint = apply_matrix(joint, matrix, labels[i])
    for kind, idx in inject:
        joint = apply_gate(joint, kind, labels[idx])
        if kind == "X":
            bit_flips += 1
        else:
            phase_flips += 1

    reported = 1
    for label in labels:
        joint, rec = measure_operator(joint, z_product(label), rng=rng)
        reported *= rec.outcome
    logical = discard(joint, *labels)

    p_plus = branch_probability(logical, gate("CNOT", a, b), +1)
    if p_plus > 1.0 - 1e-9:
        true = +1
    elif p_plus < 1e-9:
        true = -1
    else:
        true = None  # coherent superposition of the eigenspaces
    return true, reported, bit_flips, phase_flips, logical


def assert_shot_equals(res, ref):
    fields = (res.true_eigenvalue, res.reported_outcome, res.bit_flips, res.phase_flips)
    assert fields == ref[:4]
    assert res.logical_state.labels == ref[4].labels
    np.testing.assert_allclose(res.logical_state.data, ref[4].data, rtol=0, atol=1e-12)


# -- the dense readout walk: the reference for the product-form sampler ------------

def dense_pre_measurement(state, errors, labels, flips, phases, inject):
    """The pair probed into an even cat block, then the readout errors."""
    a, b = state.labels
    cat = prepare_even_cat(len(labels), labels)
    joint = apply_gate(tensor(state, cat), "PROBE", a, b, labels[0])
    if isinstance(errors, PauliChannel):
        for i, label in enumerate(labels):
            if flips[i]:
                joint = apply_gate(joint, "X", label)
            if phases[i]:
                joint = apply_gate(joint, "Z", label)
    else:
        for label, matrix in zip(labels, errors.matrices()):
            joint = apply_matrix(joint, matrix, label)
    for kind, idx in inject:
        joint = apply_gate(joint, kind, labels[idx])
    return joint


def path_block(data, depth, path):
    """View of the entries of an (a, b, c1..cn) state or density matrix whose
    first `depth` readout bits spell `path`, most significant bit first."""
    side = (4, 2**depth, data.shape[0] >> (depth + 2))
    return data.reshape(side * data.ndim)[(slice(None), path, slice(None)) * data.ndim]


def dense_readout_leaves(state, labels, readout, rows):
    """Measure Z on c1..cn in turn for the shots `rows`, sharing equal prefixes.

    Walks the outcome tree depth first, one `sample_outcomes` call per node
    over the node's shots.  Yields (path, rows, post-measurement state) per
    leaf, where bit n-1-k of `path` is set when readout k+1 came out -1.  A
    branch waiting its turn is held as its path's block alone.
    """
    n = len(labels)
    pending = [(0, 0, rows, None)]
    while pending:
        depth, path, rows, block = pending.pop()
        if block is not None:
            state = state._derived(np.zeros_like(state.data))
            path_block(state.data, depth, path)[...] = block
        while depth < n:
            outcomes, branches = sample_outcomes(state, z_product(labels[depth]),
                                                 readout[rows, depth])
            depth += 1
            if len(branches) == 2:
                pending.append((depth, 2 * path + 1, rows[outcomes == -1],
                                path_block(branches.pop(-1)[0].data, depth,
                                           2 * path + 1).copy()))
            (outcome, (state, _)), = branches.items()
            path = 2 * path + (outcome == -1)
            rows = rows[outcomes == outcome]
        yield path, rows, state


def dense_sample_exact(state, errors, uniforms, inject=()):
    """`sample_exact` by simulating the readout block qubit by qubit.

    Shots with the same error pattern share one pre-measurement joint state,
    and the readout is walked as a tree of outcome prefixes.  Returns an
    `ParityShots`; pair states are grouped by their bytes, as the library does.
    """
    a, b = state.labels
    n = errors.n
    labels = cat_labels(n)
    u = np.asarray(uniforms, dtype=np.float64)
    shots = u.shape[0]
    if isinstance(errors, PauliChannel):
        flips, phases, readout = u[:, :n] < errors.p, u[:, n:2 * n] < errors.q, u[:, 2 * n:]
    else:
        flips = phases = np.zeros((shots, n), dtype=bool)
        readout = u
    injected_x = sum(kind == "X" for kind, _ in inject)
    bit_flips = np.count_nonzero(flips, axis=1) + injected_x
    phase_flips = np.count_nonzero(phases, axis=1) + (len(inject) - injected_x)
    # one integer per error pattern: bit i is flip i, bit n + i phase flip i
    codes = np.concatenate((flips, phases), axis=1) @ (1 << np.arange(2 * n, dtype=np.int64))
    _, first_rows, groups = np.unique(codes, return_index=True, return_inverse=True)

    reported = np.zeros(shots, dtype=np.int64)
    state_index = np.zeros(shots, dtype=np.intp)
    logical_states, state_true, index_of = [], [], {}
    for group, row in enumerate(first_rows):
        joint = dense_pre_measurement(state, errors, labels, flips[row], phases[row],
                                      tuple(inject))
        for path, rows, post in dense_readout_leaves(joint, labels, readout,
                                                     np.flatnonzero(groups == group)):
            logical = discard(post, *labels)
            index = index_of.setdefault(logical.data.tobytes(), len(logical_states))
            if index == len(logical_states):
                p_plus = branch_probability(logical, gate("CNOT", a, b), +1)
                state_true.append(+1 if p_plus > 1.0 - 1e-9 else -1 if p_plus < 1e-9 else 0)
                logical_states.append(logical)
            state_index[rows] = index
            reported[rows] = -1 if bin(path).count("1") % 2 else +1
    true = np.array(state_true, dtype=np.int64)[state_index]
    return ParityShots(n, true, reported, bit_flips, phase_flips, state_index,
                       tuple(logical_states))


def assert_shots_match(shots, ref):
    """Equal integer columns and grouping, pair states equal to 1e-12."""
    for name in ("true_eigenvalues", "reported_outcomes", "bit_flips", "phase_flips"):
        np.testing.assert_array_equal(getattr(shots, name), getattr(ref, name), name)
    # the product form may merge pair states that the dense walk keeps apart
    # by rounding, never the reverse
    merged = set(zip(ref.state_index.tolist(), shots.state_index.tolist()))
    assert len(merged) == len(set(ref.state_index.tolist()))
    for i in range(len(shots.true_eigenvalues)):
        np.testing.assert_allclose(shots.logical_states[shots.state_index[i]].data,
                                   ref.logical_states[ref.state_index[i]].data,
                                   rtol=0, atol=1e-12)


# both eigenspaces of the controlled-NOT are populated
SKEWED_PAIR = QuantumState.from_vector(("a", "b"), [1.0, 0.5j, 0.8, -0.3])


@pytest.mark.parametrize("errors, inject", [
    (UnitaryErrorSet.uniform_ratio(4, 0.05), ()),
    (UnitaryErrorSet.uniform_ratio(3, 0.2), (("X", 2),)),
    (PauliChannel.uniform(4, 0.2, q=0.15), ()),
    (PauliChannel.uniform(3, 0.1, q=0.1), (("X", 1), ("Z", 0))),
])
def test_batched_exact_shots_equal_per_shot_calls(errors, inject):
    shots_n = 300
    count = exact_uniform_count(errors)
    shots = sample_exact(SKEWED_PAIR, errors, master_rng(41).random((shots_n, count)),
                         inject)
    rng, ref_rng = master_rng(41), master_rng(41)
    for i in range(shots_n):
        ref = exact_per_shot_reference(SKEWED_PAIR, errors, ref_rng, inject)
        assert_shot_equals(shots.shot(i), ref)
        assert shots.reported_outcomes[i] == ref[1]
        assert shots.true_eigenvalues[i] == (ref[0] or 0)
        single = measure_cnot_noisy(SKEWED_PAIR, errors, mode="exact", rng=rng,
                                    inject=inject)
        assert_shot_equals(single, ref)
    # shots that end in bit-identical pair states share one entry
    assert len(shots.logical_states) == len({s.data.tobytes() for s in shots.logical_states})
    assert len(shots.logical_states) < shots_n
    assert_shots_match(shots, dense_sample_exact(
        SKEWED_PAIR, errors, master_rng(41).random((shots_n, count)), inject))


class ReplayRng:
    """Hands out the entries of one row of uniforms, as `rng.random` would."""

    def __init__(self, row):
        self.row, self.used = np.asarray(row, dtype=np.float64), 0

    def random(self, size=None):
        start = self.used
        self.used += 1 if size is None else size
        return self.row[start] if size is None else self.row[start:self.used]


amplitude = st.floats(-1.0, 1.0)
angle = st.floats(0.0, 2.0 * math.pi)


def draw_exact_case(data, n, density):
    """A pair state, an error model on n bits, injections and rows of uniforms."""
    if density:
        g = np.array(data.draw(st.lists(amplitude, min_size=32, max_size=32), label="g"))
        g = g[:16].reshape(4, 4) + 1j * g[16:].reshape(4, 4)
        state = QuantumState.from_density(("a", "b"), g @ g.conj().T)
    else:
        v = np.array(data.draw(st.lists(amplitude, min_size=8, max_size=8), label="v"))
        state = QuantumState.from_vector(("a", "b"), v[:4] + 1j * v[4:])
    assume(state.trace > 1e-6)
    if data.draw(st.booleans(), label="pauli"):
        prob = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        errors = PauliChannel(data.draw(prob, label="p"), data.draw(prob, label="q"))
    else:
        # rows (A, B, C, D) on the unit sphere, B and D included
        theta, phi, chi = np.array(data.draw(
            st.lists(st.tuples(angle, angle, angle), min_size=n, max_size=n),
            label="angles")).T
        errors = UnitaryErrorSet(np.stack(
            [np.cos(theta), np.sin(theta) * np.cos(phi),
             np.sin(theta) * np.sin(phi) * np.cos(chi),
             np.sin(theta) * np.sin(phi) * np.sin(chi)], axis=1))
    inject = data.draw(st.lists(st.tuples(st.sampled_from("XZ"), st.integers(0, n - 1)),
                                max_size=3), label="inject")
    count = exact_uniform_count(errors)
    # odd multiples of 2^-11: the generated states give Born probabilities
    # such as 0, 1/2 and 1, which the two samplers round to different sides
    # of a draw lying exactly on them
    uniform = st.integers(0, 2**10 - 1).map(lambda j: (2 * j + 1) / 2**11)
    # a density-matrix reference at n = 8 walks 2^20 entries per readout bit
    rows = data.draw(st.lists(st.lists(uniform, min_size=count, max_size=count),
                              min_size=1, max_size=4 if density else 8), label="rows")
    return state, errors, inject, rows


# n is a parameter, not a draw: hypothesis feeds the literal constants of the
# loaded modules into its draws, so a drawn n would shift with the import set
@pytest.mark.parametrize("n", range(1, 11))
@settings(derandomize=True, deadline=None, max_examples=4, database=None)
@given(data=st.data())
def test_batched_exact_shots_equal_reference_on_any_uniforms(n, data):
    state, errors, inject, rows = draw_exact_case(data, n, density=False)
    shots = sample_exact(state, errors, np.array(rows), inject)
    assert_shots_match(shots, dense_sample_exact(state, errors, np.array(rows), inject))
    for i, row in enumerate(rows):
        replay = ReplayRng(row)
        assert_shot_equals(shots.shot(i),
                           exact_per_shot_reference(state, errors, replay, inject))
        assert replay.used == len(row)


# every n up to the dense reference's caps: 14 qubits for a vector, 10 for a
# density matrix
@pytest.mark.parametrize("density, n", [(False, n) for n in range(1, 11)]
                         + [(True, n) for n in range(1, 9)])
@settings(derandomize=True, deadline=None, max_examples=3, database=None)
@given(data=st.data())
def test_batched_exact_shots_equal_dense_reference_at_every_block_size(density, n, data):
    state, errors, inject, rows = draw_exact_case(data, n, density)
    assert_shots_match(sample_exact(state, errors, np.array(rows), inject),
                       dense_sample_exact(state, errors, np.array(rows), inject))


def test_batched_exact_input_validation():
    pauli = PauliChannel.uniform(3, 0.1)
    unitary = UnitaryErrorSet.uniform_ratio(3, 0.05)
    assert exact_uniform_count(pauli) == 9 and exact_uniform_count(unitary) == 3
    with pytest.raises(ValueError, match="shape"):
        sample_exact(PLUS_PLUS, pauli, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="shape"):
        sample_exact(PLUS_PLUS, unitary, np.zeros((4, 9)))
    with pytest.raises(ValueError, match="shape"):
        sample_exact(PLUS_PLUS, unitary, np.zeros(3))
    with pytest.raises(ValueError, match="collide"):
        sample_exact(QuantumState.from_vector(("c1", "b"), [1, 1, 1, 1]), pauli,
                     np.zeros((1, 9)))
    with pytest.raises(ValueError, match="two qubits"):
        sample_exact(QuantumState.basis(("a",), "0"), pauli, np.zeros((1, 9)))
    with pytest.raises(ValueError, match="outside"):
        sample_exact(PLUS_PLUS, pauli, np.zeros((1, 9)), inject=[("X", 3)])
    for errors in (pauli, unitary):
        empty = sample_exact(PLUS_PLUS, errors, np.zeros((0, exact_uniform_count(errors))))
        for column in (empty.reported_outcomes, empty.true_eigenvalues,
                       empty.bit_flips, empty.phase_flips, empty.state_index):
            assert column.shape == (0,)
        assert empty.logical_states == ()


def test_batched_exact_density_state_equals_per_shot_reference():
    # a mixed pair, against the per-shot and the dense references
    rho = (SKEWED_PAIR.to_density().data + np.diag([0.3, 0.1, 0.2, 0.4])) / 2.0
    state = QuantumState.from_density(("a", "b"), rho)
    errors = PauliChannel.uniform(3, 0.2, q=0.1)
    shots = sample_exact(state, errors, master_rng(43).random((60, 9)))
    ref_rng = master_rng(43)
    for i in range(60):
        assert_shot_equals(shots.shot(i), exact_per_shot_reference(state, errors, ref_rng))
    assert_shots_match(shots, dense_sample_exact(state, errors,
                                                 master_rng(43).random((60, 9))))


def test_measurement_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        measure_cnot_noisy(PLUS_PLUS, PauliChannel.uniform(2, 0.1))


def test_effective_mode_rejects_coherent_errors_and_injections():
    coherent = UnitaryErrorSet.uniform_ratio(3, 0.05)
    with pytest.raises(ValueError, match="exact"):
        measure_cnot_noisy(PLUS_PLUS, coherent, rng=master_rng(0))
    with pytest.raises(ValueError, match="exact"):
        measure_cnot_noisy(PLUS_PLUS, PauliChannel.uniform(3, 0.1),
                           rng=master_rng(0), inject=[("X", 0)])


def test_inject_validation():
    errors = PauliChannel.uniform(3, 0.0)
    with pytest.raises(ValueError):
        measure_cnot_noisy(PLUS_PLUS, errors, mode="exact", rng=master_rng(0),
                           inject=[("Y", 0)])
    with pytest.raises(ValueError):
        measure_cnot_noisy(PLUS_PLUS, errors, mode="exact", rng=master_rng(0),
                           inject=[("X", 3)])


# -- noisy measurement: coherent model ------------------------------------------------

def test_coherent_conditional_state_carries_the_flip_angle():
    errors = UnitaryErrorSet.uniform_ratio(4, 0.05)
    sigma = accumulated_flip_angle(errors)
    for t in range(30):
        res = measure_cphase_noisy(PLUS_PLUS, errors, mode="exact",
                                   rng=trial_rng(23, t))
        assert res.true_eigenvalue is None
        if res.reported_outcome == +1:
            tan = math.tan(sigma)
            want = QuantumState.from_vector(("a", "b"), [1, 1, 1, 1j * tan])
            assert fidelity(res.logical_state, want) >= 1.0 - 1e-12
            reading, _ = MixedAncilla.from_state(res.logical_state)
            assert complex(reading.a3).real == pytest.approx(tan * tan, abs=1e-12)
            break
    else:
        pytest.fail("never sampled a +1 report in 30 trials")


# -- raw ancilla preparation -----------------------------------------------------------

def test_raw_preparation_zero_noise():
    errors = PauliChannel.uniform(3, 0.0)
    res = prepare_raw_ancilla(errors, seed=14, trial=0)
    assert res.reported_outcome == +1
    assert res.true_eigenvalue == +1
    pair = QuantumState.from_vector(res.logical_state.labels, [1, 1, 1, 0])
    assert fidelity(res.logical_state, pair) >= 1.0 - 1e-12
    assert complex(res.alpha.a3) == pytest.approx(0.0)


def test_raw_preparation_surfaces_attempts():
    errors = PauliChannel.uniform(2, 0.3)
    seen_retry = False
    for t in range(60):
        res = prepare_raw_ancilla(errors, seed=29, trial=t)
        assert res.reported_outcome == +1
        seen_retry = seen_retry or res.attempts > 1
    assert seen_retry  # P(report -1) is about 1/4 here; retries must occur


def test_raw_preparation_alpha_matches_channel_formula():
    errors = PauliChannel.uniform(8, 0.05)
    res = prepare_raw_ancilla(errors, seed=2, trial=0)
    assert complex(res.alpha.a3).real == pytest.approx(
        alpha3_decoherent(errors).value, abs=1e-12)


def test_raw_preparation_budget():
    # nearly fair readout bits: P(report -1) is close to 1/2, so a seed whose
    # first report came out -1 is easy to find; then starve the retry budget
    errors = PauliChannel.uniform(1, 0.45)
    for seed in range(50):
        if prepare_raw_ancilla(errors, seed=seed, trial=0).attempts > 1:
            with pytest.raises(RuntimeError):
                prepare_raw_ancilla(errors, seed=seed, trial=0, max_retries=1)
            return
    pytest.fail("no retry found")


def test_raw_preparation_unitary_reading():
    errors = UnitaryErrorSet.uniform_ratio(4, 0.05)
    res = prepare_raw_ancilla(errors, mode="exact", seed=33, trial=0)
    sigma = accumulated_flip_angle(errors)
    assert res.true_eigenvalue is None
    assert complex(res.alpha.a3).real == pytest.approx(math.tan(sigma) ** 2,
                                                       abs=1e-9)


def per_attempt_raw_preparation(errors, mode, seed, trial):
    """The raw preparation as one `measure_cphase_noisy` call per attempt on
    `trial_rng(seed, trial)`, until the first +1 report."""
    rng = trial_rng(seed, trial)
    for attempt in range(1, 10_001):
        res = measure_cphase_noisy(PLUS_PLUS, errors, mode=mode, rng=rng)
        if res.reported_outcome == +1:
            return res, attempt
    pytest.fail("no +1 report")


# a seed per config at which some of 24 trials retry past one default block
RAW_PREP_CONFIGS = [
    (PauliChannel.uniform(1, 0.45), "effective", 0),
    (PauliChannel.uniform(3, 0.4, 0.2), "exact", 1),
    (UnitaryErrorSet.uniform_ratio(3, 0.4), "exact", 0),
]


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("errors, mode, seed", RAW_PREP_CONFIGS)
def test_raw_preparation_takes_the_per_attempt_draws(errors, mode, seed, block_rows,
                                                     monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(noisy_meas, "_ATTEMPT_ROWS", block_rows)
    rows = noisy_meas._ATTEMPT_ROWS
    most = 0
    for t in range(24):
        want, attempts = per_attempt_raw_preparation(errors, mode, seed, t)
        got = prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=t)
        assert got.attempts == attempts
        assert (got.reported_outcome, got.true_eigenvalue, got.bit_flips, got.phase_flips) == \
            (want.reported_outcome, want.true_eigenvalue, want.bit_flips, want.phase_flips)
        assert got.logical_state.labels == want.logical_state.labels
        assert got.logical_state.data.tobytes() == want.logical_state.data.tobytes()
        most = max(most, attempts)
    assert most > rows  # some preparation ran past its first block of attempts


@pytest.mark.parametrize("block_rows", [3, None])
@pytest.mark.parametrize("errors, mode, seed", RAW_PREP_CONFIGS)
def test_raw_preparation_examines_exactly_max_retries_rows(errors, mode, seed, block_rows,
                                                           monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(noisy_meas, "_ATTEMPT_ROWS", block_rows)
    trial = next(t for t in range(24)
                 if prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=t).attempts > 8)
    attempts = prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=trial).attempts
    columns = 2 * errors.n + 1 if mode == "effective" else exact_uniform_count(errors)
    read = []

    def recording(*args):
        uniforms = trial_uniforms(*args)
        read.append(uniforms.size // columns)
        return uniforms

    monkeypatch.setattr(noisy_meas, "trial_uniforms", recording)
    for k in range(1, attempts):
        read.clear()
        with pytest.raises(RuntimeError, match=f"no \\+1 report within {k} preparation attempts"):
            prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=trial, max_retries=k)
        assert sum(read) == k
    assert prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=trial,
                               max_retries=attempts).attempts == attempts


# -- fault containment ------------------------------------------------------------------

def test_single_bit_fault_stays_in_its_triple():
    # conjugate a single-qubit X through the full bitwise-probe unitary and
    # verify its support by an operator-Schmidt decomposition: the propagated
    # fault may act anywhere inside its own (a_i, b_i, c_i) triple but must be
    # the identity on the other triple
    n = 2
    a_labels, b_labels = ("a1", "a2"), ("b1", "b2")
    order = ("a1", "b1", "a2", "b2", "c1", "c2")

    u = np.zeros((64, 64), dtype=complex)
    for col in range(64):
        pair = QuantumState.from_vector(("a1", "b1", "a2", "b2"),
                                        np.eye(16)[col >> 2])
        cat = QuantumState.from_vector(cat_labels(n), np.eye(4)[col & 3])
        joint = apply_bitwise_probe(pair, a_labels, b_labels, cat)
        u[:, col] = joint.reordered(order).data

    np.testing.assert_allclose(u @ u.conj().T, np.eye(64), atol=1e-12)

    x_b2 = np.kron(np.kron(np.eye(8), np.array([[0.0, 1.0], [1.0, 0.0]])), np.eye(4))
    prop = u @ x_b2 @ u.conj().T

    # group row/col indices into triple 1 = (a1, b1, c1), triple 2 = (a2, b2, c2)
    t = prop.reshape((2,) * 12)
    t = t.transpose(0, 1, 4, 2, 3, 5, 6, 7, 10, 8, 9, 11).reshape(8, 8, 8, 8)
    schmidt = t.transpose(0, 2, 1, 3).reshape(64, 64)
    w, s, _ = np.linalg.svd(schmidt)
    assert s[1] <= 1e-10 * s[0], "fault leaked outside its triple"
    left = w[:, 0].reshape(8, 8)  # triple-1 factor, up to phase and scale
    left = left / (np.trace(left) / 8.0)
    np.testing.assert_allclose(left, np.eye(8), atol=1e-10)
