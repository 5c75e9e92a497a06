"""Noisy transversal measurement of two-qubit involutions through cat blocks."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toffsim.core import (
    GATE_MATRICES,
    QuantumState,
    apply_gate,
    branch_probability,
    discard,
    fidelity,
    gate,
    sample_outcomes,
    tensor,
    z_product,
)
from toffsim import noisy_meas
from toffsim.ancilla import MixedAncilla
from toffsim.channels import (
    PauliChannel,
    UnitaryErrorSet,
    accumulated_flip_angle,
    alpha3_decoherent,
    parity_bias,
)
from toffsim.noisy_meas import (
    ParityShots,
    cat_labels,
    measure_cphase_noisy,
    prepare_raw_ancilla,
    sample_cphase,
    sample_effective,
    sample_exact,
    uniform_count,
)
from toffsim.rng import count_cdf, trial_rng, trial_uniforms

from oracles import (
    PROBE,
    apply_bitwise_probe,
    apply_matrix,
    eigenstring_state,
    eigenstring_weight,
    prepare_even_cat,
)

PLUS_PLUS = QuantumState.from_vector(("a", "b"), [1.0, 1.0, 1.0, 1.0])


def expected_cat_after(x, cat_state):
    """Even cat for even-weight strings, odd cat (X on the first bit) otherwise."""
    if eigenstring_weight(x):
        return apply_gate(cat_state, "X", cat_state.labels[0])
    return cat_state


# -- the module's exports ----------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def names_used(path):
    """Every name a module reads, binds by import or spells as a string
    constant (as the benchmark tracer names what it rebinds), outside
    `__all__`; a definition's own name is not a use."""
    tree = ast.parse(path.read_text())
    exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for node in ast.walk(stmt.value)}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in exported:
            used.add(node.value)
    return used


def test_every_readout_export_has_a_caller_outside_the_tests():
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        if not path.name.startswith("test_"):
            used |= names_used(path)
    unused = sorted(set(noisy_meas.__all__) - used)
    assert not unused, f"exported for the tests alone: {unused}"


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
        assert branch_probability(s, gate("CPHASE", "a1", "b1"), eig) == 1.0


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


def cat_readout_distribution(state, labels):
    """Oracle: probabilities of each readout bit string (normalized diagonal)."""
    reduced = discard(state, *(l for l in state.labels if l not in set(labels)))
    reduced = reduced.reordered(labels)
    diag = np.real(np.diagonal(reduced.data)).copy()
    return diag / diag.sum()


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
        res = measure_cphase_noisy(PLUS_PLUS, errors, mode=mode, rng=trial_rng(8, 0))
        assert res.reported_outcome == res.true_eigenvalue
        if res.reported_outcome == +1:
            want = QuantumState.from_vector(("a", "b"), [1, 1, 1, 0])
        else:
            want = QuantumState.basis(("a", "b"), "11")
        assert fidelity(res.logical_state, want) >= 1.0 - 1e-12


@pytest.mark.parametrize("mode, errors", [
    ("effective", PauliChannel.uniform(3, 0.0)),
    ("exact", PauliChannel.uniform(3, 0.0)),
    ("exact", UnitaryErrorSet.uniform_ratio(3, 0.0)),
])
def test_a_noiseless_readout_leaves_the_pair_or_eleven_exactly(mode, errors):
    # every matrix the readout applies to the pair has entries in {0, +-1},
    # so nothing rounds onto |11> after a +1 report, or off it after a -1
    uniforms = trial_uniforms(5, 0, 64, uniform_count(errors, mode))
    shots = sample_cphase(PLUS_PLUS, errors, uniforms, mode=mode)
    assert set(shots.reported_outcomes.tolist()) == {+1, -1}
    for i in range(len(uniforms)):
        res = shots.shot(i)
        assert res.true_eigenvalue == res.reported_outcome
        data = res.logical_state.data  # a vector, or a density matrix
        pair = np.zeros(data.shape, dtype=bool)
        pair[(slice(0, 3),) * data.ndim] = True
        if res.reported_outcome == +1:
            assert not np.any(data[~pair])
            assert len({entry.tobytes() for entry in data[pair]}) == 1
            assert MixedAncilla.from_state(res.logical_state)[0] == MixedAncilla.ideal()
        else:
            eleven = np.zeros(data.shape, dtype=bool)
            eleven[(3,) * data.ndim] = True
            assert not np.any(data[~eleven])
            assert data[eleven] != 0


def test_phase_noise_never_corrupts_the_report():
    errors = PauliChannel.uniform(5, 0.0, q=1.0)  # certain phase flip on every bit
    for t in range(20):
        uniforms = trial_rng(3, t).random((1, uniform_count(errors, "effective")))
        res = sample_effective(PLUS_PLUS, errors, uniforms).shot(0)
        assert res.reported_outcome == res.true_eigenvalue
        assert res.phase_flips == 5


def test_certain_bit_flip_reverses_the_report():
    errors = PauliChannel(np.array([1.0]))  # one readout bit, always flipped
    for mode in ("effective", "exact"):
        res = measure_cphase_noisy(PLUS_PLUS, errors, mode=mode, rng=trial_rng(4, 0))
        assert res.reported_outcome == -res.true_eigenvalue


def certain_errors(errors, inject):
    """`errors` with a certain X or Z on each (kind, bit) of `inject`.

    On a Pauli channel the bit's p (for X) or q (for Z) becomes 1.  On a
    unitary set the bit's unitary U becomes i X U or i Z U, which keeps the
    set's [[A+iB, D+iC], [-D+iC, A-iB]] form.
    """
    if isinstance(errors, PauliChannel):
        p, q = errors.p.copy(), errors.q.copy()
        for kind, bit in inject:
            (p if kind == "X" else q)[bit] = 1.0
        return PauliChannel(p, q)
    m = errors.matrices()
    for kind, bit in inject:
        m[bit] = 1j * GATE_MATRICES[kind] @ m[bit]
    return UnitaryErrorSet(np.stack([m[:, 0, 0].real, m[:, 0, 0].imag,
                                     m[:, 0, 1].imag, m[:, 0, 1].real], axis=1))


def test_injected_x_flips_injected_z_does_not():
    # an injected error is a per-bit channel that applies it with certainty
    errors = PauliChannel.uniform(3, 0.0)
    base = measure_cphase_noisy(PLUS_PLUS, errors, mode="exact", rng=trial_rng(6, 0))
    flipped = measure_cphase_noisy(PLUS_PLUS, certain_errors(errors, [("X", 1)]),
                                   mode="exact", rng=trial_rng(6, 0))
    dephased = measure_cphase_noisy(PLUS_PLUS, certain_errors(errors, [("Z", 0), ("Z", 2)]),
                                    mode="exact", rng=trial_rng(6, 0))
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


def sampled_measurement(state, op, u):
    """One sampled measurement of `op` on the draw u: (renormalized
    post-measurement state, outcome)."""
    outcomes, branches = sample_outcomes(state, op, [u])
    outcome = int(outcomes[0])
    return branches[outcome][0], outcome


def flip_count_law_enumerated(chances):
    """Oracle of a block's flip-count law: P(count = k) summed over all 2^n
    flip patterns, each weighted by its product of per-bit chances, as
    `parity_bias_enumerated` sums them (n <= 12)."""
    chances = np.asarray(chances, dtype=np.float64)
    n = chances.size
    bits = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    probs = np.prod(np.where(bits == 1, chances, 1.0 - chances), axis=1)
    return np.bincount(bits.sum(axis=1), weights=probs, minlength=n + 1)


def count_from_law(law, u):
    """The least count k whose cumulative enumerated probability exceeds u."""
    return next((k for k, c in enumerate(itertools.accumulate(law.tolist())) if u < c),
                len(law) - 1)


def per_shot_reference(state, channel, rng):
    """One effective controlled-phase shot as three draws from the count
    laws: the Born outcome, then the bit-flip and phase-flip counts by
    inversion of their enumerated laws."""
    a, b = state.labels
    post, outcome = sampled_measurement(state, gate("CPHASE", a, b), rng.random())
    bit_flips = count_from_law(flip_count_law_enumerated(channel.p), rng.random())
    phase_flips = count_from_law(flip_count_law_enumerated(channel.q), rng.random())
    reported = -outcome if bit_flips % 2 else outcome
    return outcome, reported, bit_flips, phase_flips, post


@pytest.mark.parametrize("controlled_phase", [False, True])
def test_batched_effective_shots_equal_per_shot_calls(controlled_phase):
    errors = PauliChannel.uniform(8, 0.2, q=0.1)
    # both eigenspaces of the controlled phase are populated
    state = QuantumState.from_vector(("a", "b"), [1.0, 0.5j, 0.8, -0.3])
    columns = uniform_count(errors, "effective")

    def measure(rng):
        # the per-shot call through the controlled-phase readout, or the sampler
        if controlled_phase:
            return measure_cphase_noisy(state, errors, mode="effective", rng=rng)
        return sample_effective(state, errors, rng.random((1, columns))).shot(0)

    rng, ref_rng = trial_rng(31, 0), trial_rng(31, 0)
    singles = [measure(rng) for _ in range(500)]
    refs = [per_shot_reference(state, errors, ref_rng) for _ in range(500)]
    shots = sample_effective(state, errors, trial_rng(31, 0).random((500, columns)))
    assert set(shots.true_eigenvalues.tolist()) == {+1, -1}
    assert len(shots.logical_states) == 2
    for i, (single, ref) in enumerate(zip(singles, refs)):
        for res in (single, shots.shot(i)):
            fields = (res.true_eigenvalue, res.reported_outcome,
                      res.bit_flips, res.phase_flips)
            assert fields == ref[:4]
            assert res.logical_state.labels == ref[4].labels
            assert np.array_equal(res.logical_state.data, ref[4].data)
        assert shots.reported_outcomes[i] == ref[1]


def test_batched_effective_input_validation():
    errors = PauliChannel.uniform(3, 0.1)
    columns = uniform_count(errors, "effective")
    with pytest.raises(ValueError, match="shape"):
        sample_effective(PLUS_PLUS, errors, np.zeros((4, columns - 1)))
    with pytest.raises(ValueError, match="shape"):
        sample_effective(PLUS_PLUS, errors, np.zeros((4, 2 * errors.n + 1)))
    with pytest.raises(ValueError, match="shape"):
        sample_effective(PLUS_PLUS, errors, np.zeros(columns))
    with pytest.raises(ValueError, match="exact"):
        sample_effective(PLUS_PLUS, UnitaryErrorSet.uniform_ratio(3, 0.05),
                         np.zeros((4, columns)))
    empty = sample_effective(PLUS_PLUS, errors, np.zeros((0, columns)))
    assert empty.reported_outcomes.shape == empty.state_index.shape == (0,)
    assert empty.logical_states == ()


# -- the flip counts' exact law ------------------------------------------------------

def pearson_chi2(counts, law):
    """Pearson chi^2 of `counts` against the law `law` on 0..n, with each tail
    pooled into one bin of expectation >= 5; and its degrees of freedom and
    0.999 quantile (Wilson-Hilferty)."""
    total, n = len(counts), len(law) - 1
    law = law.tolist()
    observed = np.bincount(counts, minlength=n + 1)
    lo, hi = 0, n
    while total * sum(law[:lo + 1]) < 5.0:
        lo += 1
    while total * sum(law[hi:]) < 5.0:
        hi -= 1
    expected = [sum(law[:lo + 1])] + law[lo + 1:hi] + [sum(law[hi:])]
    seen = [observed[:lo + 1].sum()] + observed[lo + 1:hi].tolist() + [observed[hi:].sum()]
    chi2 = sum((o - total * e) ** 2 / (total * e) for o, e in zip(seen, expected))
    df = len(expected) - 1
    quantile = df * (1.0 - 2.0 / (9 * df) + 3.090 * math.sqrt(2.0 / (9 * df))) ** 3
    return chi2, df, quantile


# 20,000 shots; bit flips at p, phase flips at q, uniform and not
@pytest.mark.parametrize("p, q", [
    (np.full(10, 0.15), np.full(10, 0.3)),
    (np.linspace(0.02, 0.4, 12), np.linspace(0.5, 0.05, 12)),
])
def test_sampled_flip_counts_follow_the_enumerated_law(p, q):
    channel = PauliChannel(p, q)
    uniforms = trial_uniforms(61, 0, 20_000, uniform_count(channel, "effective"))
    shots = sample_effective(SKEWED_PAIR, channel, uniforms)
    for counts, chances in ((shots.bit_flips, p), (shots.phase_flips, q)):
        chi2, df, quantile = pearson_chi2(counts, flip_count_law_enumerated(chances))
        assert df >= 5
        assert chi2 < quantile
        # negative control: the law of per-bit chances 5% larger is refused
        chi2, _, quantile = pearson_chi2(counts, flip_count_law_enumerated(1.05 * chances))
        assert chi2 > quantile
    # the report flips with the bit-flip count's parity, and with nothing else
    flipped = shots.reported_outcomes != shots.true_eigenvalues
    assert np.array_equal(flipped, shots.bit_flips % 2 == 1)


@pytest.mark.parametrize("p, want", [
    ([0.0, 0.0, 0.0, 0.0], {0}),
    ([1.0, 1.0, 1.0, 1.0], {4}),
    ([1.0, 0.0, 1.0, 0.0], {2}),
    ([1.0, 0.3, 0.0, 1.0], {2, 3}),
])
def test_sure_flips_are_drawn_every_time(p, want):
    channel = PauliChannel(p, p)
    uniforms = trial_uniforms(62, 0, 500, uniform_count(channel, "effective"))
    # the extreme uniforms, 0 and the largest below 1, invert inside the table
    uniforms[:2, 1:] = [[0.0, 0.0], [np.nextafter(1.0, 0.0)] * 2]
    shots = sample_effective(PLUS_PLUS, channel, uniforms)
    for counts in (shots.bit_flips, shots.phase_flips):
        assert set(counts.tolist()) == want


def test_each_channel_count_table_is_built_once(monkeypatch):
    built = []

    def counted(chances):
        built.append(np.array(chances))
        return count_cdf(chances)

    noisy_meas._count_table.cache_clear()
    monkeypatch.setattr(noisy_meas, "count_cdf", counted)
    channel = PauliChannel.uniform(6, 0.1, q=0.2)
    for seed in range(3):
        sample_effective(PLUS_PLUS, channel, trial_uniforms(seed, 0, 40, 3))
    # an equal channel, built anew, reads the same tables
    sample_effective(PLUS_PLUS, PauliChannel.uniform(6, 0.1, q=0.2),
                     trial_uniforms(0, 0, 40, 3))
    assert [b.tolist() for b in built] == [[0.1] * 6, [0.2] * 6]
    # a changed channel never reads a stale table
    sample_effective(PLUS_PLUS, PauliChannel.uniform(6, 0.3, q=0.2), trial_uniforms(0, 0, 40, 3))
    assert len(built) == 3
    noisy_meas._count_table.cache_clear()


def exact_per_shot_reference(state, errors, rng):
    """One exact shot simulated qubit by qubit, as before shot batching.

    Returns (true eigenvalue, reported outcome, bit flips, phase flips,
    logical pair state).
    """
    a, b = state.labels
    n = errors.n
    labels = cat_labels(n)
    joint = tensor(state, prepare_even_cat(n, labels))
    joint = apply_matrix(joint, PROBE, a, b, labels[0])

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

    reported = 1
    for label in labels:
        joint, outcome = sampled_measurement(joint, z_product(label), rng.random())
        reported *= outcome
    logical = discard(joint, *labels)

    p_plus = branch_probability(logical, gate("CPHASE", a, b), +1)
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

def dense_pre_measurement(state, errors, labels, flips, phases):
    """The pair probed into an even cat block, then the readout errors."""
    a, b = state.labels
    cat = prepare_even_cat(len(labels), labels)
    joint = apply_matrix(tensor(state, cat), PROBE, a, b, labels[0])
    if isinstance(errors, PauliChannel):
        for i, label in enumerate(labels):
            if flips[i]:
                joint = apply_gate(joint, "X", label)
            if phases[i]:
                joint = apply_gate(joint, "Z", label)
    else:
        for label, matrix in zip(labels, errors.matrices()):
            joint = apply_matrix(joint, matrix, label)
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


def dense_sample_exact(state, errors, uniforms):
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
    bit_flips = np.count_nonzero(flips, axis=1)
    phase_flips = np.count_nonzero(phases, axis=1)
    # one integer per error pattern: bit i is flip i, bit n + i phase flip i
    codes = np.concatenate((flips, phases), axis=1) @ (1 << np.arange(2 * n, dtype=np.int64))
    _, first_rows, groups = np.unique(codes, return_index=True, return_inverse=True)

    reported = np.zeros(shots, dtype=np.int64)
    state_index = np.zeros(shots, dtype=np.intp)
    logical_states, state_true, index_of = [], [], {}
    for group, row in enumerate(first_rows):
        joint = dense_pre_measurement(state, errors, labels, flips[row], phases[row])
        for path, rows, post in dense_readout_leaves(joint, labels, readout,
                                                     np.flatnonzero(groups == group)):
            logical = discard(post, *labels)
            index = index_of.setdefault(logical.data.tobytes(), len(logical_states))
            if index == len(logical_states):
                p_plus = branch_probability(logical, gate("CPHASE", a, b), +1)
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


# both eigenspaces of the controlled phase are populated
SKEWED_PAIR = QuantumState.from_vector(("a", "b"), [1.0, 0.5j, 0.8, -0.3])


@pytest.mark.parametrize("errors, inject", [
    (UnitaryErrorSet.uniform_ratio(4, 0.05), ()),
    (UnitaryErrorSet.uniform_ratio(3, 0.2), (("X", 2),)),
    (PauliChannel.uniform(4, 0.2, q=0.15), ()),
    (PauliChannel.uniform(3, 0.1, q=0.1), (("X", 1), ("Z", 0))),
])
def test_batched_exact_shots_equal_per_shot_calls(errors, inject):
    errors = certain_errors(errors, inject)
    shots_n = 300
    count = uniform_count(errors, "exact")
    shots = sample_exact(SKEWED_PAIR, errors, trial_rng(41, 0).random((shots_n, count)))
    rng, ref_rng = trial_rng(41, 0), trial_rng(41, 0)
    for i in range(shots_n):
        ref = exact_per_shot_reference(SKEWED_PAIR, errors, ref_rng)
        assert_shot_equals(shots.shot(i), ref)
        assert shots.reported_outcomes[i] == ref[1]
        assert shots.true_eigenvalues[i] == (ref[0] or 0)
        single = sample_exact(SKEWED_PAIR, errors, rng.random((1, count))).shot(0)
        assert_shot_equals(single, ref)
    # shots that end in bit-identical pair states share one entry
    assert len(shots.logical_states) == len({s.data.tobytes() for s in shots.logical_states})
    assert len(shots.logical_states) < shots_n
    assert_shots_match(shots, dense_sample_exact(
        SKEWED_PAIR, errors, trial_rng(41, 0).random((shots_n, count))))


class ReplayRng:
    """Hands out the entries of one row of uniforms, as `rng.random` would."""

    def __init__(self, row):
        self.row, self.used = np.asarray(row, dtype=np.float64), 0

    def random(self, size=None):
        start = self.used
        self.used += 1 if size is None else int(np.prod(size))
        return self.row[start] if size is None else self.row[start:self.used].reshape(size)


amplitude = st.floats(-1.0, 1.0)
angle = st.floats(0.0, 2.0 * math.pi)


def draw_exact_case(data, n, density):
    """A pair state, an error model on n bits and rows of uniforms."""
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
    count = uniform_count(errors, "exact")
    # odd multiples of 2^-11: the generated states give Born probabilities
    # such as 0, 1/2 and 1, which the two samplers round to different sides
    # of a draw lying exactly on them
    uniform = st.integers(0, 2**10 - 1).map(lambda j: (2 * j + 1) / 2**11)
    # a density-matrix reference at n = 8 walks 2^20 entries per readout bit
    rows = data.draw(st.lists(st.lists(uniform, min_size=count, max_size=count),
                              min_size=1, max_size=4 if density else 8), label="rows")
    return state, errors, rows


# n is a parameter, not a draw: hypothesis feeds the literal constants of the
# loaded modules into its draws, so a drawn n would shift with the import set
@pytest.mark.parametrize("n", range(1, 11))
@settings(derandomize=True, deadline=None, max_examples=4, database=None)
@given(data=st.data())
def test_batched_exact_shots_equal_reference_on_any_uniforms(n, data):
    state, errors, rows = draw_exact_case(data, n, density=False)
    shots = sample_exact(state, errors, np.array(rows))
    assert_shots_match(shots, dense_sample_exact(state, errors, np.array(rows)))
    for i, row in enumerate(rows):
        replay = ReplayRng(row)
        assert_shot_equals(shots.shot(i),
                           exact_per_shot_reference(state, errors, replay))
        assert replay.used == len(row)


# every n up to the dense reference's caps: 14 qubits for a vector, 10 for a
# density matrix
@pytest.mark.parametrize("density, n", [(False, n) for n in range(1, 11)]
                         + [(True, n) for n in range(1, 9)])
@settings(derandomize=True, deadline=None, max_examples=3, database=None)
@given(data=st.data())
def test_batched_exact_shots_equal_dense_reference_at_every_block_size(density, n, data):
    state, errors, rows = draw_exact_case(data, n, density)
    assert_shots_match(sample_exact(state, errors, np.array(rows)),
                       dense_sample_exact(state, errors, np.array(rows)))


def test_batched_exact_input_validation():
    pauli = PauliChannel.uniform(3, 0.1)
    unitary = UnitaryErrorSet.uniform_ratio(3, 0.05)
    assert uniform_count(pauli, "exact") == 9 and uniform_count(unitary, "exact") == 3
    # an effective shot draws the Born outcome and two counts, whatever n
    assert uniform_count(pauli, "effective") == uniform_count(unitary, "effective") == 3
    with pytest.raises(ValueError, match="mode"):
        uniform_count(pauli, "dense")
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
    for errors in (pauli, unitary):
        empty = sample_exact(PLUS_PLUS, errors, np.zeros((0, uniform_count(errors, "exact"))))
        for column in (empty.reported_outcomes, empty.true_eigenvalues,
                       empty.bit_flips, empty.phase_flips, empty.state_index):
            assert column.shape == (0,)
        assert empty.logical_states == ()


def test_batched_exact_density_state_equals_per_shot_reference():
    # a mixed pair, against the per-shot and the dense references
    rho = (SKEWED_PAIR.to_density().data + np.diag([0.3, 0.1, 0.2, 0.4])) / 2.0
    state = QuantumState.from_density(("a", "b"), rho)
    errors = PauliChannel.uniform(3, 0.2, q=0.1)
    shots = sample_exact(state, errors, trial_rng(43, 0).random((60, 9)))
    ref_rng = trial_rng(43, 0)
    for i in range(60):
        assert_shot_equals(shots.shot(i), exact_per_shot_reference(state, errors, ref_rng))
    assert_shots_match(shots, dense_sample_exact(state, errors,
                                                 trial_rng(43, 0).random((60, 9))))


def test_measurement_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        measure_cphase_noisy(PLUS_PLUS, PauliChannel.uniform(2, 0.1))


def test_effective_mode_rejects_coherent_errors():
    coherent = UnitaryErrorSet.uniform_ratio(3, 0.05)
    with pytest.raises(ValueError, match="exact"):
        measure_cphase_noisy(PLUS_PLUS, coherent, rng=trial_rng(0, 0))
    with pytest.raises(ValueError, match="exact"):
        sample_cphase(PLUS_PLUS, coherent, np.zeros((1, 7)), mode="effective")


def test_cphase_readout_validation():
    errors = PauliChannel.uniform(3, 0.1)
    with pytest.raises(ValueError, match="mode"):
        sample_cphase(PLUS_PLUS, errors, np.zeros((1, 7)), mode="dense")
    with pytest.raises(ValueError, match="two qubits"):
        sample_cphase(QuantumState.basis(("a",), "0"), errors, np.zeros((1, 7)),
                      mode="effective")
    with pytest.raises(ValueError, match="mode"):
        measure_cphase_noisy(PLUS_PLUS, errors, mode="dense", rng=trial_rng(0, 0))
    with pytest.raises(ValueError, match="mode"):
        prepare_raw_ancilla(errors, mode="dense", seed=0, trial=0)


@pytest.mark.parametrize("density", [False, True])
@pytest.mark.parametrize("errors", [PauliChannel.uniform(3, 0.1),
                                    UnitaryErrorSet.uniform_ratio(3, 0.2)])
def test_an_exact_readout_of_a_zero_norm_pair_is_refused(errors, density):
    zero = QuantumState(("a", "b"), np.zeros((4, 4)) if density else np.zeros(4))
    uniforms = np.zeros((2, uniform_count(errors, "exact")))
    with pytest.raises(ValueError, match="cannot measure a zero-norm state"):
        sample_exact(zero, errors, uniforms)
    with pytest.raises(ValueError, match="cannot measure a zero-norm state"):
        sample_cphase(zero, errors, uniforms, mode="exact")


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


# configs of nearly fair readout bits and a seed each; the tests search the
# seed's first RAW_PREP_SEARCH trials for a preparation that retries past one
# default block of attempts, wherever the stream puts it
RAW_PREP_SEARCH = 400
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
    most = t = 0
    # the first 24 trials, and on until a preparation runs past its first block
    while t < 24 or most <= rows:
        assert t < RAW_PREP_SEARCH, "no preparation ran past its first block"
        want, attempts = per_attempt_raw_preparation(errors, mode, seed, t)
        got = prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=t)
        assert got.attempts == attempts
        assert (got.reported_outcome, got.true_eigenvalue, got.bit_flips, got.phase_flips) == \
            (want.reported_outcome, want.true_eigenvalue, want.bit_flips, want.phase_flips)
        assert got.logical_state.labels == want.logical_state.labels
        assert got.logical_state.data.tobytes() == want.logical_state.data.tobytes()
        most = max(most, attempts)
        t += 1


@pytest.mark.parametrize("block_rows", [3, None])
@pytest.mark.parametrize("errors, mode, seed", RAW_PREP_CONFIGS)
def test_raw_preparation_examines_exactly_max_retries_rows(errors, mode, seed, block_rows,
                                                           monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(noisy_meas, "_ATTEMPT_ROWS", block_rows)
    trial = next(t for t in range(RAW_PREP_SEARCH)
                 if prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=t).attempts > 8)
    attempts = prepare_raw_ancilla(errors, mode=mode, seed=seed, trial=trial).attempts
    columns = uniform_count(errors, mode)
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
