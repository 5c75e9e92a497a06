"""Dense reference constructions that the tests compare the library against.

None of these runs on a report path.  The cat-block readout is built here as
a dense state, so that the product-form sampler of `noisy_meas` can be
checked against it qubit by qubit: the even cat, the per-pair controlled-phase
eigenstates, and the probe coupling each pair to its readout bit.  Every
matrix is applied through `core._apply_matrix_to_axes`, the path
`apply_gate` takes, so a reference built here has the bits that a named
gate would give.  `corrected_choi_map` is the corrected branch map by one
run of the gadget on the Choi state, the oracle of
`gadgets.corrected_branch_map`.  `full_scan_defect_law` builds a block
ensemble's count law reading every count from 0, the reference for
`error_models._defect_law`, which skips the counts below the first of
positive weight.  `argparse_parser` is the command line as argparse parsed
it, the reference that `cli._parse_args` is checked against.
"""

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from toffsim import error_models, gadgets
from toffsim.channels import _alpha3_from_bias
from toffsim.core import (
    GATE_MATRICES,
    MAX_PURE_QUBITS,
    QuantumState,
    _apply_matrix_to_axes,
    tensor,
)
from toffsim.noisy_meas import cat_labels


def apply_matrix(state: QuantumState, matrix, *targets: str) -> QuantumState:
    """Apply an arbitrary 2^k x 2^k matrix to the k target qubits."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    if not targets:
        raise ValueError("at least one target qubit required")
    dim = 2 ** len(targets)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not fit {len(targets)} qubits")
    axes = [state.axis(t) for t in targets]
    return _apply_matrix_to_axes(state, m, axes)


# Three-qubit probe: flips the third qubit exactly when the first two sit in
# |11>, the -1 eigenstate of CPHASE; that is the Toffoli.
PROBE = GATE_MATRICES["TOFFOLI"]

# the per-pair CPHASE eigenstates: |00>, |01>, |10> (+1) and |11> (-1)
_EIGENSTATE_BITS = {"1": "00", "2": "01", "3": "10", "4": "11"}


def eigenstring_weight(x: str) -> int:
    """Parity (0 or 1) of the number of '4' symbols: the -1 eigenstate count.

    A string over {1,2,3,4} names a product of per-pair controlled-phase
    eigenstates; the joint bitwise-probe eigenvalue is (-1)**weight.
    """
    if not x:
        raise ValueError("eigenstring must be non-empty")
    bad = set(x) - set("1234")
    if bad:
        raise ValueError(f"invalid eigenstring symbols: {sorted(bad)}")
    return x.count("4") % 2


def eigenstring_state(x: str,
                      a_labels: Optional[Sequence[str]] = None,
                      b_labels: Optional[Sequence[str]] = None) -> QuantumState:
    """Product of per-pair eigenstates |x_i> on pairs (a_i, b_i).

    Symbols: '1' -> |00>, '2' -> |01>, '3' -> |10> (the three +1
    eigenstates), '4' -> |11> (the -1 eigenstate).
    """
    n = len(x)
    eigenstring_weight(x)  # validation
    a_labels = tuple(a_labels) if a_labels else tuple(f"a{i+1}" for i in range(n))
    b_labels = tuple(b_labels) if b_labels else tuple(f"b{i+1}" for i in range(n))
    if len(a_labels) != n or len(b_labels) != n:
        raise ValueError("need one (a, b) label pair per symbol")
    state = None
    for i, symbol in enumerate(x):
        pair = QuantumState.basis((a_labels[i], b_labels[i]), _EIGENSTATE_BITS[symbol])
        state = pair if state is None else tensor(state, pair)
    return state


def prepare_even_cat(n: int, labels: Optional[Sequence[str]] = None) -> QuantumState:
    """Equal superposition of all even-weight n-bit strings (normalized)."""
    if n < 1:
        raise ValueError("cat block needs at least one bit")
    if n > MAX_PURE_QUBITS:
        raise ValueError(f"exact cat of {n} bits exceeds the {MAX_PURE_QUBITS}-qubit cap")
    labels = cat_labels(n) if labels is None else tuple(labels)
    idx = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        parity ^= (idx >> bit) & 1
    vec = np.where(parity == 0, 1.0, 0.0) / math.sqrt(2.0 ** (n - 1))
    return QuantumState.from_vector(labels, vec)


def apply_bitwise_probe(pair_state: QuantumState,
                        a_labels: Sequence[str], b_labels: Sequence[str],
                        cat: QuantumState) -> QuantumState:
    """Couple n pairs to an n-bit cat block, one probe per (a_i, b_i, c_i).

    Each probe touches only its own triple, so a fault on one qubit can
    spread to at most one qubit in each of the other two blocks.
    """
    a_labels, b_labels = tuple(a_labels), tuple(b_labels)
    if not len(a_labels) == len(b_labels) == cat.n_qubits:
        raise ValueError("label blocks must match the cat size")
    joint = tensor(pair_state, cat)
    for a, b, c in zip(a_labels, b_labels, cat.labels):
        joint = apply_matrix(joint, PROBE, a, b, c)
    return joint


def corrected_choi_map(branch: gadgets.BranchKey, corrections: Sequence[str]) -> np.ndarray:
    """One postselected gadget branch with `corrections`, as an (8, 64) array.

    One run of the gadget with the ideal ancilla on the Choi state,
    postselecting `branch`, then `corrections` on the data qubits.  Row j is
    the unnormalized output over A, B, C, a, b, c for the input |j>.  With
    the table's corrections, every entry is 0 or +-1/2 and each column holds
    at most one nonzero, so `vec @ map` is exact: it equals a one-input
    `toffoli_gadget` run's output bit for bit.
    """
    state = tensor(gadgets._choi_state(), gadgets.toffoli_ancilla_target(gadgets.ANCILLA_LABELS))
    state = gadgets._run_gadget_circuit(state, branch, gadgets.DATA_LABELS,
                                        gadgets.ANCILLA_LABELS)[0]
    return gadgets._corrected(state, corrections, gadgets.DATA_LABELS).data.reshape(8, 64)


def _binomial_weight(n: int, k: int, frac: float) -> float:
    """C(n, k) frac^k (1 - frac)^(n - k), through lgamma; exact at frac 0 and 1."""
    if frac == 0.0:
        return 1.0 if k == 0 else 0.0
    if frac == 1.0:
        return 1.0 if k == n else 0.0
    log_weight = (math.lgamma(n + 1) - math.lgamma(k + 1)
                  - math.lgamma(n - k + 1)
                  + k * math.log(frac) + (n - k) * math.log1p(-frac))
    return math.exp(log_weight)


def full_scan_defect_law(ensemble) -> "error_models._DefectLaw":
    """`error_models._defect_law(ensemble)`, built by reading the weight of
    every count from 0 up to the last of positive weight past the mode."""
    n, two_point = ensemble.n, ensemble.model == "unitary"
    frac = 0.5 if two_point else ensemble.defect_fraction
    good, bad = 1.0 - 2.0 * ensemble.p, 1.0 - 2.0 * ensemble.defect_p
    theta = math.atan(math.sqrt(ensemble.p))
    counts, weights, logs = [], [], []
    expected = 0.0
    for k in range(n + 1):
        weight = _binomial_weight(n, k, frac)
        if weight == 0.0:
            if k > n * frac:  # past the mode of a unimodal law, no weight is left
                break
            continue
        if two_point:
            tangent = abs(math.tan((n - 2 * k) * theta))
            logs.append(math.log(tangent) if tangent else -math.inf)
        else:
            logs.append(math.log(_alpha3_from_bias(good ** (n - k) * bad**k)))
        counts.append(k)
        weights.append(weight)
        expected += weight * logs[-1]
    cdf = np.minimum(np.cumsum(weights), 1.0)
    cdf[-1] = 1.0
    return error_models._DefectLaw(np.array(counts), np.array(weights), np.array(logs),
                                   cdf, expected)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (config error), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def argparse_parser() -> argparse.ArgumentParser:
    """The toffsim command line as an argparse parser."""
    # the flags every subcommand takes, added once and shared through `parents`
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--trials", type=int, default=None, help="override the trial count")
    common.add_argument("--out", metavar="PATH", help="write the report here (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--check", action="store_true",
                        help="exit 2 unless all built-in verifications pass")
    parser = _Parser(prog="toffsim",
                     description="Seeded experiments on measurement-based Toffoli "
                                 "gates, ancilla purification, and noisy parity "
                                 "readout.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("toffoli-verify", "branch-complete gadget equivalence against a direct Toffoli"),
        ("distill", "pair-ancilla purification trees, closed forms vs sampling"),
        ("noisy-meas", "noisy cat-block parity measurement statistics"),
        ("ensemble", "block-ensemble fidelity or log-tangent statistics"),
        ("estimate", "log-space concatenation schedules"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name == "toffoli-verify":
            p.add_argument("--corrupt-branch", metavar="M1,M2,M3", default=None,
                           help="negative control: corrupt this branch's correction")
    return parser
