"""toffsim: dense simulation and resource calculus for measurement-based
Toffoli gates built from distilled two-qubit ancillas.

Subpackages split along the pipeline: `core` (simulator of qubits named by
plain string labels), `gadgets` (ancilla synthesis and the Toffoli
measurement gadget), `distill` (ancilla purification algebra and costs),
`noisy_meas` (cat-state mediated transversal measurements under errors),
`error_models` (decoherent and coherent error statistics), `concat`
(log-space concatenation estimates).

Importing the package loads no numpy.  `__version__` and `kernel_backend`
are plain constants; the `core` names of `__all__` are looked up in `core`
on every access (PEP 562), so `core`, and numpy with it, load at the first
such access.  Nothing looked up is cached here: reading those names leaves
the package's namespace as it was.
"""

__version__ = "0.1.0"

# The gate kernel's name, as reported in `versions.kernel_backend`; kept here,
# where reading it loads no numpy.
kernel_backend = "python"

__all__ = [
    "GateSpec",
    "MeasurementRecord",
    "PauliOperator",
    "QuantumState",
    "apply_gate",
    "apply_matrix",
    "discard",
    "fidelity",
    "gate",
    "kernel_backend",
    "measure_operator",
    "tensor",
    "__version__",
]


def __getattr__(name):
    # every name of __all__ not bound above is a `core` name
    if name in __all__:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
