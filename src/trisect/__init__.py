"""trisect: compile n-qutrit unitaries into rotation + GCX/CINC circuits.

The pipeline recursively factors a 3^n x 3^n unitary through nested
cosine-sine and eigenvalue splits (:mod:`trisect.cartan`), emits the
factors as multiplexed-rotation circuits (:mod:`trisect.synth`), and
simplifies the result with local rewrite passes (:mod:`trisect.passes`).
``synthesize`` checks its circuit on eight fixed probe columns, an
estimate of the distance (:func:`trisect.synth.probe_distance`);
``eval_circuit(c)`` simulates the circuit's exact unitary, in runs of
gates on at most three qutrits (:mod:`trisect.circuit`).  The package
root re-exports the documented API; everything else is imported from
its module.
"""

from .cartan import factorize, factorize_stack
from .circuit import Circuit, eval_circuit, parse, serialize
from .linalg import haar_unitary, unitary_distance
from .passes import pass_cancel, pass_fuse_cinc, simplify
from .synth import (
    GateSet,
    SynthesisOptions,
    d_mux_gates,
    single_qutrit_gates,
    synthesize,
    w_mux_gates,
    x_mux_gates,
    z_mux_gates,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "GateSet",
    "SynthesisOptions",
    "d_mux_gates",
    "eval_circuit",
    "factorize",
    "factorize_stack",
    "haar_unitary",
    "parse",
    "pass_cancel",
    "pass_fuse_cinc",
    "serialize",
    "simplify",
    "single_qutrit_gates",
    "synthesize",
    "unitary_distance",
    "w_mux_gates",
    "x_mux_gates",
    "z_mux_gates",
    "__version__",
]
