"""Machine-speed reference for timings taken on a shared, drifting host.

On a small shared machine the same operation can take twice as long a
minute later because of load from neighbours.  The benchmark runs this
fixed kernel right before and after each timed operation, for a tenth of
the operation's time, and divides by its time, so a drift that slows
both cancels.  The kernel mixes what the program spends its time on:
Python object churn, many small numpy and LAPACK calls, and ``kron``-built
81x81 matrix products.

Times are reported in seconds at reference speed: the ratio to the kernel
times :data:`REFERENCE_S`, the kernel's median on a 2-vCPU x86-64 VM
(Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread).  A change that
leaves work running in the background between operations would slow the
kernel and so distort the ratio; the benchmark fixes BLAS to one thread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.03

_rng = np.random.default_rng(20231018)


def _unitary(d: int) -> np.ndarray:
    z = _rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


_A9 = [_unitary(9) for _ in range(8)]
_A27, _A81, _U3 = _unitary(27), _unitary(81), _unitary(3)
_I3, _I9 = np.eye(3), np.eye(9)


def _kernel() -> float:
    t = time.perf_counter()
    rows = [(i, i * 0.5, str(i % 7)) for i in range(10000)]
    table = {k: v for k, v, _ in rows}
    worst = 0.0
    for i in range(60):  # many small numpy and LAPACK calls, as factorize makes at n=2
        a = _A9[i % 8]
        np.linalg.svd(a[:3, :3])
        np.linalg.qr(a[3:, :3])
        scipy.linalg.schur(a, output="complex")
        b = np.kron(_I3, a[:3, :3]) @ a
        worst = max(worst, float(np.max(np.abs(b.conj().T @ b - _I9))))
    for _ in range(3):
        np.linalg.svd(_A27[:9, :9])
        scipy.linalg.schur(_A27, output="complex")
    x = np.eye(81, dtype=complex)
    for _ in range(30):  # kron-built gate matrices applied by products, as eval_circuit does
        x = np.kron(np.kron(_I3, _U3), _I9) @ x
    np.linalg.svd(_A81)
    np.linalg.qr(_A81)
    elapsed = time.perf_counter() - t
    if len(table) != 10000 or not (np.isfinite(x).all() and np.isfinite(worst)):
        raise RuntimeError("reference kernel gave a wrong result")
    return elapsed


def reference_seconds(budget: float = 0.0) -> float:
    """Median time of the kernel, run twice and then until ``budget``
    seconds have passed.  A single run jitters by tens of percent."""
    end = time.perf_counter() + budget
    times = [_kernel() for _ in range(2)]
    while time.perf_counter() < end:
        times.append(_kernel())
    return statistics.median(times)
