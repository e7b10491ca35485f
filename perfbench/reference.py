"""Reference routines that gauge the host's speed next to every timed op.

The host is shared: other tenants slow this process by up to 2x for spells
of seconds to minutes, and by a different factor for different kinds of
work (interpreter-bound small-array numpy loops suffer most, LAPACK least).
A run's fastest or median latencies therefore move by 20-60% between runs
of the same code. Each workload has a reference: a fixed routine, made of
numpy and the interpreter alone (never phasepoint), that does the same kind
of work as the workload's ops. The worker runs it just before each op, and
run.py runs the interpreter start just before each set-up, so both see the
same host; a time is then its ratio to the reference's.

``REFERENCE_MS`` turns those ratios back into milliseconds: it is each
reference's typical uncontended time on the host the benchmark was defined
on (2 cores of a shared Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4
with one OpenBLAS thread), about the 5th percentile of over a thousand calls
made over a minute. A change to phasepoint moves the ratios, and so the
reported times; a busier host moves the op and its reference alike.
"""

from __future__ import annotations

import subprocess
import sys

REFERENCE_MS = {"wigner": 2.5, "covariance": 1.7, "oracle": 22.2, "cli": 11.0}


def interpreter_start() -> None:
    """The start of a bare interpreter, as every CLI child and every set-up pays it."""
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


def build(workload: str):
    """The reference routine of ``workload``, with its fixed data.

    numpy is imported here rather than at module level, so that run.py,
    which only needs ``interpreter_start``, stays small: a child's peak RSS
    counts its parent's.
    """
    if workload == "cli":
        return interpreter_start
    import numpy as np

    rng = np.random.default_rng(0)

    def complex_matrix(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if workload == "wigner":
        # One small-array expression per table entry, as in a Wigner transform.
        n = 32
        roots = np.exp(2j * np.pi * np.arange(2 * n) / (2 * n))
        idx = np.arange(n)
        amps = complex_matrix(n)

        def wigner() -> float:
            conj = amps.conj()
            total = 0.0
            for j in range(8):
                base = conj * amps[(j - idx) % n]
                for k in range(2 * n):
                    total += (roots[(2 * k * idx - k * j) % (2 * n)] * base).sum().real
            return total

        return wigner

    if workload == "covariance":
        # U D U^dag - D' over a loop of points, at N = 31.
        unitary = complex_matrix(31, 31)
        deltas = [complex_matrix(31, 31) for _ in range(8)]

        def covariance() -> float:
            adjoint = unitary.conj().T
            worst = 0.0
            for i in range(64):
                moved = unitary @ deltas[i % 8] @ adjoint - deltas[3 * i % 8]
                worst = max(worst, float(np.abs(moved).max()))
            return worst

        return covariance

    if workload == "oracle":
        # Kronecker blocks, the SVD of a tall dense system, and a loop of small
        # conjugations W^dag D W - D', at N = 9, in about the proportions of an
        # odd-N oracle op.
        eye = np.eye(9)
        blocks = [rng.standard_normal((9, 9)) for _ in range(8)]
        system = complex_matrix(1296, 81)
        weyl = complex_matrix(9, 9)
        kernels = [complex_matrix(9, 9) for _ in range(8)]

        def oracle() -> float:
            rows = [np.kron(eye, blocks[i % 8].T) - np.kron(blocks[(i + 1) % 8], eye)
                    for i in range(16)]
            _, singular, _ = np.linalg.svd(system, full_matrices=False)
            adjoint = weyl.conj().T
            worst = 0.0
            for i in range(800):
                moved = adjoint @ kernels[i % 8] @ weyl - kernels[(i + 3) % 8]
                worst = max(worst, float(np.abs(moved).max()))
            return float(singular[0]) + len(rows) + worst

        return oracle

    raise ValueError(f"no reference for workload {workload!r}")
