"""Independent brute-force verification of the representation and kernel claims.

Nothing here reuses the closed forms it checks: covariance is solved as a
homogeneous linear system in the unknown matrix entries, factorizations come
from breadth-first search, and the kernel properties are measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .metaplectic import apply_point, equal_up_to_phase, hilbert_dim, u_of
from .qops import (
    EVEN,
    ODD,
    check_parity,
    delta_family,
    delta_leonhardt,
    weyl_cohendet,
)
from .symplectic import (  # noqa: F401  (DepthExceeded, bfs_decompose re-exported)
    BoundExceeded,
    DepthExceeded,
    SympMat,
    bfs_decompose,
)

SVD_CUTOFF = 1e-9
UNITARY_TOL = 1e-8
# Largest stacked covariance system solve_covariance builds: 256 MiB of
# complex entries admits odd N <= 15 and even N <= 12 on the full grid.
SYSTEM_BYTES_BOUND = 256 * 2**20


@dataclass(eq=False)
class CovarianceSolution:
    """Null space of the stacked covariance constraints for one group element.

    ``basis`` spans all matrices U with U Delta_p = Delta_(S.p) U for every
    point p of the supplied family. ``unitary`` is set only when the space is
    one-dimensional and its generator can be scaled to a unitary; the scaling
    fixes the first entry of significant magnitude to be real positive.
    """

    nullity: int
    basis: list[np.ndarray]
    unitary: np.ndarray | None
    singular_values: np.ndarray = field(repr=False)


def solve_covariance(
    s: SympMat,
    deltas: Mapping[tuple[int, int], np.ndarray],
    cutoff: float = SVD_CUTOFF,
    unitary_tol: float = UNITARY_TOL,
) -> CovarianceSolution:
    """Solve U Delta_p - Delta_(S.p) U = 0 over all points p of ``deltas``.

    The N^2 entries of U are the unknowns; with row-major vectorization each
    point contributes the block kron(I, Delta_p^T) - kron(Delta_(S.p), I).
    The numerical nullity is the number of singular values at or below
    ``cutoff`` relative to the largest one. The point set must be closed
    under the action of ``s`` (its keys are taken mod s.modulus).

    Raises BoundExceeded, before building anything, when the stacked system
    (points * N^4 complex entries) would exceed SYSTEM_BYTES_BOUND bytes.
    """
    points = sorted(deltas)
    if not points:
        raise ValueError("empty phase point family")
    dim = deltas[points[0]].shape[0]
    system_bytes = len(points) * dim**4 * np.dtype(complex).itemsize
    if system_bytes > SYSTEM_BYTES_BOUND:
        raise BoundExceeded(
            f"covariance system of {len(points)} points at dimension {dim} needs "
            f"{system_bytes} bytes, above the bound of {SYSTEM_BYTES_BOUND}"
        )
    eye = np.eye(dim)
    blocks = []
    for point in points:
        moved = apply_point(s, point)
        if moved not in deltas:
            raise ValueError(f"family is not closed under the action: missing {moved}")
        blocks.append(np.kron(eye, deltas[point].T) - np.kron(deltas[moved], eye))
    stacked = np.vstack(blocks)
    # rows = points * dim^2 >= dim^2, so the reduced SVD still carries the
    # complete right-singular basis needed for the null space
    _, singular, vh = np.linalg.svd(stacked, full_matrices=False)
    largest = singular[0] if singular.size else 0.0
    threshold = cutoff * (largest if largest > 0 else 1.0)
    rank = int((singular > threshold).sum())
    basis = [vh[i].conj().reshape(dim, dim) for i in range(rank, dim * dim)]
    unitary = _unitarize(basis[0], unitary_tol) if len(basis) == 1 else None
    return CovarianceSolution(len(basis), basis, unitary, singular)


def _unitarize(candidate: np.ndarray, tol: float) -> np.ndarray | None:
    # SVD basis vectors have unit Frobenius norm; a unitary multiple must be
    # sqrt(dim) times that.
    dim = candidate.shape[0]
    scaled = candidate * np.sqrt(dim)
    defect = np.abs(scaled.conj().T @ scaled - np.eye(dim)).max()
    if defect > tol:
        return None
    flat = scaled.reshape(-1)
    leading = flat[np.abs(flat) > 0.5 / np.sqrt(dim)][0]
    return scaled * (abs(leading) / leading)


def integer_point_family(n: int) -> dict[tuple[int, int], np.ndarray]:
    """Even-lattice kernels restricted to integer points, indexed mod N.

    Keys (m, nn) run over Z_N x Z_N and map to the doubled-coordinate kernel
    at (2m, 2nn). Feeding this family to solve_covariance probes whether the
    unextended modulus-N group alone pins down a representation.
    """
    check_parity(n, EVEN)
    return {
        (m, nn): delta_leonhardt(n, 2 * m, 2 * nn)
        for m in range(n)
        for nn in range(n)
    }


@dataclass(eq=False)
class SWKernelReport:
    """Measured worst-case residuals of the kernel property suite.

    Odd lattices measure all four properties. Even lattices measure
    hermiticity and unit trace on the full doubled grid plus the (not
    asserted) traciality figure; translation covariance has no even-lattice
    counterpart here.
    """

    parity: str
    dim: int
    hermiticity: float
    unit_trace: float
    traciality: float
    translation_covariance: float | None

    def checks(self) -> list[tuple[str, float]]:
        """Name/residual pairs for the properties asserted at this parity."""
        named = [("hermiticity", self.hermiticity), ("unit_trace", self.unit_trace)]
        if self.parity == ODD:
            named.append(("traciality", self.traciality))
            named.append(("translation_covariance", self.translation_covariance))
        return named


def verify_sw_kernel(parity: str, n: int) -> SWKernelReport:
    """Measure hermiticity, trace, pairwise traciality and translation covariance."""
    check_parity(n, parity)
    family = delta_family(n, parity)
    # Sorted points are row-major, so the stack reshapes to the lattice grid.
    stack = np.array([family[p] for p in sorted(family)])
    hermiticity = float(np.abs(stack - stack.conj().transpose(0, 2, 1)).max())
    unit_trace = float(np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).max())

    stackv = stack.reshape(len(stack), -1)
    gram = stackv.conj() @ stackv.T  # Tr(Delta_p^dag Delta_q)
    traciality = float(np.abs(gram - n * np.eye(len(stack))).max())

    translation = None
    if parity == ODD:
        # W(m', n')^dag Delta_(m, n) W(m', n') = Delta_(m - 2m', n - 2n'):
        # rolling the grid by (2m', 2n') lines each point up with its image.
        grid = stack.reshape(n, n, n, n)
        defects = []
        for mp in range(n):
            for np_ in range(n):
                weyl = weyl_cohendet(n, mp, np_)
                moved = np.roll(grid, (2 * mp, 2 * np_), axis=(0, 1)).reshape(stack.shape)
                defects.append(np.abs(weyl.conj().T @ stack @ weyl - moved).max())
        translation = float(np.max(defects))
    return SWKernelReport(parity, n, hermiticity, unit_trace, traciality, translation)


@dataclass(eq=False)
class UniquenessReport:
    """Outcome of re-deriving one representation matrix from covariance alone."""

    nullity: int
    unitary_found: bool
    phase: complex | None
    closed_form_residual: float | None


def verify_uniqueness(s: SympMat, parity: str, tol: float = 1e-9) -> UniquenessReport:
    """Solve covariance for ``s`` from scratch and compare to the word product.

    A one-dimensional solution space containing a unitary confirms both the
    uniqueness claim and (through the returned phase) agreement with the
    constructive route.
    """
    n = hilbert_dim(s.modulus, parity)
    solution = solve_covariance(s, dict(delta_family(n, parity)))
    if solution.unitary is None:
        return UniquenessReport(solution.nullity, False, None, None)
    constructed = u_of(s, parity).matrix
    match = equal_up_to_phase(solution.unitary, constructed, tol)
    residual = float(
        np.abs(
            solution.unitary
            - (match.phase if match.phase is not None else 1.0) * constructed
        ).max()
    )
    return UniquenessReport(solution.nullity, True, match.phase, residual)

