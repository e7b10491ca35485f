"""Independent verification of the representation and kernel claims.

Nothing here reuses the closed forms it checks. Uniqueness is an exact
count: every phase point operator has one nonzero entry per row, so each
equation of U Delta_p = Delta_(S.p) U ties two entries of U by a root of
unity, and the solution space is read off a gain graph over integer phases
(verify_uniqueness). The same relation solved as a dense homogeneous linear
system (solve_covariance) is the floating-point cross-check at small N.
Factorizations come from breadth-first search, and the kernel properties
are measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .lattice import EVEN, ODD, check_parity, lattice_modulus
from .metaplectic import apply_point, equal_up_to_phase, hilbert_dim, u_of
from .qops import delta_family, delta_leonhardt, kernel_factors, unit_roots
from .symplectic import (  # noqa: F401  (DepthExceeded, bfs_decompose re-exported)
    DepthExceeded,
    SympMat,
    bfs_decompose,
    check_bytes,
)

SVD_CUTOFF = 1e-9
UNITARY_TOL = 1e-8


def check_dense_bound(what: str, points: int, dim: int) -> None:
    """Refuse a dense computation over ``points`` phase point operators of
    dimension ``dim`` before it starts.

    Raises BoundExceeded (check_bytes) when points * dim^4 complex entries,
    the size of the stacked covariance system, exceed the byte bound. On the
    full grid that admits odd N <= 15 and even N <= 12; the dense kernel
    suite shares the bound.
    """
    size = points * dim**4 * np.dtype(complex).itemsize
    check_bytes(f"{what} of {points} points at dimension {dim}", size)


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
    (points * N^4 complex entries) would exceed the byte bound.
    """
    points = sorted(deltas)
    if not points:
        raise ValueError("empty phase point family")
    dim = deltas[points[0]].shape[0]
    check_dense_bound("covariance system", len(points), dim)
    eye = np.eye(dim)
    blocks = []
    for point in points:
        moved = apply_point(s, point)
        if moved not in deltas:
            raise ValueError(f"family is not closed under the action: missing {moved}")
        blocks.append(np.kron(eye, deltas[point].T) - np.kron(deltas[moved], eye))
    stacked = np.vstack(blocks)
    # rows = points * dim^2 >= dim^2, so stacked = Q R with R square; R has
    # the same singular values and right singular vectors, which carry the
    # whole null space, and the tall left factor is never formed
    _, singular, vh = np.linalg.svd(np.linalg.qr(stacked, mode="r"))
    largest = singular[0] if singular.size else 0.0
    threshold = cutoff * (largest if largest > 0 else 1.0)
    rank = int((singular > threshold).sum())
    basis = [vh[i].conj().reshape(dim, dim) for i in range(rank, dim * dim)]
    unitary = _unitarize(basis[0], unitary_tol) if len(basis) == 1 else None
    return CovarianceSolution(len(basis), basis, unitary, singular)


def _unitarize(candidate: np.ndarray, tol: float) -> np.ndarray | None:
    # Candidates (SVD basis vectors, gain-graph solutions) have unit
    # Frobenius norm; a unitary multiple must be sqrt(dim) times that.
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
    """Measure hermiticity, trace, pairwise traciality and translation covariance.

    Works on the dense kernel stack, so it shares solve_covariance's size
    bound (check_dense_bound): BoundExceeded above odd N = 15 and even N = 12.
    """
    check_parity(n, parity)
    check_dense_bound("kernel suite", lattice_modulus(n, parity) ** 2, n)
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
        # W(m', n')^dag Delta_(m, n) W(m', n') = Delta_(m - m', n - n') for
        # W = weyl_symmetric(n, m', n'): rolling the grid by (m', n') lines
        # each point up with its image. Column t of W has its one nonzero in
        # row t + m', equal to w^(n'(t + m') - m'n'/2), so (W^dag K W)[a, b]
        # is K[a + m', b + m'] times w^(n'(b - a)): one gather per m' serves
        # every n'.
        idx = np.arange(n)
        grid = stack.reshape(n, n, n, n)
        # phases[n', a, b] = w^(n'(b - a))
        phases = unit_roots(n)[(idx[:, None, None] * (idx - idx[:, None])) % n]
        # images[x, n', y] = grid[x, y - n'], the grid rolled by n' along y
        images = grid[:, (idx - idx[:, None]) % n]
        defects = []
        for mp in range(n):
            shift = (idx + mp) % n
            conjugated = grid[:, :, shift[:, None], shift][:, None] * phases[:, None]
            moved = images[(idx - mp) % n]
            defects.append(np.abs(conjugated - moved).max())
        translation = float(np.max(defects))
    return SWKernelReport(parity, n, hermiticity, unit_trace, traciality, translation)


@dataclass(eq=False)
class UniquenessReport:
    """Outcome of re-deriving one representation matrix from covariance alone."""

    nullity: int
    unitary_found: bool
    phase: complex | None
    closed_form_residual: float | None


def _covariance_graph(s: SympMat, parity: str) -> tuple[int, np.ndarray | None]:
    """Exact solution space of U Delta_p = Delta_(S.p) U over every lattice
    point p (the doubled grid on even lattices).

    Returns the nullity and, when it is 1, the solution scaled to unit
    Frobenius norm. Every kernel is monomial: Delta_p[i, sigma_p(i)] =
    rho^(e_p(i)), with sigma_p and e_p read from kernel_factors and rho the
    root of unity of order R = N (odd) or 2N (even). With q = S.p, entry
    (u, sigma_p(w)) of the relation reads

        U[sigma_q(u), sigma_p(w)] = rho^(e_p(w) - e_q(u)) U[u, w],

    an edge (u, w) -> (sigma_q(u), sigma_p(w)) with an integer gain mod R.
    A solution is rho^phi up to scale on each component whose cycles all
    have gain 0 mod R (balanced) and zero on the others, so the nullity is
    the number of balanced components, an exact integer.

    Each point contributes a permutation of the N^2 entries, so every
    component is strongly connected and propagation along the edges alone
    reaches all of it. All points are handled at once: each round, every
    entry takes the smallest component label among its predecessors, with
    the phase carried along that edge; a round that lowers no label ends the
    search, which makes it a breadth-first search from each component's
    smallest entry. That last round also checks every edge against the
    phases found.

    Raises BoundExceeded, before building anything, when the edge arrays
    would exceed the byte bound.
    """
    n = hilbert_dim(s.modulus, parity)
    side = s.modulus
    nodes = n * n
    edges = side * side * nodes
    # A round holds about three int64 words and a flag per edge (26 B
    # measured at the bound); four words leave room for the per-point tables.
    graph_bytes = edges * 4 * np.dtype(np.int64).itemsize
    check_bytes(f"uniqueness graph of {edges} edges at dimension {n}", graph_bytes)
    xs, ys = np.divmod(np.arange(side * side), side)
    xs, ys = xs[:, None], ys[:, None]
    source = kernel_factors(n, parity, xs, ys)
    image = kernel_factors(n, parity, *apply_point(s, (xs, ys)))
    r = source.root_modulus
    # Entry (u', w') has one predecessor per point: (sigma_q^-1(u'),
    # sigma_p^-1(w')), reached with gain e_p(sigma_p^-1(w')) - e_q(sigma_q^-1(u')).
    into_p = np.argsort(source.cols, axis=1)
    into_q = np.argsort(image.cols, axis=1)
    gain_p = np.take_along_axis((source.diag + source.const) % r, into_p, 1)[:, None, :]
    gain_q = np.take_along_axis((image.diag + image.const) % r, into_q, 1)[:, :, None]
    rows, cols = into_q[:, :, None], into_p[:, None, :]

    # Each entry's key is label * R + phase, so a minimum over keys picks
    # the smallest label and carries one phase consistent with it.
    label = np.arange(nodes)
    phase = np.zeros(nodes, dtype=np.int64)
    while True:
        key = (label * r + phase).reshape(n, n)
        offered = key[rows, cols]
        carried = offered % r
        offered -= carried
        carried += gain_p
        carried -= gain_q
        carried %= r
        offered += carried
        best = offered.min(axis=0).reshape(-1)
        lower = best // r < label
        if not lower.any():
            break
        label[lower], phase[lower] = np.divmod(best[lower], r)
    consistent = (offered == key).all(axis=0).reshape(-1)
    balanced = label == np.arange(nodes)
    balanced[label[~consistent]] = False
    roots = np.flatnonzero(balanced)
    if len(roots) != 1:
        return len(roots), None
    support = label == roots[0]
    solution = np.where(support, unit_roots(r)[phase], 0) / np.sqrt(support.sum())
    return 1, solution.reshape(n, n)


def verify_uniqueness(s: SympMat, parity: str, tol: float = 1e-9) -> UniquenessReport:
    """Solve covariance for ``s`` from scratch and compare to the word product.

    The solution space over every lattice point comes from an exact gain
    graph over integer phases (no dense kernel, no singular-value cutoff).
    A one-dimensional space containing a unitary confirms both the
    uniqueness claim and (through the returned phase) agreement with the
    constructive route. Raises BoundExceeded above odd N = 53 and even
    N = 38 (about 32 B per edge, N^2 edges per lattice point).
    """
    nullity, candidate = _covariance_graph(s, parity)
    unitary = _unitarize(candidate, UNITARY_TOL) if candidate is not None else None
    if unitary is None:
        return UniquenessReport(nullity, False, None, None)
    constructed = u_of(s, parity).matrix
    match = equal_up_to_phase(unitary, constructed, tol)
    residual = float(
        np.abs(
            unitary - (match.phase if match.phase is not None else 1.0) * constructed
        ).max()
    )
    return UniquenessReport(nullity, True, match.phase, residual)
