"""Independent verification of the representation and kernel claims.

Nothing here reuses the closed forms it checks. Every phase point operator
is monomial, Delta_p[i, sigma_p(i)] = rho^(e_p(i)), so the exact oracles
read the integer tables of kernel_factors and build no dense kernel:
uniqueness is the solution count of a gain graph over integer phases
(verify_uniqueness), and the kernel properties are table identities
(verify_sw_kernel), translation at the two Weyl generators, which give
every shift. The floating-point cross-check at small N, solve_covariance,
stacks the covariance relation as a linear system over any point family and
solves it one connected block of unknowns at a time, a QR factorization and
an SVD per block. The factorization oracle, breadth-first search, is
symplectic.bfs_decompose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .lattice import EVEN, ODD, check_parity, hilbert_dim, lattice_modulus
from .metaplectic import apply_point, equal_up_to_phase, u_of
from .qops import delta_at, kernel_factors, unit_roots
from .symplectic import SympMat, check_bytes

SVD_CUTOFF = 1e-9
UNITARY_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9


def _check_table_bytes(what: str, n: int, parity: str) -> None:
    """Refuse ``what`` above 4 int64 words per (lattice point, matrix entry)
    pair: odd N <= 53, even N <= 38. (The uniqueness graph measured 26 B.)"""
    pairs = lattice_modulus(n, parity) ** 2 * n * n
    size = pairs * 4 * np.dtype(np.int64).itemsize
    check_bytes(f"{what} over {pairs} (point, entry) pairs at dimension {n}", size)


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
    s: SympMat, deltas: Mapping[tuple[int, int], np.ndarray]
) -> CovarianceSolution:
    """Solve U Delta_p - Delta_(S.p) U = 0 over all points p of ``deltas``.

    The N^2 entries of U are the unknowns; with row-major vectorization each
    point contributes the block kron(I, Delta_p^T) - kron(Delta_(S.p), I),
    written straight into a (points, N, N, N, N) array. A row couples only
    the unknowns it is nonzero on (NaN counts as nonzero), so up to a
    permutation the system is block diagonal over the connected components
    of that pattern, and its singular values are the union of the blocks'.
    Each component's rows (all-zero rows dropped) get a QR factorization and
    an SVD of the triangular factor; a block with fewer rows than unknowns,
    an unknown no row touches included, has its missing singular values
    counted as zeros. The numerical nullity is the number of the N^2 values
    at or below SVD_CUTOFF relative to the largest one. The basis is each
    component's null vectors, components in order of their smallest
    unknown. The point set must be closed under the action of ``s`` (its
    keys are taken mod s.modulus).

    Raises BoundExceeded, before building anything, when the stacked system
    (points * N^4 complex entries) would exceed the byte bound: above odd
    N = 15 and even N = 12 on the full grid.
    """
    points = sorted(deltas)
    if not points:
        raise ValueError("empty phase point family")
    dim = deltas[points[0]].shape[0]
    size = len(points) * dim**4 * np.dtype(complex).itemsize
    check_bytes(f"covariance system of {len(points)} points at dimension {dim}", size)
    images = []
    for point in points:
        moved = apply_point(s, point)
        if moved not in deltas:
            raise ValueError(f"family is not closed under the action: missing {moved}")
        images.append(deltas[moved])
    source = np.stack([deltas[point] for point in points])
    system = np.zeros((len(points), dim, dim, dim, dim), dtype=complex)
    diag = np.arange(dim)
    # row (p, i, j), column (k, l): Delta_p[l, j] where k = i, minus
    # Delta_(S.p)[i, k] where l = j
    system[:, diag, :, diag, :] = source.transpose(0, 2, 1)
    system[:, :, diag, :, diag] -= np.stack(images)
    unknowns = dim * dim
    system = system.reshape(-1, unknowns)
    column_label, row_label = _components(system != 0)
    blocks = []
    for root in np.unique(column_label):
        columns = np.flatnonzero(column_label == root)
        if columns.size == unknowns:
            block = system
        else:
            block = system[np.ix_(np.flatnonzero(row_label == root), columns)]
        _, singular, vh = np.linalg.svd(np.linalg.qr(block, mode="r"))
        blocks.append((columns, singular, vh))
    found = np.concatenate([values for _, values, _ in blocks])
    singular = np.sort(np.pad(found, (0, unknowns - found.size)))[::-1]
    threshold = SVD_CUTOFF * (singular[0] if singular[0] > 0 else 1.0)
    basis = []
    for columns, values, vh in blocks:
        for row in vh[int((values > threshold).sum()) :]:
            vector = np.zeros(unknowns, dtype=complex)
            vector[columns] = row.conj()
            basis.append(vector.reshape(dim, dim))
    unitary = _unitarize(basis[0]) if len(basis) == 1 else None
    return CovarianceSolution(len(basis), basis, unitary, singular)


def _components(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of a (rows, unknowns) nonzero pattern, where a
    row joins every unknown it touches: each unknown's label (the smallest
    unknown of its component) and each row's label (-1 for an all-zero row).

    Two unknowns are adjacent when some row touches both; labels spread by
    taking the smallest label among neighbours, then jumping to the label's
    own label, until a round changes nothing.
    """
    touched = pattern.astype(np.float32)
    adjacent = (touched.T @ touched) > 0
    np.fill_diagonal(adjacent, True)
    label = np.arange(pattern.shape[1])
    while True:
        reached = np.where(adjacent, label, label.size).min(axis=1)
        reached = reached[reached]
        if (reached == label).all():
            break
        label = reached
    rows = np.where(pattern.any(axis=1), label[pattern.argmax(axis=1)], -1)
    return label, rows


def _unitarize(candidate: np.ndarray) -> np.ndarray | None:
    # Candidates (SVD basis vectors, gain-graph solutions) have unit
    # Frobenius norm; a unitary multiple must be sqrt(dim) times that.
    # A NaN defect fails the comparison, so a NaN entry gives None.
    dim = candidate.shape[0]
    scaled = candidate * np.sqrt(dim)
    defect = np.abs(scaled.conj().T @ scaled - np.eye(dim)).max()
    if not defect <= UNITARY_TOL:
        return None
    flat = scaled.reshape(-1)
    leading = flat[np.abs(flat) > 0.5 / np.sqrt(dim)][0]
    return scaled * (abs(leading) / leading)


def integer_point_family(n: int) -> dict[tuple[int, int], np.ndarray]:
    """Even-lattice kernels restricted to integer points, indexed mod N.

    Keys (m, nn) run over Z_N x Z_N and map to the doubled-coordinate kernel
    at (2m, 2nn). Feeding this family to solve_covariance probes whether the
    unextended modulus-N group alone pins down a representation. Its 16 N^4
    bytes are refused before anything is built above N = 64.
    """
    check_parity(n, EVEN)
    size = n**4 * np.dtype(complex).itemsize
    check_bytes(f"integer point family of {n * n} points at dimension {n}", size)
    return {
        (m, nn): delta_at(n, EVEN, (2 * m, 2 * nn))
        for m in range(n)
        for nn in range(n)
    }


@dataclass(eq=False)
class SWKernelReport:
    """Measured worst-case residuals of the kernel property suite.

    Odd lattices measure all four properties. Even lattices measure
    hermiticity and unit trace on the full doubled grid, the integer trace
    (the deviation of Tr Delta_(j,k) from 2 where j and k are both even and
    from 0 elsewhere) and the (not asserted) traciality figure; translation
    covariance has no even-lattice counterpart here.
    """

    parity: str
    dim: int
    hermiticity: float
    unit_trace: float
    traciality: float
    translation_covariance: float | None
    integer_trace: float | None

    def checks(self) -> list[tuple[str, float]]:
        """Name/residual pairs for the properties asserted at this parity."""
        named = [("hermiticity", self.hermiticity), ("unit_trace", self.unit_trace)]
        if self.parity != ODD:
            return named + [("integer_trace", self.integer_trace)]
        named.append(("traciality", self.traciality))
        named.append(("translation_covariance", self.translation_covariance))
        return named


def verify_sw_kernel(parity: str, n: int) -> SWKernelReport:
    """Measure hermiticity, trace, pairwise traciality and translation covariance.

    Read from the kernel_factors tables sigma_p (cols) and e_p (exponents),
    with a_p(i) = rho^(e_p(i)) in row i: hermiticity is |a(i) -
    [sigma(sigma(i)) = i] conj(a(sigma(i)))|, the trace sums a(i) over the
    fixed points of sigma (on even lattices also compared with 2 at integer
    points and 0 at the others), and Tr(Delta_p^dag Delta_q) sums
    conj(a_p) a_q over the rows where sigma_p and sigma_q agree. Any two permutations must
    agree on every row or on none (else ValueError), so the Gram matrix is
    block diagonal over the classes of equal permutations. Translation
    (_weyl_generator_defect) compares each kernel with its image under the
    two Weyl generators, O(N^3); BoundExceeded above odd N = 53 and even
    N = 38.
    """
    _check_table_bytes("kernel suite", n, parity)
    side = lattice_modulus(n, parity)
    xs, ys = np.divmod(np.arange(side * side), side)
    factors = kernel_factors(n, parity, xs[:, None], ys[:, None])
    cols, exponents = factors.cols, factors.exponents
    values = unit_roots(factors.root_modulus)[exponents]
    rows = np.arange(n)
    involution = np.take_along_axis(cols, cols, 1) == rows
    mirrored = np.take_along_axis(values, cols, 1).conj()
    hermiticity = float(np.abs(values - np.where(involution, mirrored, 0)).max())
    trace = np.where(cols == rows, values, 0).sum(axis=1)
    unit_trace = float(np.abs(trace - 1.0).max())
    integer_trace = None
    if parity != ODD:
        integer_point = (xs % 2 == 0) & (ys % 2 == 0)
        integer_trace = float(np.abs(trace - np.where(integer_point, 2.0, 0.0)).max())
    perms, label = np.unique(cols, axis=0, return_inverse=True)
    if (np.diff(np.sort(perms, axis=0), axis=0) == 0).any():
        raise ValueError("two kernel permutations agree on some rows but not all")
    blocks = (values[label == c] for c in range(len(perms)))
    traciality = float(np.max([np.abs(b.conj() @ b.T - n * np.eye(len(b))).max() for b in blocks]))
    translation = _weyl_generator_defect(cols, exponents) if parity == ODD else None
    return SWKernelReport(
        parity, n, hermiticity, unit_trace, traciality, translation, integer_trace
    )


def _weyl_generator_defect(cols: np.ndarray, exponents: np.ndarray) -> float:
    """max |W^dag Delta_(x,y) W - Delta_(x-m',y-n')| over every point, from the
    odd tables indexed [x * N + y, row], for the Weyl generators (m', n') =
    (1, 0) and (0, 1); conjugation drops phases, so they decide every shift.

    For (1, 0), row a is row a + 1 of Delta_p moved one column left; for
    (0, 1), row a keeps column sigma_p(a) and its exponent gains sigma_p(a) - a.
    Exponents are summed mod N before the lookup, so a true table gives 0.
    Where the columns differ, the defect is the larger modulus of the two.
    """
    n = cols.shape[1]
    cols, exponents = cols.reshape(n, n, n), exponents.reshape(n, n, n)
    roots = unit_roots(n)
    worst = []
    for axis, moved_cols, moved_exponents in [
        (0, (np.roll(cols, -1, 2) - 1) % n, np.roll(exponents, -1, 2)),
        (1, cols, (exponents + cols - np.arange(n)) % n),
    ]:
        # the image of (x, y) sits one step back on the generator's axis
        moved, image = roots[moved_exponents], roots[np.roll(exponents, 1, axis)]
        apart = moved_cols != np.roll(cols, 1, axis)
        defect = np.where(apart, np.maximum(abs(moved), abs(image)), abs(moved - image))
        worst.append(defect.max())
    return float(np.max(worst))


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
    (one edge per point and entry of U) would exceed _check_table_bytes.
    """
    n = hilbert_dim(s.modulus, parity)
    side = s.modulus
    nodes = n * n
    _check_table_bytes("uniqueness graph", n, parity)
    xs, ys = np.divmod(np.arange(side * side), side)
    xs, ys = xs[:, None], ys[:, None]
    source = kernel_factors(n, parity, xs, ys)
    image = kernel_factors(n, parity, *apply_point(s, (xs, ys)))
    r = source.root_modulus
    # Entry (u', w') has one predecessor per point: (sigma_q^-1(u'),
    # sigma_p^-1(w')), reached with gain e_p(sigma_p^-1(w')) - e_q(sigma_q^-1(u')).
    into_p = np.argsort(source.cols, axis=1)
    into_q = np.argsort(image.cols, axis=1)
    gain_p = np.take_along_axis(source.exponents, into_p, 1)[:, None, :]
    gain_q = np.take_along_axis(image.exponents, into_q, 1)[:, :, None]
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


def verify_uniqueness(s: SympMat, parity: str) -> UniquenessReport:
    """Solve covariance for ``s`` from scratch and compare to the word product.

    The solution space over every lattice point comes from an exact gain
    graph over integer phases (no dense kernel, no singular-value cutoff).
    A one-dimensional space containing a unitary confirms both the
    uniqueness claim and (through the returned phase) agreement with the
    constructive route, u_of's product along the four-factor word. Raises
    BoundExceeded above odd N = 53 and even N = 38 (about 32 B per edge,
    N^2 edges per lattice point).
    """
    nullity, candidate = _covariance_graph(s, parity)
    unitary = _unitarize(candidate) if candidate is not None else None
    if unitary is None:
        return UniquenessReport(nullity, False, None, None)
    constructed = u_of(s, parity).matrix
    match = equal_up_to_phase(unitary, constructed, CLOSED_FORM_TOL)
    phase = match.phase if match.phase is not None else 1.0
    residual = float(np.abs(unitary - phase * constructed).max())
    return UniquenessReport(nullity, True, match.phase, residual)
