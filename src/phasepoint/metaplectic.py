"""Projective unitary representation of Sp_M covariant with the phase point operators.

The defining relation is U(S) Delta_p U(S)^dag = Delta_(S.p) at every lattice
point p. The generators have closed forms: on odd lattices

    U(h+)[i, k] = w^((i-k)(i-k+N)/2) / sqrt(N),   U(h-) = diag w^(i(i+N)/2),

with all exponents exact integers mod N, and on even lattices

    U(h+)[i, k] = wt^((i-k)^2) / sqrt(N),         U(h-) = diag wt^(i^2),

with wt = exp(2 pi i / 2N) and exponents mod 2N. For even lattices the
unitaries act on the N-dimensional space while the symplectic indices live
mod 2N; the doubled modulus is pure phase-point bookkeeping. Arbitrary
elements are represented through their generator words, which fixes U(S)
only up to a global phase; no phase gauge is imposed, and comparisons go
through equal_up_to_phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import EVEN, ODD, check_parity, lattice_modulus
from .qops import kernel_factors, unit_roots
from .symplectic import SympMat, check_bytes, decompose


class ParityMismatch(ValueError):
    """Dimension, modulus and lattice parity are inconsistent."""


class DimensionMismatch(ValueError):
    """Matrix or state dimensions disagree."""


@dataclass(frozen=True, eq=False)
class ProjUnitary:
    """A unitary defined up to global phase, tagged with its lattice bookkeeping."""

    matrix: np.ndarray
    parity: str
    modulus: int

    def __post_init__(self):
        # a copy: freezing the caller's own array would be a side effect
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def hilbert_dim(modulus: int, parity: str) -> int:
    """Hilbert-space dimension for a symplectic modulus: N odd, or N = modulus/2 even."""
    if parity == ODD:
        if modulus % 2 == 0:
            raise ParityMismatch(f"odd parity needs an odd modulus, got {modulus}")
        return modulus
    if parity == EVEN:
        # N even and modulus = 2N forces modulus divisible by 4.
        if modulus % 4 != 0:
            raise ParityMismatch(
                f"even parity needs a doubled modulus 2N with N even, got {modulus}"
            )
        return modulus // 2
    raise ParityMismatch(f"parity must be 'odd' or 'even', got {parity!r}")


def u_hplus(n: int, parity: str) -> ProjUnitary:
    """Closed-form representative of the upper triangular generator."""
    check_parity(n, parity)
    i = np.arange(n).reshape(-1, 1)
    k = np.arange(n).reshape(1, -1)
    diff = i - k
    if parity == ODD:
        # diff and diff+N have opposite parity, so the product is even.
        exponents = (diff * (diff + n)) // 2 % n
        matrix = unit_roots(n)[exponents] / np.sqrt(n)
    else:
        exponents = (diff * diff) % (2 * n)
        matrix = unit_roots(2 * n)[exponents] / np.sqrt(n)
    return ProjUnitary(matrix, parity, lattice_modulus(n, parity))


def u_hminus(n: int, parity: str) -> ProjUnitary:
    """Closed-form representative of the lower triangular generator (diagonal)."""
    check_parity(n, parity)
    i = np.arange(n)
    if parity == ODD:
        exponents = (i * (i + n)) // 2 % n
        matrix = np.diag(unit_roots(n)[exponents])
    else:
        exponents = (i * i) % (2 * n)
        matrix = np.diag(unit_roots(2 * n)[exponents])
    return ProjUnitary(matrix, parity, lattice_modulus(n, parity))


def u_of(s: SympMat, parity: str, method: str = "euclid") -> ProjUnitary:
    """Representative of an arbitrary symplectic element via its generator word.

    The word comes from decompose(); any two words for the same element give
    matrices that agree up to a single global phase.
    """
    n = hilbert_dim(s.modulus, parity)
    word = decompose(s, method=method)
    up = u_hplus(n, parity).matrix
    um = u_hminus(n, parity).matrix
    matrix = np.eye(n, dtype=complex)
    for sign, exponent in word.factors:
        base = up if sign == "+" else um
        matrix = matrix @ np.linalg.matrix_power(base, exponent)
    return ProjUnitary(matrix, parity, s.modulus)


class PhaseMatch(NamedTuple):
    equivalent: bool
    phase: complex | None


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, ProjUnitary):
        return a.matrix
    return np.asarray(a, dtype=complex)


def _phase_fit(a, b) -> tuple[complex, float]:
    """The phase c = Tr(a b^dag) / N and the residual max |a b^dag - c I|."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    product = a @ b.conj().T
    phase = complex(np.trace(product) / a.shape[0])
    return phase, float(np.abs(product - phase * np.eye(a.shape[0])).max())


def equal_up_to_phase(a, b, tol: float = 1e-10) -> PhaseMatch:
    """Test whether a = phase * b for a unit-modulus scalar phase.

    Both arguments must be unitary for the test to be meaningful: it checks
    that a b^dag is within ``tol`` of phase * identity and returns the phase.
    """
    phase, residual = _phase_fit(a, b)
    # Written as "not <=" so that a NaN fails both tests.
    if not (abs(abs(phase) - 1.0) <= tol and residual <= tol):
        return PhaseMatch(False, None)
    return PhaseMatch(True, phase)


def phase_defect(a, b) -> float:
    """Distance from 'equal up to a unit phase': max of the residual matrix
    norm against the best phase and the phase's deviation from unit modulus."""
    phase, residual = _phase_fit(a, b)
    return max(residual, abs(abs(phase) - 1.0))


def apply_point(s: SympMat, point: tuple[int, int]) -> tuple[int, int]:
    """Linear action of a symplectic element on a lattice point, mod s.modulus."""
    m, n = point
    return ((s.a * m + s.b * n) % s.modulus, (s.c * m + s.d * n) % s.modulus)


def check_covariance_bound(n: int) -> None:
    """Refuse a covariance residual at dimension ``n`` before it starts.

    covariance_residual holds three N^3 blocks: the gather and the product
    block (complex) and the magnitude block (real), 40 bytes per N^3; its
    tracemalloc peak was 41 bytes per N^3 at N = 63 and 95, the rest being
    O(N^2) temporaries. check_bytes refuses blocks above the byte bound,
    which admits odd N <= 187 and even N <= 188.
    """
    cube_bytes = n**3 * (2 * np.dtype(complex).itemsize + np.dtype(float).itemsize)
    check_bytes(f"covariance residual at dimension {n}", cube_bytes)


def covariance_residual(u, s: SympMat, parity: str) -> float:
    """Worst-case covariance defect of ``u`` against ``s`` over all phase points.

    Returns max over points p of the entrywise norm of
    U Delta_p U^dag - Delta_(s.p); NaN if any defect is NaN.

    Computed from the factored kernels Delta_(x,y) = c_xy Z_y Pi_x (see
    qops.kernel_factors), never from dense kernels:
    U Delta_(x,y) U^dag = c_xy (U Z_y)(Pi_x U^dag), and Pi_x U^dag is a row
    gather of U^dag. With G = [Pi_0 U^dag | ... | Pi_(N-1) U^dag] built
    once, one GEMM (U Z_y) G per momentum index y gives the products for a
    whole row of points. Since |c_xy| = 1, the defect at (x, y) has the
    norm of that product block minus conj(c_xy) Delta_(s.(x,y)), which
    touches only the N support entries of the image kernel. Cost: N^5
    multiply-adds in N BLAS calls and O(N^3) memory, bounded by
    check_covariance_bound before anything is allocated.

    Even lattices need only the points j, k in [0, N) of the doubled grid.
    With wt^N = -1, Delta_(j+N,k) = (-1)^k Delta_(j,k) and
    Delta_(j,k+N) = (-1)^j Delta_(j,k), so for (j', k') = s.(j, k) the
    image of (j+N, k) is (j' + aN, k' + cN), whose kernel carries
    (-1)^(a k' + c j') = (-1)^(2acj + (ad+bc)k) = (-1)^k: det s = ad - bc
    is odd, so ad + bc is odd too. Likewise the image of (j, k+N) carries
    (-1)^((ad+bc)j + 2bdk) = (-1)^j. Both sides of the defect at a folded
    point pick up the same sign, so its norm equals the norm at its
    representative, for any matrix u.
    """
    matrix = _as_matrix(u)
    n = hilbert_dim(s.modulus, parity)
    if matrix.shape != (n, n):
        raise DimensionMismatch(
            f"unitary is {matrix.shape}, expected {(n, n)} for modulus {s.modulus}"
        )
    check_covariance_bound(n)
    rows = np.arange(n)
    xs = rows[:, None]
    cols, _, _, r = kernel_factors(n, parity, xs, 0)
    roots = unit_roots(r)
    # gather[i, x * N + k] = (Pi_x U^dag)[i, k]
    gather = matrix.conj().T[cols.T].reshape(n, n * n)
    # The N^3 buffers are allocated once: with a fresh pair per row, where
    # the allocator placed them moved the process's peak RSS by several MB
    # from one build of the same code to the next.
    products = np.empty((n, n, n), dtype=complex)
    magnitudes = np.empty((n, n, n))
    defects = []
    for y in range(n):
        source = kernel_factors(n, parity, xs, y)
        image = kernel_factors(n, parity, *apply_point(s, (xs, y)))
        # products[i, x, k] = (U Z_y Pi_x U^dag)[i, k]
        np.matmul(matrix * roots[source.diag], gather, out=products.reshape(n, n * n))
        exponents = (image.diag + image.const - source.const) % r
        # the image kernel is supported at (i, image.cols[x, i]) in block x
        products[rows, xs, image.cols] -= roots[exponents]
        defects.append(np.abs(products, out=magnitudes).max())
    return float(np.max(defects))

