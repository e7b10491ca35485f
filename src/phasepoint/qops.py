"""Operators on the N-dimensional Hilbert space attached to a discrete phase lattice.

Basis states are indexed canonically by {0, ..., N-1}; the symmetric index
range around zero used in some displays is a view, not a storage convention.
Every phase exponent is computed as an exact integer modulo N (odd lattices)
or modulo 2N (even lattices) and only then mapped through a precomputed table
of roots of unity, so matrices carry no accumulated floating-point phase drift.

Odd lattices (N odd) use the N x N grid of integer points (m, n). Even
lattices (N even) interpose ghost points halfway between integer sites: the
grid is 2N x 2N, addressed here by doubled integer coordinates (j, k) = (2m, 2n)
so that half-integer points have odd j or odd k and all arithmetic stays exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import EVEN, ODD, ParityError, check_parity, lattice_modulus
from .modring import _check_modulus
from .symplectic import check_bytes


@lru_cache(maxsize=None)
def unit_roots(m: int) -> np.ndarray:
    """Table of the m-th roots of unity, exp(2 pi i k / m) for k = 0..m-1."""
    _check_modulus(m)
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


def phase_op(n: int) -> np.ndarray:
    """Q = diag(w^k), w = exp(2 pi i / N)."""
    return np.diag(unit_roots(n))


def shift_op(n: int) -> np.ndarray:
    """P maps |k> to |k-1> (indices mod N)."""
    p = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    p[(cols - 1) % n, cols] = 1.0
    return p


def inversion_op(n: int) -> np.ndarray:
    """T maps |k> to |-k> (indices mod N); an involutive permutation."""
    t = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    t[(-cols) % n, cols] = 1.0
    return t


def half_exponent(n: int) -> int:
    """The residue playing the role of 1/2 mod odd N, i.e. (N+1)/2."""
    if n % 2 == 0:
        raise ParityError(f"1/2 has no residue representative mod even {n}")
    return (n + 1) // 2


def weyl_symmetric(n: int, m: int, nn: int) -> np.ndarray:
    """Odd-lattice Weyl operator in the symmetric normalization.

    w^(-m nn / 2) Q^nn P^(-m), with the half exponent realized as the
    residue (N+1)/2. Conjugating the inversion kernel by this operator
    translates phase points one step per unit of (m, nn).
    """
    check_parity(n, ODD)
    roots = unit_roots(n)
    half = half_exponent(n)
    cols = np.arange(n)
    w = np.zeros((n, n), dtype=complex)
    w[(cols + m) % n, cols] = roots[(nn * (cols + m) - m * nn * half) % n]
    return w


class KernelFactors(NamedTuple):
    """Factored phase point operators Delta_(x,y) = c_xy Z_y Pi_x.

    Row i of Pi_x has its one 1 in column ``cols[..., i]``; Z_y is the
    diagonal unit_roots(root_modulus)[diag[..., i]]; the scalar c_xy is
    unit_roots(root_modulus)[const]. All exponents are reduced mod
    root_modulus.
    """

    cols: np.ndarray
    diag: np.ndarray
    const: np.ndarray | int
    root_modulus: int

    @property
    def exponents(self) -> np.ndarray:
        """Row i's entry is unit_roots(root_modulus)[exponents[..., i]]."""
        return (self.diag + self.const) % self.root_modulus


def kernel_factors(n: int, parity: str, x, y) -> KernelFactors:
    """Factors of the phase point operators at points (x, y).

    x and y are integers or integer arrays; they broadcast against the row
    index i, which runs along the last axis (pass x[:, None] for a batch).

    Odd (Cohendet), with w = exp(2 pi i / N): Pi_x sends row i to column
    (2x - i) mod N, Z_y = diag(w^(2 y i)) and c_xy = w^(-2 x y).
    Even (Leonhardt), doubled coordinates (x, y) = (j, k), with
    wt = exp(2 pi i / 2N): Pi_j sends row i to column (j - i) mod N,
    Z_k = diag(wt^(2 k i)) and c_jk = wt^(-k j).
    """
    rows = np.arange(n)
    if parity == ODD:
        return KernelFactors((2 * x - rows) % n, (2 * y * rows) % n, (-2 * x * y) % n, n)
    r = 2 * n
    return KernelFactors((x - rows) % n, (2 * y * rows) % r, (-x * y) % r, r)


def _delta_from_factors(n: int, parity: str, x: int, y: int) -> np.ndarray:
    factors = kernel_factors(n, parity, x, y)
    delta = np.zeros((n, n), dtype=complex)
    delta[np.arange(n), factors.cols] = unit_roots(factors.root_modulus)[factors.exponents]
    return delta


def delta_cohendet(n: int, m: int, nn: int) -> np.ndarray:
    """Odd-lattice phase point operator at (m, nn).

    One nonzero entry per row: row i, column (2m - i) mod N carries
    w^(2 nn (i - m)). Hermitian with unit trace.
    """
    check_parity(n, ODD)
    return _delta_from_factors(n, ODD, m, nn)


def weyl_leonhardt(n: int, j: int, k: int) -> np.ndarray:
    """Even-lattice Weyl operator at the doubled-coordinate point (j, k).

    Equals wt^(j k) Q^(-j) P^(-k) with wt = exp(2 pi i / 2N); column t
    carries wt^(j k - 2 j (t + k)) in row (t + k) mod N.
    """
    check_parity(n, EVEN)
    roots = unit_roots(2 * n)
    cols = np.arange(n)
    w = np.zeros((n, n), dtype=complex)
    w[(cols + k) % n, cols] = roots[(j * k - 2 * j * (cols + k)) % (2 * n)]
    return w


def delta_leonhardt(n: int, j: int, k: int) -> np.ndarray:
    """Even-lattice phase point operator at the doubled-coordinate point (j, k).

    Row i, column (j - i) mod N carries wt^(2 k i - k j). Points with odd j
    or odd k sit between the integer lattice sites (ghost points). Hermitian
    at every point of the doubled grid.
    """
    check_parity(n, EVEN)
    return _delta_from_factors(n, EVEN, j, k)


def delta_at(n: int, parity: str, point: tuple[int, int]) -> np.ndarray:
    """Phase point operator at ``point`` for either lattice parity."""
    if parity == ODD:
        return delta_cohendet(n, point[0], point[1])
    return delta_leonhardt(n, point[0], point[1])


def symmetric_order(modulus: int) -> list[int]:
    """Canonical indices {0, ..., modulus-1} ordered by their representative
    in the symmetric range around zero (v - modulus for v > modulus // 2)."""
    return sorted(range(modulus), key=lambda v: v - modulus if v > modulus // 2 else v)


def phase_points(n: int, parity: str) -> list[tuple[int, int]]:
    """All lattice points in canonical row-major order.

    Odd: (m, nn) over Z_N x Z_N. Even: doubled coordinates (j, k) over
    Z_2N x Z_2N, covering integer and ghost points alike.
    """
    modulus = lattice_modulus(n, parity)
    return [(x, y) for x in range(modulus) for y in range(modulus)]


def delta_family(n: int, parity: str) -> dict[tuple[int, int], np.ndarray]:
    """Map from every phase point to its phase point operator, built afresh on
    each call: 16 N^4 bytes (64 N^4 even), refused at once above odd N = 63
    and even N = 44."""
    size = lattice_modulus(n, parity) ** 2 * n * n * np.dtype(complex).itemsize
    check_bytes(f"kernel family at dimension {n}", size)
    return {point: delta_at(n, parity, point) for point in phase_points(n, parity)}
