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

from .lattice import kernel_step, lattice_modulus
from .modring import _check_modulus
from .symplectic import check_bytes


@lru_cache(maxsize=None)
def unit_roots(m: int) -> np.ndarray:
    """Table of the m-th roots of unity, exp(2 pi i k / m) for k = 0..m-1."""
    _check_modulus(m)
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


class KernelFactors(NamedTuple):
    """Phase point operators as integer tables: row i of Delta_(x,y) has its
    one nonzero, unit_roots(root_modulus)[exponents[..., i]], in column
    ``cols[..., i]``. Exponents are reduced mod root_modulus."""

    cols: np.ndarray
    exponents: np.ndarray
    root_modulus: int


def kernel_factors(n: int, parity: str, x, y) -> KernelFactors:
    """Tables of the phase point operators at points (x, y), laid out by
    lattice.kernel_step: column step x - i mod N and exponent
    2 y i - step x y mod R, with R = lattice_modulus(n, parity). That is
    Cohendet's kernel w^(2 y i - 2 x y) in column 2x - i on odd lattices,
    w = exp(2 pi i / N), and Leonhardt's wt^(2 k i - j k) in column j - i
    at doubled coordinates (j, k) on even ones, wt = exp(2 pi i / 2N).

    x and y are integers or integer arrays; they broadcast against the row
    index i, which runs along the last axis (pass x[:, None] for a batch).
    A dimension or parity that does not fit raises ParityError.
    """
    step, r = kernel_step(parity), lattice_modulus(n, parity)
    rows = np.arange(n)
    return KernelFactors((step * x - rows) % n, (2 * y * rows - step * x * y) % r, r)


def delta_at(n: int, parity: str, point: tuple[int, int]) -> np.ndarray:
    """Dense phase point operator at ``point`` for either lattice parity:
    (m, nn) on odd lattices (Cohendet), doubled coordinates (j, k) on even
    ones (Leonhardt), laid out as kernel_factors describes. A dimension or
    parity that does not fit raises ParityError."""
    factors = kernel_factors(n, parity, *point)
    delta = np.zeros((n, n), dtype=complex)
    delta[np.arange(n), factors.cols] = unit_roots(factors.root_modulus)[factors.exponents]
    return delta


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
