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

from .lattice import kernel_column, kernel_exponent, lattice_modulus
from .modring import _check_modulus
from .symplectic import check_bytes


# Root tables unit_roots keeps, the most recently used: a lattice reads at
# most three (R, 8R and 8), and a sweep over many N holds no more than this
_ROOT_TABLES = 16
# The per-lattice plan memos of oracle and wigner each keep the _PLAN_SLOTS
# most recently used plans of at most _PLAN_MEMO_BYTES (read at call time):
# 8 MiB at most each.
_PLAN_MEMO_BYTES = 1 << 20
_PLAN_SLOTS = 8


@lru_cache(maxsize=_ROOT_TABLES)
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
    """Tables of the phase point operators at points (x, y): lattice's
    kernel_column reduced mod N and kernel_exponent reduced mod
    R = lattice_modulus(n, parity). That is Cohendet's kernel
    w^(2 y i - 2 x y) in column 2x - i on odd lattices, w = exp(2 pi i / N),
    and Leonhardt's wt^(2 k i - j k) in column j - i at doubled coordinates
    (j, k) on even ones, wt = exp(2 pi i / 2N).

    x and y are integers or integer arrays; they broadcast against the row
    index i, which runs along the last axis (pass x[:, None] for a batch).
    A dimension or parity that does not fit raises ParityError.
    """
    r, rows = lattice_modulus(n, parity), np.arange(n)
    cols, exponents = kernel_column(parity, x, rows), kernel_exponent(parity, x, y, rows)
    return KernelFactors(cols % n, exponents % r, r)


def delta_at(n: int, parity: str, point: tuple[int, int]) -> np.ndarray:
    """Dense phase point operator at ``point`` for either lattice parity:
    (m, nn) on odd lattices (Cohendet), doubled coordinates (j, k) on even
    ones (Leonhardt), laid out as kernel_factors describes. A dimension or
    parity that does not fit raises ParityError."""
    factors = kernel_factors(n, parity, *point)
    delta = np.zeros((n, n), dtype=complex)
    delta[np.arange(n), factors.cols] = unit_roots(factors.root_modulus)[factors.exponents]
    return delta


def delta_family(n: int, parity: str) -> dict[tuple[int, int], np.ndarray]:
    """Map from every phase point to its phase point operator, built afresh on
    each call, in canonical row-major order: (m, nn) over Z_N x Z_N on odd
    lattices, doubled coordinates (j, k) over Z_2N x Z_2N on even ones,
    integer and ghost points alike. 16 N^4 bytes (64 N^4 even), refused at
    once above odd N = 63 and even N = 44."""
    modulus = lattice_modulus(n, parity)
    check_bytes(f"kernel family at dimension {n}", modulus**2 * n * n * np.dtype(complex).itemsize)
    return {(x, y): delta_at(n, parity, (x, y)) for x in range(modulus) for y in range(modulus)}
