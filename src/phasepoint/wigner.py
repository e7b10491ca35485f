"""Discrete Wigner functions, marginals and quantization.

An odd-lattice table is N x N over integer points; an even-lattice table is
2N x 2N over the doubled grid (state vectors have no amplitude on the ghost
points, but the quasi-distribution does). Tables are real and sum to the
state's squared norm <psi|psi>, which is one within NORM_TOL.
Both directions, state to table and table to operator, are batched FFTs over
the kernel rows and cost O(N^2 log N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lattice import ODD, DimensionMismatch, hilbert_dim, lattice_modulus
from .qops import unit_roots
from .symplectic import check_bytes

NORM_TOL = 1e-8
# Largest imaginary part wigner_of may discard from a table entry.
IMAG_TOL = 1e-8


class NotNormalized(ValueError):
    """State amplitudes deviate from unit norm beyond tolerance."""


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure state as a unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size < 2:
            raise DimensionMismatch("state needs dimension >= 2")
        if not np.isfinite(amps).all():
            raise NotNormalized("amplitudes must be finite")
        with np.errstate(over="ignore"):  # huge finite amplitudes: norm inf
            deviation = abs(np.linalg.norm(amps) - 1.0)
        if not deviation <= NORM_TOL:
            raise NotNormalized(f"norm deviates from 1 by {deviation:.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis(cls, n: int, k: int) -> "QuantumState":
        amps = np.zeros(n, dtype=complex)
        amps[k % n] = 1.0
        return cls(amps)

    @classmethod
    def normalized(cls, vector) -> "QuantumState":
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if not 0 < norm < np.inf:
            raise NotNormalized(f"cannot normalize a vector of norm {norm}")
        return cls(vec / norm)


@dataclass(frozen=True, eq=False)
class WignerTable:
    """Real quasi-distribution over the phase lattice.

    ``values[x, y]`` is indexed by the first (position-like) coordinate x and
    the second (momentum-like) coordinate y, both canonical mod ``modulus``.
    ``imag_residual`` records the largest imaginary part discarded when the
    table was computed. ``total`` is the sum of the values; a table from
    wigner_of sums to the state's <psi|psi>, which QuantumState admits
    within NORM_TOL of one. ``dim`` is the Hilbert-space dimension behind the
    table; a shape that fits no dimension of ``parity`` raises ParityError.
    """

    parity: str
    values: np.ndarray
    imag_residual: float = 0.0
    dim: int = field(init=False)

    def __post_init__(self):
        # a copy: freezing the caller's own array would be a side effect
        vals = np.array(_real(self.values, "table"))
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise DimensionMismatch(f"table must be square, got {vals.shape}")
        object.__setattr__(self, "dim", hilbert_dim(vals.shape[0], self.parity))
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def modulus(self) -> int:
        return self.values.shape[0]

    @property
    def total(self) -> float:
        return float(self.values.sum())


def _real(values, what: str) -> np.ndarray:
    """``values`` as floats; a nonzero imaginary part raises, never drops."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and (values.imag != 0).any():
        raise ValueError(f"{what} has entries with a nonzero imaginary part")
    return np.asarray(values.real, dtype=float)


class Marginals(NamedTuple):
    position: np.ndarray
    momentum: np.ndarray


def _step(parity: str) -> int:
    # Kernel at (x, y) has its row-i entry in column (step*x - i) mod N, with
    # phase w^(step*y*i) times a row-independent factor wt^(-step*x*y) where
    # wt = exp(2 pi i / modulus): step 2 on odd lattices, 1 on the doubled grid.
    return 2 if parity == ODD else 1


def wigner_of(state: QuantumState, parity: str) -> WignerTable:
    """Wigner table of a pure state.

    Odd: W[m, n] = <psi| Delta_(m,n) |psi> / N over the N x N integer grid.
    Even: W[j, k] = <psi| Delta_(j,k) |psi> / 2N over the 2N x 2N doubled
    grid. Entries are real up to rounding; the discarded imaginary parts are
    tracked and must stay below IMAG_TOL. The kernels sum to D times the
    identity on both lattices, so the table sums to <psi|psi>, which
    QuantumState admits up to about 1 + 2 NORM_TOL; the sum is checked
    against it within 1e-8.

    Every kernel has one nonzero entry per row with a phase linear in the
    second coordinate, so each table row is one length-N DFT. With
    w = exp(2 pi i / N):

    - odd, g_m[i] = conj(psi_i) psi_(2m-i):
      W[m, n] = w^(-2nm) (sum_i g_m[i] w^(ki)) / N at k = 2n mod N;
    - even, g_j[i] = conj(psi_i) psi_(j-i), wt = exp(i pi / N):
      W[j, k] = wt^(-kj) (sum_i g_j[i] w^((k mod N) i)) / 2N.

    All rows go through one batched FFT: O(N^2 log N) time, O(N^2) memory.
    The transform holds about four complex words per table cell at its
    peak; check_bytes, called before any of it is built, keeps that under
    the byte bound (odd N <= 2047, even N <= 1024).
    """
    n = state.dim
    modulus = lattice_modulus(n, parity)
    table_bytes = modulus * modulus * 4 * np.dtype(complex).itemsize
    check_bytes(f"Wigner table of {modulus} x {modulus} cells", table_bytes)
    step = _step(parity)
    amps = state.amplitudes
    x = np.arange(modulus).reshape(-1, 1)
    i = np.arange(n)
    pairs = amps.conj() * amps[(step * x - i) % n]
    # ifft carries the 1/N of the sum; the even grid divides by 2N, not N.
    spectra = np.fft.ifft(pairs, axis=1) * (n / modulus)
    y = np.arange(modulus)
    values = unit_roots(modulus)[(-step * x * y) % modulus] * spectra[:, (step * y) % n]
    worst_imag = float(np.abs(values.imag).max())
    if not worst_imag <= IMAG_TOL:
        raise ValueError(f"Wigner entries not real: max imaginary part {worst_imag:.3e}")
    table = WignerTable(parity, values.real, worst_imag)
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(table.total - norm2) <= 1e-8:
        raise ValueError(f"Wigner table sums to {table.total!r}, expected <psi|psi> = {norm2!r}")
    return table


def marginals(table: WignerTable) -> Marginals:
    """Row sums (position distribution) and column sums (momentum distribution).

    For even parity both vectors live on the doubled grid: entries at even
    doubled coordinates reproduce the integer-point distributions and the
    ghost (odd) entries vanish for physical states.
    """
    return Marginals(
        position=table.values.sum(axis=1),
        momentum=table.values.sum(axis=0),
    )


def weyl_quantize(grid, parity: str) -> np.ndarray:
    """Operator for a classical lattice observable, in symmetric ordering.

    Computes sum over points of H(point) * Delta_point / D with D = N (odd)
    or 2N (even). Real grids quantize to Hermitian operators; a constant
    grid c quantizes to c times the identity.

    This is the transpose of ``wigner_of``: for each grid row x, the sum over
    y of H[x, y] wt^(-step x y) w^(step y i) is one length-D inverse DFT read
    at index 2i mod D, and it lands on the kernel's support (i, step*x - i).
    At even N, rows j and j + N share that support and add. The cost is
    O(N^2 log N); no kernel matrix is built.
    """
    values = _real(grid, "grid")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DimensionMismatch(f"grid must be square, got {values.shape}")
    modulus = values.shape[0]
    n = hilbert_dim(modulus, parity)
    if not np.isfinite(values).all():
        raise ValueError("grid has non-finite entries")
    step = _step(parity)
    x = np.arange(modulus).reshape(-1, 1)
    y = np.arange(modulus)
    i = np.arange(n)
    weighted = values * unit_roots(modulus)[(-step * x * y) % modulus]
    rows = np.fft.ifft(weighted, axis=1)[:, (2 * i) % modulus]
    rows = rows.reshape(modulus // n, n, n).sum(axis=0)
    operator = np.empty((n, n), dtype=complex)
    operator[i, (step * x[:n] - i) % n] = rows
    return operator
