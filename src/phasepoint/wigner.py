"""Discrete Wigner functions, marginals and quantization.

An odd-lattice table is N x N over integer points; an even-lattice table is
2N x 2N over the doubled grid (state vectors have no amplitude on the ghost
points, but the quasi-distribution does). Tables are real and sum to the
state's squared norm <psi|psi>, which is one within NORM_TOL.
Both directions, state to table and table to operator, are batched FFTs over
the kernel rows and cost O(N^2 log N).

What depends on the lattice alone, the chirp wt^(-step x y) and the gather
and scatter indexes, is one read-only plan per (modulus, parity). Plans of at
most 1 MiB (odd N <= 179, even N <= 108) are memoised in an eight-slot
lru_cache, so memoised plans never hold more than 8 MiB; a larger plan is
built inside the call and dropped with it. A transform's output does not
depend on whether its plan was memoised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import qops
from .lattice import DimensionMismatch, hilbert_dim, kernel_column, kernel_exponent, lattice_modulus
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


# Both transforms hold at most four complex words per table cell at their
# peak; check_bytes refuses them on that figure.
_TRANSFORM_CELL_BYTES = 4 * np.dtype(complex).itemsize


def _check_transform_bytes(what: str, modulus: int) -> None:
    check_bytes(what, modulus * modulus * _TRANSFORM_CELL_BYTES)


class _Plan(NamedTuple):
    """Read-only arrays of one lattice that both transforms index with,
    for modulus M and dimension N, all read off Delta_(x,y)'s row i, its
    column step x - i (lattice.kernel_column) and exponent 2 y i - step x y
    (lattice.kernel_exponent), with wt = exp(2 pi i / M):

    - chirp[x, y] = wt^(-step x y), row 0's entry: M x M complex;
    - pairs[x, i] = (step x - i) mod N, row i's column: wigner_of's gather,
      M x N;
    - columns[y] = (step y) mod N, the exponent's slope 2y in i in units of
      exp(2 pi i / N): wigner_of's spectrum column, M;
    - reads[i] = 2i mod M, its slope in y: weyl_quantize's read index, N;
    - targets[x, i] = N i + (step x - i) mod N, x < N: weyl_quantize's
      scatter, the flat position of entry (i, step x - i) for grid row x.

    That is 32 B per cell on odd lattices and 22 B per cell on the doubled
    grid, plus 16 or 24 B per N: odd N <= 179 and even N <= 108 fit in
    qops._PLAN_MEMO_BYTES.
    """

    chirp: np.ndarray
    pairs: np.ndarray
    columns: np.ndarray
    reads: np.ndarray
    targets: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self)


def _build_plan(modulus: int, parity: str) -> _Plan:
    n = hilbert_dim(modulus, parity)
    x = np.arange(modulus).reshape(-1, 1)
    y = np.arange(modulus)
    i = np.arange(n)
    pairs = kernel_column(parity, x, i) % n
    plan = _Plan(
        chirp=unit_roots(modulus)[kernel_exponent(parity, x, y, 0) % modulus],
        pairs=pairs,
        columns=kernel_exponent(parity, 0, y, 1) * n // modulus % n,
        reads=kernel_exponent(parity, 0, 1, i) % modulus,
        targets=n * i + pairs[:n],
    )
    for array in plan:
        array.flags.writeable = False
    return plan


_plan_memo = lru_cache(maxsize=qops._PLAN_SLOTS)(_build_plan)


def _plan(modulus: int, n: int, parity: str) -> _Plan:
    """The plan of the lattice of modulus M and dimension N: from _plan_memo
    when its bytes fit qops._PLAN_MEMO_BYTES, else built for this call
    alone. The bytes are _Plan's arrays, 16 M^2 + 8 M N + 8 M + 8 N + 8 N^2,
    counted before anything is built."""
    size = 16 * modulus * modulus + 8 * (modulus * n + modulus + n + n * n)
    return (_plan_memo if size <= qops._PLAN_MEMO_BYTES else _build_plan)(modulus, parity)


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
    At its peak the transform holds 64 B per table cell at odd N = 1023 and
    46 B at even N = 512 with its plan built for the call, and 36 B at odd
    N = 179 and 24 B at even N = 108 with a memoised one (tracemalloc).
    check_bytes, called before the plan is looked up or built, keeps four
    complex words (64 B) per cell under the byte bound (odd N <= 2047, even
    N <= 1024).
    """
    n = state.dim
    modulus = lattice_modulus(n, parity)
    _check_transform_bytes(f"Wigner table of {modulus} x {modulus} cells", modulus)
    plan = _plan(modulus, n, parity)
    amps = state.amplitudes
    # ifft carries the 1/N of the sum; the even grid divides by 2N, not N.
    # On odd lattices the factor is 1.0 but the product is kept: a complex
    # product with 1.0 turns some exact zeros' -0.0 into 0.0.
    spectra = np.fft.ifft(amps.conj() * amps[plan.pairs], axis=1) * (n / modulus)
    # take, not spectra[:, columns], whose result is column-major: the table
    # stays row-major, so its sums add in the same order
    values = spectra.take(plan.columns, axis=1)
    del spectra  # the peak is the plan, the spectra and the table
    # in place, the chirp kept as the left factor: with fused multiply-adds
    # a complex product's last bit depends on the operand order
    np.multiply(plan.chirp, values, out=values)
    worst_imag = float(np.abs(values.imag).max())
    if not worst_imag <= IMAG_TOL:
        raise ValueError(f"Wigner entries not real: max imaginary part {worst_imag:.3e}")
    # built as u_of builds ProjUnitary: the values are real and square
    # already, so only the contiguous copy WignerTable would make is kept
    real = np.array(values.real)
    real.flags.writeable = False
    table = object.__new__(WignerTable)
    fields = {"parity": parity, "values": real, "imag_residual": worst_imag, "dim": n}
    for name, value in fields.items():
        object.__setattr__(table, name, value)
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

    This is the transpose of ``wigner_of``: with step = lattice.kernel_step,
    for each grid row x, the sum over y of H[x, y] wt^(-step x y) w^(step y i)
    is one length-D inverse DFT read at index 2i mod D, and it lands on the
    kernel's support (i, step*x - i).
    At even N, rows j and j + N share that support and add. The cost is
    O(N^2 log N); no kernel matrix is built. The peak is 64 B per cell at
    odd N = 1023 and 54 B at even N = 512 with the plan built for the call,
    36 and 32 B at odd N = 179 and even N = 108 with a memoised one;
    check_bytes holds it to wigner_of's 64 B per cell, so the same sizes
    are admitted (odd N <= 2047, even N <= 1024).
    """
    values = _real(grid, "grid")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DimensionMismatch(f"grid must be square, got {values.shape}")
    modulus = values.shape[0]
    n = hilbert_dim(modulus, parity)
    _check_transform_bytes(f"quantized grid of {modulus} x {modulus} cells", modulus)
    if not np.isfinite(values).all():
        raise ValueError("grid has non-finite entries")
    plan = _plan(modulus, n, parity)
    rows = np.fft.ifft(values * plan.chirp, axis=1)[:, plan.reads]
    # also on odd lattices, where the sum of one block turns -0.0 into 0.0
    rows = rows.reshape(modulus // n, n, n).sum(axis=0)
    operator = np.empty(n * n, dtype=complex)
    operator[plan.targets] = rows
    return operator.reshape(n, n)
