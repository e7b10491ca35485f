"""Lattice parity, index modulus and Hilbert-space dimension, in pure Python.

Odd lattices (N odd) index phase points mod N; even lattices (N even) use the
doubled grid mod 2N. This module is the one place that maps a dimension and a
parity onto the lattice and back, and the one place that picks a parity's
kernel step. Its names live apart from the numeric layers so that argument
checks and the command-line parser run without importing numpy.
"""

from __future__ import annotations

ODD = "odd"
EVEN = "even"
PARITIES = (ODD, EVEN)


class ParityError(ValueError):
    """A dimension or lattice modulus does not fit the requested lattice parity."""


class DimensionMismatch(ValueError):
    """Matrix or state dimensions disagree."""


def check_parity(n: int, parity: str) -> None:
    if parity not in PARITIES:
        raise ParityError(f"parity must be 'odd' or 'even', got {parity!r}")
    if n < 2:
        raise ParityError(f"dimension must be >= 2, got {n}")
    if parity == ODD and n % 2 == 0:
        raise ParityError(f"dimension {n} is even, expected odd")
    if parity == EVEN and n % 2 == 1:
        raise ParityError(f"dimension {n} is odd, expected even")


def lattice_modulus(n: int, parity: str) -> int:
    """Index modulus of the phase lattice: N for odd parity, 2N for even."""
    check_parity(n, parity)
    return n if parity == ODD else 2 * n


def kernel_step(parity: str) -> int:
    """The one choice between the two kernels: row i of Delta_(x,y) has its
    nonzero in column step x - i mod N, with exponent 2 y i - step x y mod
    lattice_modulus. Step 2 over Z_N on odd lattices (Cohendet et al.),
    step 1 over Z_2N on the doubled grid (Leonhardt). Callers check the
    parity, with the dimension, through check_parity."""
    return 2 if parity == ODD else 1


def hilbert_dim(modulus: int, parity: str) -> int:
    """Hilbert-space dimension N behind a lattice index modulus, the inverse
    of lattice_modulus: modulus N (odd) or 2N (even), else ParityError."""
    n = modulus // 2 if parity == EVEN else modulus
    if lattice_modulus(n, parity) != modulus:
        raise ParityError(f"modulus {modulus} is not twice an even dimension")
    return n


def symmetric_order(modulus: int) -> list[int]:
    """Canonical indices {0, ..., modulus-1} ordered by their representative
    in the symmetric range around zero (v - modulus for v > modulus // 2)."""
    return sorted(range(modulus), key=lambda v: v - modulus if v > modulus // 2 else v)
