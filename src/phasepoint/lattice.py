"""Lattice parity and index modulus, in pure Python.

Odd lattices (N odd) index phase points mod N; even lattices (N even) use the
doubled grid mod 2N. These names live apart from the numeric layers so that
argument checks and the command-line parser run without importing numpy.
"""

from __future__ import annotations

ODD = "odd"
EVEN = "even"
PARITIES = (ODD, EVEN)


class ParityError(ValueError):
    """Hilbert-space dimension does not match the requested lattice parity."""


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
