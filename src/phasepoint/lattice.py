"""Lattice parity, index modulus and Hilbert-space dimension, in pure Python.

Odd lattices (N odd) index phase points mod N; even lattices (N even) use the
doubled grid mod 2N. This module is the one place that maps a dimension and a
parity onto the lattice and back, and the one home of the phase point
operators' entries: row i of Delta_(x,y) has its one nonzero in column
kernel_column(parity, x, i) mod N, with exponent kernel_exponent(parity, x,
y, i) mod lattice_modulus, and of the doubled grid's fold onto the N^2
representatives (fold_exponent). Its names live apart from the numeric
layers so that argument checks and the command-line parser run without
importing numpy.
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
    """The one choice between the two kernels: step 2 over Z_N on odd
    lattices (Cohendet et al.), step 1 over Z_2N on the doubled grid
    (Leonhardt). Callers check the parity, with the dimension, through
    check_parity."""
    return 2 if parity == ODD else 1


def kernel_column(parity: str, x, i):
    """Column of row i's nonzero in Delta_(x,y), step x - i, unreduced
    (read it mod N). x and i are ints or broadcasting integer arrays."""
    return kernel_step(parity) * x - i


def kernel_exponent(parity: str, x, y, i):
    """Exponent of row i's nonzero in Delta_(x,y), 2 y i - step x y,
    unreduced (read it mod lattice_modulus, as a power of
    exp(2 pi i / lattice_modulus)). x, y and i are ints or broadcasting
    integer arrays."""
    return 2 * y * i - kernel_step(parity) * x * y


def fold_exponent(x, y, n: int):
    """The doubled grid's fold at even N: c in {0, N} with Delta_(x,y) =
    rho^c Delta_(x mod N, y mod N), rho = exp(2 pi i / 2N); so
    Delta_(x+N,y) = (-1)^y Delta_(x,y) and Delta_(x,y+N) = (-1)^x Delta_(x,y).
    x and y are ints or broadcasting integer arrays.

    From kernel_exponent (step 1, mod 2N): e(x + uN, y + vN, i) - e(x, y, i)
    = 2vNi - N(uy + vx) - uvN^2 = N(uy + vx) mod 2N, as 2N divides 2vNi,
    2N(uy + vx) and N^2. With x, y reduced mod 2N, u, v = x div N, y div N.

    With det S = 1, c(p) - c(S.p) is the same across each fold class: S
    moves p + N(u, v) to S.p + N(au + bv, cu + dv), and at S.p = (x', y')
    (au + bv) y' + (cu + dv) x' = u (2acx + (ad + bc) y) + v ((ad + bc) x +
    2bdy) = uy + vx mod 2, as ad + bc = ad - bc = 1 mod 2. So every point of
    a class has its representative's covariance edges.
    """
    x, y = x % (2 * n), y % (2 * n)
    return n * ((x // n) * y + (y // n) * x) % (2 * n)


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
