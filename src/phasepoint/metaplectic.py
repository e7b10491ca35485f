"""Projective unitary representation of Sp_M covariant with the phase point operators.

The defining relation is U(S) Delta_p U(S)^dag = Delta_(S.p) at every lattice
point p. The generators have closed forms in one exponent table e(i): with
rho the root of unity of order R,

    U(h+)[i, k] = rho^(e((i-k) mod N)) / sqrt(N),   U(h-) = diag rho^(e(i)),

where on odd lattices e(i) = i(i+N)/2 mod N and R = N, and on even lattices
e(i) = i^2 mod 2N and R = 2N; all exponents are exact integers mod R. For
even lattices the unitaries act on the N-dimensional space while the
symplectic indices live mod 2N; the doubled modulus is pure phase-point
bookkeeping.

U(h-)^k is the diagonal rho^(k e(i)). U(h+) is a circulant, which the DFT
diagonalises: its eigenvalues are lambda_0 rho^(-e(f)), with lambda_0 the
sum of its first column, an eighth root of unity read off a quadratic Gauss
sum (weil.chirp_eighth; the chirp structure of Appleby, J. Math. Phys. 46,
052107, 2005). So U(h+)^k is lambda_0^k F^-1 diag rho^(-k e(f)) F, with F
the length-N DFT. Arbitrary elements are represented through their
four-factor words h-^x h+^b' h-^z h+^(-t) (symplectic.four_factor_word).
Up to the first h+ power the product is diagonal, and that power makes it a
chirp-circulant read off one length-N transform, so a word costs a few
column scalings and at most one FFT pair of N x N matrices, none when b is
a unit mod M (then t = 0); any word for the same element gives the same
matrix up to a global phase. No phase gauge is imposed, and comparisons go
through equal_up_to_phase.

group_covariance and group_projectivity check many elements or pairs in bounded
passes over (G, N, N) stacks, each figure bit for bit the one-element figure.

U(S) is also exact integers: N^2/g entries (g = gcd(b, N)) of modulus
sqrt(g/N), with phases roots of unity of order 8R. weil composes that table
in closed form, as quadratic Gauss sums along the same word, and
weil.certify checks it in O(1); u_table reads it, certified, with no matrix
built. covariance_residual bounds any matrix's all-points defect against
the closed form in O(N^2). group_covariance reaches the same figures from
its float stack: it rounds each U(S) to a table (_round_stack) and checks
it with _three_point_certified, an integer comparison at the generating
points in O(N^2) that covers every point (lattice.GENERATING_POINTS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import weil
from .lattice import (
    GENERATING_POINTS, DimensionMismatch, check_parity, hilbert_dim, lattice_modulus,
)
from .modring import ModulusMismatch
from .qops import kernel_factors, unit_roots
from .symplectic import SympMat, check_bytes, four_factor_word
from .weil import certify, chirp_eighth, descriptor

# Working set of one pass of group_covariance and group_projectivity
_PASS_BYTES = 2**20
# _round_stack's margins: entry moduli, and phases in radians
_MODULUS_MARGIN = 1e-9
_PHASE_MARGIN = 1e-6
# One group_covariance element's bytes per entry, U(S)'s float build and its
# rounding included (tracemalloc peak 57.0-58.1 at odd N = 255..1023 and
# even N = 256..1024, set by the bound's two complex arrays beside U(S) and
# its table): odd N <= 2047, even N <= 2048, u_of's own limit
_BOUND_ENTRY_BYTES = 64
# covariance_residual's bytes per entry, the closed-form table included and
# the caller's matrix not (tracemalloc peak 41.0 at odd N = 511 and 1023 and
# even N = 512 and 1024): odd N <= 2469, even N <= 2468
_RESIDUAL_ENTRY_BYTES = 44
# u_table's closed-form table, bytes per entry (tracemalloc peak 9.0-10.2 at
# odd N = 255..1023 and even N = 512 and 1024): N <= 4729
_TABLE_ENTRY_BYTES = 12
# Generator exponent tables _exponent_table keeps, the most recently used
_EXPONENT_TABLES = 16


@dataclass(frozen=True, eq=False)
class ProjUnitary:
    """A unitary defined up to global phase."""

    matrix: np.ndarray

    def __post_init__(self):
        # a copy: freezing the caller's own array would be a side effect
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _generator_exponents(n: int, parity: str) -> tuple[np.ndarray, int]:
    """The generators' exponent table e(i) and its root modulus R.

    u_hplus reads it at (i - k) mod N: on odd lattices (d+N)(d+2N)/2 and
    d(d+N)/2 differ by dN + N^2, and on even ones (d+N)^2 and d^2 differ by
    2dN + N^2 with N even, so both are 0 mod R.

    Every unitary builder starts here, so this is where one unitary's working
    set is bounded, before anything is allocated: four N x N complex arrays.
    u_of's tracemalloc peak was 16.4-22.5 bytes per entry for words with at
    most one h+ power and 32.1-32.4 for four-factor words at N = 255..1024,
    and u_hplus and u_hminus peak at 32. The bound admits N <= 2048.
    """
    check_parity(n, parity)
    check_bytes(f"unitary at dimension {n}", 4 * n * n * np.dtype(complex).itemsize)
    return _exponent_table(n, parity)


@lru_cache(maxsize=_EXPONENT_TABLES)
def _exponent_table(n: int, parity: str) -> tuple[np.ndarray, int]:
    """_generator_exponents once per lattice, read-only; O(N) entries, kept
    for the _EXPONENT_TABLES most recently used lattices. e(i) is
    weil.chirp_terms' rule, read in units of rho = zeta^8."""
    square, linear = weil.chirp_terms(parity, n)
    i = np.arange(n)
    r = lattice_modulus(n, parity)
    # exact: on odd lattices i and i + N have opposite parity, so 8 | 4 i (i + N)
    exponents = (square * i * i + linear * i) // 8 % r
    exponents.flags.writeable = False
    return exponents, r


def u_hplus(n: int, parity: str) -> ProjUnitary:
    """Closed-form representative of the upper triangular generator."""
    exponents, r = _generator_exponents(n, parity)
    i = np.arange(n)
    return ProjUnitary(unit_roots(r)[exponents[(i[:, None] - i) % n]] / np.sqrt(n))


def u_hminus(n: int, parity: str) -> ProjUnitary:
    """Closed-form representative of the lower triangular generator (diagonal)."""
    exponents, r = _generator_exponents(n, parity)
    return ProjUnitary(np.diag(unit_roots(r)[exponents]))


def u_of(s: SympMat, parity: str) -> ProjUnitary:
    """Representative of an arbitrary symplectic element via its four-factor word.

    The one-element case of _u_stack: the product of the closed-form
    generator powers along four_factor_word(s), from the left, in
    O(N^2 log N) with no matrix product. The word is normalized, so a single
    h- power gives that power of u_hminus bit for bit, and a single h+ power
    that power of u_hplus up to rounding: its chirp-circulant is read off one
    inverse FFT (u_of(h+) is within 6.6e-16 of u_hplus at odd N = 3..199
    and even N = 2..198). Any other word for the same element agrees up to
    a single global phase.
    BoundExceeded above N = 2048, before anything is built.
    """
    # the stack is fresh, so it is frozen in place rather than copied
    matrix = _u_stack([s], parity)[0]
    matrix.flags.writeable = False
    unitary = object.__new__(ProjUnitary)
    object.__setattr__(unitary, "matrix", matrix)
    return unitary


def _u_stack(elements, parity: str) -> np.ndarray:
    """U(S) for each of ``elements`` (one modulus, at least one), as a
    C-ordered (G, N, N) stack whose g-th matrix is u_of(elements[g]).

    Along a four-factor word, U(h-)^k scales column i by rho^(k e(i)). Up to
    the first h+ power only such scalings act, on the identity, so the
    product is a diagonal d, and U(h+)^k turns it into the chirp-circulant
    d[i] c[(i - k) mod N], c = lambda_0^k ifft(rho^(-k e(f))): one length-N
    transform, no matrix FFT. A later U(h+)^k is applied as an inverse FFT
    along the rows, a scaling by its eigenvalues lambda_0^k rho^(-k e(f))
    and a forward FFT, so a word costs at most one FFT pair, and none when
    it has at most one h+ power (among them every element whose b is a unit
    mod M).
    Elements whose normalized words have the same sign pattern (at most
    nine patterns) take those steps together along the last axis, each with
    its own exponents, which gives every matrix bit for bit. One element's
    working set is bounded by _generator_exponents; _passes bounds how many
    a stack holds.
    """
    n = hilbert_dim(elements[0].modulus, parity)
    exponents, r = _generator_exponents(n, parity)
    roots = unit_roots(r)
    eighth = chirp_eighth(n, parity)
    groups: dict[tuple[str, ...], tuple[list[int], list[tuple[int, ...]]]] = {}
    for index, s in enumerate(elements):
        factors = four_factor_word(s).factors
        members, powers = groups.setdefault(tuple(sign for sign, _ in factors), ([], []))
        members.append(index)
        powers.append(tuple(k for _, k in factors))
    stack = np.empty((len(elements), n, n), dtype=complex) if len(groups) > 1 else None
    for signs, (members, powers) in groups.items():
        count = len(members)
        powers = np.array(powers, dtype=int)
        # column scalings rho^(k e(i)) for h-^k, eigenvalue tables rho^(-k e(f)) for h+^k
        signed = powers * np.array([-1 if sign == "+" else 1 for sign in signs], dtype=int)
        tables = roots[signed[:, :, None] * exponents % r]
        twists = unit_roots(8)[eighth * powers % 8]
        # words alternate in sign, so at most one scaling precedes the first h+
        lead = int(signs[:1] == ("-",))
        diagonal = tables[:, 0] if lead else np.ones((count, n), dtype=complex)
        matrix = None
        for j, sign in enumerate(signs[lead:], start=lead):
            if matrix is None:
                column = np.fft.ifft(tables[:, j], axis=-1)
                column *= twists[:, j, None]
                matrix = _chirp_circulant(diagonal, column)
            elif sign == "-":
                matrix *= tables[:, j, None]
            else:
                matrix = np.fft.ifft(matrix, axis=-1)
                matrix *= twists[:, j, None, None] * tables[:, j, None]
                matrix = np.fft.fft(matrix, axis=-1)
        if matrix is None:
            matrix = np.zeros((count, n, n), dtype=complex)
            matrix.reshape(count, n * n)[:, :: n + 1] = diagonal
        if stack is None:
            # one group, no copy into a separate stack
            return matrix
        stack[members] = matrix
    return stack


def _chirp_circulant(diagonal: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The fresh C-ordered (G, N, N) stack diagonal[g, i] column[g, (i - k) mod N]:
    entry [g, i, k] read from the doubled column at N + i - k, a strided
    view with a negative column stride (no index table, no gather)."""
    count, n = column.shape
    doubled = np.concatenate([column, column], axis=1)
    step = doubled.itemsize
    circulant = np.lib.stride_tricks.as_strided(
        doubled[:, n:], (count, n, n), (doubled.strides[0], step, -step), writeable=False
    )
    return np.multiply(diagonal[:, :, None], circulant, out=np.empty((count, n, n), dtype=complex))


class PhaseMatch(NamedTuple):
    equivalent: bool
    phase: complex | None


def _as_matrix(a) -> np.ndarray:
    return a.matrix if isinstance(a, ProjUnitary) else np.asarray(a, dtype=complex)


def _phase_fit(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The phases c = Tr(a b^dag) / N and the defects max(max |a b^dag - c I|,
    ||c| - 1|), NaN if any entry is, of a stack of (..., N, N) matrix pairs.
    |c| is taken with hypot, as Python's abs of a complex is; numpy's complex
    abs differs from it in the last bit."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    n = a.shape[-1]
    product = a @ b.conj().swapaxes(-1, -2)
    phase = product.trace(axis1=-2, axis2=-1) / n
    # c I touches only the diagonal; a NaN phase still reaches the residual
    product.reshape(*product.shape[:-2], n * n)[..., :: n + 1] -= phase[..., None]
    residual = np.abs(product).max(axis=(-2, -1))
    return phase, np.maximum(residual, np.abs(np.hypot(phase.real, phase.imag) - 1.0))


def equal_up_to_phase(a, b, tol: float = 1e-10) -> PhaseMatch:
    """Test whether a = phase * b for a unit-modulus scalar phase.

    Both arguments must be unitary for the test to be meaningful: it checks
    that a b^dag is within ``tol`` of phase * identity and returns the phase.
    """
    phase, defect = _phase_fit(a, b)
    # Written as "not <=" so that a NaN fails the test.
    if not defect <= tol:
        return PhaseMatch(False, None)
    return PhaseMatch(True, complex(phase))


def phase_defect(a, b) -> float:
    """Distance from 'equal up to a unit phase': max of the residual matrix
    norm against the best phase and the phase's deviation from unit modulus."""
    return float(_phase_fit(a, b)[1])


class UTable(NamedTuple):
    """U(S) as an exact table: entry [i, k] is
    scale * unit_roots(root_modulus)[exponents[i, k]] where support[i, k],
    and 0 elsewhere (where exponents holds 0). gcd = gcd(b, N) for the
    element's upper-right entry b; the support holds N^2/gcd entries and
    scale = sqrt(gcd / N), so every row has unit norm."""

    exponents: np.ndarray
    support: np.ndarray
    gcd: int
    scale: float
    root_modulus: int


def u_table(s: SympMat, parity: str) -> UTable:
    """U(S) as an exact table, straight from its closed form
    (weil.descriptor), with no matrix built, certified covariant for ``s``
    by weil.certify in O(1).

    Every U(S) is a common modulus m = sqrt(g/N) on N^2/g entries, with
    g = gcd(b, N), and zero elsewhere; its phases are roots of unity of
    order L = 8R (R = N odd, 2N even). A closed form that fails its
    certificate raises ValueError. The table costs _TABLE_ENTRY_BYTES per
    entry, BoundExceeded above.
    """
    n = hilbert_dim(s.modulus, parity)
    check_bytes(f"unitary table at dimension {n}", _TABLE_ENTRY_BYTES * n * n)
    form = descriptor(s, parity)
    if not certify(form, s, parity):
        raise ValueError(f"the closed form of U(S) for {s} fails weil.certify")
    return _descriptor_table(form)


def _descriptor_table(form) -> UTable:
    """A weil.Descriptor's table, in int64 arithmetic with no rounding: every
    row laid out at once by Descriptor.row_terms, whose products stay far
    inside int64 at any N the byte bounds admit."""
    n, root_modulus, g = form.dim, form.root_modulus, form.gcd
    rows = np.arange(n, dtype=np.int64)
    steps = np.arange(n // g, dtype=np.int64)
    residues, first, slopes = form.row_terms(rows)
    curve = int(form.coefficients[5]) % root_modulus
    exponents = np.multiply.outer(slopes, steps)
    exponents += first[:, None]
    exponents += (steps * (curve * steps % root_modulus))[None, :]
    exponents %= root_modulus
    if g == 1:
        support = np.ones((n, n), dtype=bool)
    else:
        # column k = g m' + r sits at [m', r] of a row viewed as (N/g, g)
        grid, exponents = exponents, np.zeros((n, n), dtype=np.int64)
        support = np.zeros((n, n), dtype=bool)
        exponents.reshape(n, n // g, g)[rows, :, residues] = grid
        support.reshape(n, n // g, g)[rows, :, residues] = True
    return UTable(exponents, support, g, float(np.sqrt(g / n)), root_modulus)


def _round_stack(stack: np.ndarray, elements) -> tuple[UTable, np.ndarray]:
    """The table of each U(S) of a (G, N, N) stack, stack[g] rounded for
    elements[g] (one modulus), as one UTable with a leading stack axis on
    each array field, and whether each one rounds (else its table is void).

    U(S) has N^2/g entries of modulus m = sqrt(g/N), g = gcd(b, N), and
    phases that are roots of unity of order L = 8R, so stack[g] rounds when
    each step passes a margin: the entries above m/2 in modulus must number
    exactly N^2/g, each within 1e-9 of m, every other entry must be below
    1e-9, and every phase within 1e-6 radians of an L-th root. A NaN fails
    a margin. O(N^2) per element.
    """
    n = stack.shape[-1]
    root_modulus = 8 * elements[0].modulus
    gcds = np.array([math.gcd(s.b, n) for s in elements])
    scales = np.sqrt(gcds / n)
    scale = scales[:, None, None]
    magnitude = np.abs(stack)
    support = magnitude > scale / 2
    counts = support.sum(axis=(1, 2))
    # |magnitude - m| on the support, magnitude off it
    moduli = np.abs(magnitude - np.where(support, scale, 0.0)).max(axis=(1, 2))
    turns = np.angle(stack)
    turns *= root_modulus / (2 * np.pi)
    nearest = np.rint(turns)
    turns -= nearest
    turns = np.where(support, np.abs(turns, out=turns), 0.0).max(axis=(1, 2))
    radians = turns * (2 * np.pi / root_modulus)
    exponents = np.where(support, nearest, 0.0).astype(np.int64) % root_modulus
    # written as "<" so that a NaN fails
    rounded = (counts == n * n // gcds) & (moduli < _MODULUS_MARGIN) & (radians < _PHASE_MARGIN)
    return UTable(exponents, support, gcds, scales, root_modulus), rounded


def _three_point_certified(tables: UTable, elements, parity: str) -> np.ndarray:
    """Whether each table V of a stacked UTable (as _round_stack gives) is
    exactly covariant for its own element (one modulus): one bool each.

    At each generating point q (lattice.GENERATING_POINTS), with Delta_q's
    row i holding rho^(e_q(i)) in column sigma_q(i) (qops.kernel_factors),
    both sides are gathers of V: (V Delta_q)[i, j] = V[i, k] rho^(e_q(k))
    with k = sigma_q^-1(j), and (Delta_(S.q) V)[i, j] =
    rho^(e_(S.q)(i)) V[sigma_(S.q)(i), j]. They are equal when their
    supports are, and their exponents agree mod the table's root modulus on
    that support: integer comparisons only, in O(N^2).

    By the argument stated with lattice.GENERATING_POINTS, a table that
    passes is unitary and U(S) Delta_p U(S)^dag = Delta_(S.p) at every
    point p, given its normalization |V|_F^2 = N: a U(S) table has N^2/g
    entries of modulus sqrt(g/N), which _round_stack's margins (or, for the
    closed form, weil.certify) enforce and a hand-made table need not meet.
    """
    exponents, support, _, _, r = tables
    count, n = exponents.shape[:2]
    a, b, c, d = np.array([s.entries for s in elements]).T[:, :, None]
    stack = np.arange(count)[:, None]
    certified = np.ones(count, dtype=bool)
    for x, y in GENERATING_POINTS:
        kernel = kernel_factors(n, parity, x, y)
        image = kernel_factors(n, parity, a * x + b * y, c * x + d * y)
        step = r // kernel.root_modulus
        inverse = np.argsort(kernel.cols)
        difference = exponents[:, :, inverse]
        difference += step * kernel.exponents[inverse]
        difference -= step * image.exponents[..., None]
        difference -= exponents[stack, image.cols]
        difference %= r
        on = support[:, :, inverse]
        difference[~on] = 0
        certified &= (on == support[stack, image.cols]).all(axis=(1, 2))
        certified &= ~difference.any(axis=(1, 2))
    return certified


def covariance_residual(u, s: SympMat, parity: str) -> float:
    """A certified upper bound on max over all points p of the entrywise
    norm of u Delta_p u^dag - Delta_(s.p), in O(N^2) with no unitary built;
    NaN if ``u`` holds a NaN.

    The reference comes from ``s`` alone: U(S)'s closed form, composed in
    integers along four_factor_word(s) (weil.descriptor) and certified
    exactly in O(1) (weil.certify), so that by the argument stated with
    lattice.GENERATING_POINTS its table V is unitary and
    V Delta_p V^dag = Delta_(s.p) at every point p. Otherwise the figure
    is inf. group_covariance reaches the same table by rounding a float
    U(S), and the figures agree bit for bit.

    With c = <V, u>_F / N (any c would do) and E = u - c V,
    u Delta_p u^dag - Delta_(s.p) = (|c|^2 - 1) Delta_(s.p) + c V Delta_p E^dag
    + conj(c) E Delta_p V^dag + E Delta_p E^dag. Delta_p is monomial with
    unit-modulus entries and V's rows have unit norm, so by Cauchy-Schwarz
    every entry at every p is at most B = ||c|^2 - 1| + 2 |c| r + r^2, with
    r the largest row 2-norm of E.

    Floating point, with eps = 2^-53: the float V' is within 32 eps m of V
    per entry (the angle 2 pi e / L, 26 eps; cos and sin, 2 eps;
    m = sqrt(g/N) and the product, 4 eps), so within 32 eps per row norm
    over a row's N/g support entries, and 0 off them. The product c V' and
    the difference add sqrt(5) eps |c| |V'| and eps |E'| per entry; float
    row norms are within (N + 4) eps, underflowing squares adding below
    sqrt(N) 2^-537, under 2^-520 at every admitted N. So
    r <= r' (1 + (N + 6) eps) + 35 eps |c| + 2^-520, and evaluating B in
    floats adds at most 8 eps B + 4 eps |c|^2.
    """
    matrix = _as_matrix(u)
    n = hilbert_dim(s.modulus, parity)
    if matrix.shape != (n, n):
        raise DimensionMismatch(
            f"unitary is {matrix.shape}, expected {(n, n)} for modulus {s.modulus}"
        )
    check_bytes(f"covariance bound at dimension {n}", _RESIDUAL_ENTRY_BYTES * n * n)
    form = descriptor(s, parity)
    exponents, support, gcd, scale, root_modulus = _descriptor_table(form)
    table = UTable(exponents[None], support[None], gcd, np.array([scale]), root_modulus)
    return float(_bounds(matrix[None], table, np.array([certify(form, s, parity)]))[0])


def _bounds(us: np.ndarray, tables: UTable, certified: np.ndarray) -> np.ndarray:
    """covariance_residual's bound B for each g of a (G, N, N) stack against
    the table of a stacked UTable (one scale per table), inf where
    certified[g] is false and the bound is not NaN."""
    n = us.shape[-1]
    values = unit_roots(tables.root_modulus)[tables.exponents]
    values *= tables.scale[:, None, None]
    values[~tables.support] = 0
    # an inf or huge entry of u makes the figure NaN or inf, quietly
    with np.errstate(invalid="ignore", over="ignore"):
        # conj(V) in place and back (both exact), so the product is the one
        # other N^2 array; a pairwise sum: one running sum over N^2 terms
        # drifts by about 1e-13 at N = 1830
        np.conjugate(values, out=values)
        phases = (values * us).sum(axis=(1, 2)) / n
        np.conjugate(values, out=values)
        # values becomes E = u - c V in place
        values *= phases[:, None, None]
        np.subtract(us, values, out=values)
        squares = np.abs(values)
        squares *= squares
        rows = np.sqrt(squares.sum(axis=2)).max(axis=1)
        unit = 2.0**-53
        size = np.hypot(phases.real, phases.imag)
        r = rows * (1 + (n + 6) * unit) + 35 * unit * size + 2.0**-520
        bound = (np.abs(size * size - 1) + 2 * size * r + r * r) * (1 + 8 * unit) + 4 * unit * size**2
    return np.where(certified | np.isnan(bound), bound, np.inf)


def _stack_dim(elements, parity: str) -> int:
    """The Hilbert dimension of ``elements``: at least one, one modulus."""
    moduli = {s.modulus for s in elements}
    if len(moduli) != 1:
        raise ModulusMismatch(f"a stack needs one modulus, got moduli {sorted(moduli)}")
    return hilbert_dim(moduli.pop(), parity)


def _passes(what: str, items: list, item_bytes: int, evaluate) -> np.ndarray:
    """evaluate(part) over ``items`` cut into passes of at most max(one item,
    _PASS_BYTES) of working set, joined. One item is refused through
    check_bytes first; each pass's arrays are freed before the next starts."""
    check_bytes(what, item_bytes)
    size = max(1, _PASS_BYTES // item_bytes)
    parts = [items[start : start + size] for start in range(0, len(items), size)]
    return np.concatenate([evaluate(part) for part in parts])


def group_covariance(elements, parity: str) -> np.ndarray:
    """covariance_residual(u_of(s).matrix, s, parity) for each of
    ``elements`` (one modulus), bit for bit, from stacked passes, each U(S)
    bounded against itself. The reference tables come from rounding the
    stack (_round_stack), certified by _three_point_certified; a U(S) that
    fails either gets inf, or NaN where it holds one. Every step runs on the
    stack, each element against its own images, so each figure is the
    one-element figure bit for bit and a NaN reaches only its own. One
    element counts as _BOUND_ENTRY_BYTES per entry: odd N <= 2047, even
    N <= 2048. No elements give an empty array."""
    elements = list(elements)
    if not elements:
        return np.empty(0)
    n = _stack_dim(elements, parity)

    def bounds(part):
        stack = _u_stack(part, parity)
        tables, rounded = _round_stack(stack, part)
        return _bounds(stack, tables, _three_point_certified(tables, part, parity) & rounded)

    element_bytes = _BOUND_ENTRY_BYTES * n * n
    return _passes(f"covariance check at dimension {n}", elements, element_bytes, bounds)


def group_projectivity(pairs, parity: str) -> np.ndarray:
    """phase_defect(u_of(s1 @ s2), u_of(s1).matrix @ u_of(s2).matrix) for
    each (s1, s2) of ``pairs`` (one modulus), bit for bit, from stacked
    passes. One pair counts as six N x N complex arrays, though it holds at
    most four at once: odd N <= 1671, even N <= 1672. No pairs give an
    empty array."""
    pairs = list(pairs)
    if not pairs:
        return np.empty(0)
    n = _stack_dim([s for pair in pairs for s in pair], parity)

    def defects(part):
        firsts, seconds = zip(*part)
        product = _u_stack(firsts, parity) @ _u_stack(seconds, parity)
        return _phase_fit(_u_stack([s1 @ s2 for s1, s2 in part], parity), product)[1]

    pair_bytes = 6 * n * n * np.dtype(complex).itemsize
    return _passes(f"projectivity pair at dimension {n}", pairs, pair_bytes, defects)
