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
sum of its first column, an eighth root of unity (the chirp structure of
Appleby, J. Math. Phys. 46, 052107, 2005). So U(h+)^k is
lambda_0^k F^-1 diag rho^(-k e(f)) F, with F the length-N DFT. Arbitrary
elements are represented through their four-factor words
h-^x h+^b' h-^z h+^(-t) (symplectic.four_factor_word), which costs a few
column scalings and at most two FFT pairs; any word for the same element
gives the same matrix up to a global phase. No phase gauge is imposed, and
comparisons go through equal_up_to_phase.

group_covariance and group_projectivity check many elements or pairs in bounded
passes over (G, N, N) stacks, each figure bit for bit the one-element figure.

u_table reads U(S) back as exact integers: a support of N^2/g entries, with
g = gcd(b, N), of common modulus sqrt(g/N), whose phases are roots of unity
of order 8R (again Appleby's chirp structure). intertwining_defect checks
covariance on that table exactly, at three points, in O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import ODD, DimensionMismatch, check_parity, hilbert_dim
from .modring import ModulusMismatch
from .qops import kernel_factors, unit_roots
from .symplectic import SympMat, check_bytes, four_factor_word

# Working set of one pass of group_covariance and group_projectivity
_PASS_BYTES = 2**20
# u_table's rounding margins: entry moduli, and phases in radians
_MODULUS_MARGIN = 1e-9
_PHASE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class ProjUnitary:
    """A unitary defined up to global phase."""

    matrix: np.ndarray

    def __post_init__(self):
        # a copy: freezing the caller's own array would be a side effect
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _unitary_bytes(n: int) -> int:
    """Working set of one U(S) build: four N x N complex arrays."""
    return 4 * n * n * np.dtype(complex).itemsize


def _generator_exponents(n: int, parity: str) -> tuple[np.ndarray, int]:
    """The generators' exponent table e(i) and its root modulus R.

    u_hplus reads it at (i - k) mod N: on odd lattices (d+N)(d+2N)/2 and
    d(d+N)/2 differ by dN + N^2, and on even ones (d+N)^2 and d^2 differ by
    2dN + N^2 with N even, so both are 0 mod R.

    Every unitary builder starts here, so this is where one unitary's working
    set is bounded, before anything is allocated: four N x N complex arrays.
    u_of's tracemalloc peak was 49-52 bytes per entry at N = 255..512, and
    u_hplus and u_hminus peak at 32. The bound admits N <= 2048.
    """
    check_parity(n, parity)
    check_bytes(f"unitary at dimension {n}", _unitary_bytes(n))
    return _exponent_table(n, parity)


@lru_cache(maxsize=None)
def _exponent_table(n: int, parity: str) -> tuple[np.ndarray, int]:
    """_generator_exponents once per lattice, read-only; O(N) entries."""
    i = np.arange(n)
    if parity == ODD:
        # i and i+N have opposite parity, so the product is even.
        exponents, r = (i * (i + n)) // 2 % n, n
    else:
        exponents, r = (i * i) % (2 * n), 2 * n
    exponents.flags.writeable = False
    return exponents, r


@lru_cache(maxsize=None)
def _chirp_eighth(n: int, parity: str) -> int:
    """lambda_0, the sum of U(h+)'s first column, as the exponent of an
    exact eighth root of unity; using it keeps lambda_0^k free of rounding
    that would grow with k."""
    exponents, r = _exponent_table(n, parity)
    lambda_0 = unit_roots(r)[exponents].sum() / np.sqrt(n)
    return round(float(np.angle(lambda_0)) * 4 / np.pi) % 8


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
    generator power gives exactly that power of u_hplus or u_hminus; any
    other word for the same element agrees up to a single global phase.
    BoundExceeded above N = 2048, before anything is built.
    """
    return ProjUnitary(_u_stack([s], parity)[0])


def _u_stack(elements, parity: str) -> np.ndarray:
    """U(S) for each of ``elements`` (one modulus, at least one), as a
    (G, N, N) stack whose g-th matrix is u_of(elements[g]).

    Along a four-factor word, U(h-)^k scales column i by rho^(k e(i)), and
    U(h+)^k is applied as an inverse FFT along the rows, a scaling by its
    eigenvalues lambda_0^k rho^(-k e(f)) and a forward FFT. Elements whose
    normalized words have the same sign pattern (at most nine patterns) take
    those steps together along the last axis, each with its own exponents,
    which gives every matrix bit for bit. One element's working set is
    bounded by _generator_exponents; _passes bounds how many a stack holds.
    """
    n = hilbert_dim(elements[0].modulus, parity)
    exponents, r = _generator_exponents(n, parity)
    roots = unit_roots(r)
    eighth = _chirp_eighth(n, parity)
    groups: dict[tuple[str, ...], tuple[list[int], list[tuple[int, ...]]]] = {}
    for index, s in enumerate(elements):
        factors = four_factor_word(s).factors
        members, powers = groups.setdefault(tuple(sign for sign, _ in factors), ([], []))
        members.append(index)
        powers.append(tuple(k for _, k in factors))
    stack = np.empty((len(elements), n, n), dtype=complex) if len(groups) > 1 else None
    for signs, (members, powers) in groups.items():
        count = len(members)
        matrix = np.zeros((count, n, n), dtype=complex)
        matrix.reshape(count, n * n)[:, :: n + 1] = 1
        powers = np.array(powers, dtype=int)
        # column scalings rho^(k e(i)) for h-^k, eigenvalue tables rho^(-k e(f)) for h+^k
        signed = powers * np.array([-1 if sign == "+" else 1 for sign in signs], dtype=int)
        tables = roots[signed[:, :, None] * exponents % r]
        twists = unit_roots(8)[eighth * powers % 8]
        for j, sign in enumerate(signs):
            if sign == "-":
                matrix *= tables[:, j, None]
            else:
                matrix = np.fft.ifft(matrix, axis=-1)
                matrix *= twists[:, j, None, None] * tables[:, j, None]
                matrix = np.fft.fft(matrix, axis=-1)
        if stack is None:
            # one group, no copy into a separate stack: u_of holds four arrays at most
            return matrix
        stack[members] = matrix
    return stack


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


def apply_point(s: SympMat, point: tuple[int, int]) -> tuple[int, int]:
    """Linear action of a symplectic element on a lattice point, mod s.modulus."""
    m, n = point
    return ((s.a * m + s.b * n) % s.modulus, (s.c * m + s.d * n) % s.modulus)


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

    def residual(self, u) -> float:
        """max |u - table|, entrywise: how far a float matrix is from the
        table; NaN if any entry of ``u`` is."""
        values = self.scale * unit_roots(self.root_modulus)[self.exponents]
        return float(np.abs(_as_matrix(u) - np.where(self.support, values, 0)).max())


def u_table(s: SympMat, parity: str, u=None) -> UTable:
    """U(S) as an exact table, read off ``u`` (by default u_of(s, parity))
    by rounding.

    Every U(S) is a common modulus m = sqrt(g/N) on N^2/g entries, with
    g = gcd(b, N), and zero elsewhere; its phases are roots of unity of
    order L = 8R (R = N odd, 2N even), L covering the 4R that odd lattices
    and the 2R that even ones were seen to need. Each rounding passes a
    margin, or ValueError is raised: the entries above m/2 in modulus must
    number exactly N^2/g, each within 1e-9 of m, every other entry must be
    below 1e-9, and every phase within 1e-6 radians of an L-th root. A NaN
    fails a margin. O(N^2) beyond the build of u.
    """
    n = hilbert_dim(s.modulus, parity)
    matrix = u_of(s, parity).matrix if u is None else _as_matrix(u)
    if matrix.shape != (n, n):
        raise DimensionMismatch(f"unitary is {matrix.shape}, expected {(n, n)}")
    g = math.gcd(s.b, n)
    scale = math.sqrt(g / n)
    magnitude = np.abs(matrix)
    support = magnitude > scale / 2
    count = int(support.sum())
    if count != n * n // g:
        raise ValueError(f"{count} entries near modulus {scale}, expected N^2/g = {n * n // g}")
    # written as "not <" so that a NaN fails
    if not np.abs(magnitude[support] - scale).max() < _MODULUS_MARGIN:
        raise ValueError(f"an entry's modulus is not within {_MODULUS_MARGIN} of {scale}")
    if count < n * n and not magnitude[~support].max() < _MODULUS_MARGIN:
        raise ValueError(f"an entry off the support is not below {_MODULUS_MARGIN}")
    root_modulus = 8 * s.modulus
    turns = np.angle(matrix[support]) * (root_modulus / (2 * np.pi))
    nearest = np.rint(turns)
    if not np.abs(turns - nearest).max() * (2 * np.pi / root_modulus) < _PHASE_MARGIN:
        raise ValueError(f"a phase is not within {_PHASE_MARGIN} of a {root_modulus}-th root")
    exponents = np.zeros((n, n), dtype=np.int64)
    exponents[support] = nearest.astype(np.int64) % root_modulus
    return UTable(exponents, support, g, scale, root_modulus)


def intertwining_defect(table: UTable, s: SympMat, parity: str) -> float:
    """max |V Delta_q - Delta_(S.q) V| over q = (0, 0), (1, 0), (0, 1), for
    the table V; exactly 0.0 for a true table, NaN if its scale is.

    With Delta_q's row i holding rho^(e_q(i)) in column sigma_q(i)
    (qops.kernel_factors), both sides are gathers of V:
    (V Delta_q)[i, j] = V[i, k] rho^(e_q(k)) with k = sigma_q^-1(j), and
    (Delta_(S.q) V)[i, j] = rho^(e_(S.q)(i)) V[sigma_(S.q)(i), j]. The
    exponents are subtracted mod the table's root modulus before the root
    lookup, so equal entries give exactly 0; where one side's entry is off
    the support and the other's is on it, the defect there is the table's
    scale. O(N^2).

    Three points suffice. Delta_(0,1) Delta_(0,0) is the clock Z and
    Delta_(1,0) Delta_(0,0) the shift T on even lattices (Z^2 and T^-2 on
    odd ones, which generate Z and T since 2 is invertible mod N), so the
    three kernels generate the full matrix algebra M_N. By the existence
    theorem some unitary U_0 is covariant at every point. If V intertwines
    the three kernels with their images, U_0^-1 V commutes with a generating
    set of M_N, so by Schur's lemma V = c U_0. A u_table table has
    N^2/g entries of modulus sqrt(g/N), so |V|_F^2 = N = |U_0|_F^2 and
    |c| = 1: V is unitary and U(S) Delta_p U(S)^dag = Delta_(S.p) at every
    point p. The premise is that normalization, which u_table's margins
    enforce and a hand-made table need not meet.
    """
    n = hilbert_dim(s.modulus, parity)
    if table.exponents.shape != (n, n) or table.support.shape != (n, n):
        raise DimensionMismatch(f"table is {table.exponents.shape}, expected {(n, n)}")
    r = table.root_modulus
    # |1 - rho^d| for each exponent difference d, exactly 0 at d = 0
    chords = np.abs(1 - unit_roots(r))
    exponents, support = table.exponents, table.support
    defects = []
    for point in ((0, 0), (1, 0), (0, 1)):
        kernel = kernel_factors(n, parity, *point)
        image = kernel_factors(n, parity, *apply_point(s, point))
        step = r // kernel.root_modulus
        inverse = np.argsort(kernel.cols)
        left = exponents[:, inverse] + step * kernel.exponents[inverse]
        right = step * image.exponents[:, None] + exponents[image.cols]
        left_support, right_support = support[:, inverse], support[image.cols]
        both = table.scale * chords[(left - right) % r]
        either = np.where(left_support != right_support, table.scale, 0.0)
        defects.append(np.where(left_support & right_support, both, either).max())
    return float(np.max(defects))


def _covariance_bytes(n: int) -> int:
    """Working set of one covariance residual: three N^3 blocks, the gather
    and the product block (complex) and the magnitude block (real), 40 bytes
    per N^3; its tracemalloc peak was 41 bytes per N^3 at N = 63 and 95, the
    rest being O(N^2) temporaries."""
    return n**3 * (2 * np.dtype(complex).itemsize + np.dtype(float).itemsize)


def check_covariance_bound(n: int) -> None:
    """Refuse a covariance residual at dimension ``n`` before it starts,
    above the byte bound: odd N <= 187 and even N <= 188 pass."""
    check_bytes(f"covariance residual at dimension {n}", _covariance_bytes(n))


def covariance_residual(u, s: SympMat, parity: str) -> float:
    """Worst-case covariance defect of ``u`` against ``s`` over all phase points.

    Returns max over points p of the entrywise norm of
    U Delta_p U^dag - Delta_(s.p); NaN if any defect is NaN. The one-element
    case of _covariance_residuals.

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
    return float(_covariance_residuals(matrix[None], [s], parity)[0])


def _covariance_residuals(us: np.ndarray, elements, parity: str) -> np.ndarray:
    """covariance_residual(us[g], elements[g], parity) for each g of a
    (G, N, N) stack, as one array; elements share one modulus.

    The GEMM per momentum index y is batched over the stack, and each
    element's image kernels come from its own (a, b, c, d), so every figure
    is the one-element figure bit for bit, NaN included, and a NaN in one
    matrix reaches only its own figure. One element's working set is bounded
    by check_covariance_bound; _passes bounds how many a stack holds.
    """
    count = len(elements)
    modulus = elements[0].modulus
    n = hilbert_dim(modulus, parity)
    check_covariance_bound(n)
    rows = np.arange(n)
    xs = rows[:, None]
    ys = rows[:, None, None, None]
    # source[y] is the row of points (x, y); image[y] their images, per element
    source = kernel_factors(n, parity, xs, ys[..., 0])
    a, b, c, d = np.array([s.entries for s in elements]).T[:, :, None, None]
    image_x = (a * xs + b * ys) % modulus
    image_y = (c * xs + d * ys) % modulus
    r = source.root_modulus
    roots = unit_roots(r)
    # gather[g, i, x * N + k] = (Pi_x U_g^dag)[i, k]
    gather = us.conj().transpose(0, 2, 1)[:, source.cols.T].reshape(count, n, n * n)
    # The N^3 buffers are allocated once: with a fresh pair per row, where
    # the allocator placed them moved the process's peak RSS by several MB
    # from one build of the same code to the next.
    products = np.empty((count, n, n, n), dtype=complex)
    magnitudes = np.empty((count, n, n, n))
    # flat offset of products[g, i, x, 0] at [g, x, i]
    offsets = ((np.arange(count)[:, None, None] * n + rows) * n + xs) * n
    defects = np.empty((n, count))
    for y in range(n):
        image = kernel_factors(n, parity, image_x[y], image_y[y])
        # products[g, i, x, k] = (U_g Z_y Pi_x U_g^dag)[i, k]
        np.matmul(us * roots[source.diag[y]], gather, out=products.reshape(count, n, n * n))
        exponents = (image.diag + image.const - source.const[y]) % r
        # the image kernel is supported at (i, image.cols[g, x, i]) in block x
        products.reshape(-1)[offsets + image.cols] -= roots[exponents]
        defects[y] = np.abs(products, out=magnitudes).max(axis=(1, 2, 3))
    return defects.max(axis=0)


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
    ``elements`` (one modulus), bit for bit, from stacked passes. One element
    counts as one U(S) build and one residual: odd N <= 187, even N <= 188.
    No elements give an empty array."""
    elements = list(elements)
    if not elements:
        return np.empty(0)
    n = _stack_dim(elements, parity)
    return _passes(
        f"covariance check at dimension {n}", elements, _unitary_bytes(n) + _covariance_bytes(n),
        lambda part: _covariance_residuals(_u_stack(part, parity), part, parity),
    )


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
