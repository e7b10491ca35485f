"""Independent verification of the representation and kernel claims.

Nothing here reuses the closed forms it checks. Every phase point operator
is monomial, Delta_p[i, sigma_p(i)] = rho^(e_p(i)), so the oracles read
integer tables and build no dense system: uniqueness is the solution count
of a gain graph over integer phases (verify_uniqueness on kernel_factors'
tables over the certified fold of the doubled grid, solve_covariance on any
monomial family read from its matrices; one solver and one edge bound for
both), and the kernel properties are table identities (verify_sw_kernel),
translation at the two Weyl generators, which give every shift. The
factorization oracle is bfs_decompose.

What depends on the lattice alone, kernel_factors' tables over the whole
grid, every sigma_p^-1 with its gains and the fold certificate (every
doubled-grid table checked against lattice.fold_exponent), is one read-only
plan per (N, parity) (_Plan). Plans of at most 1 MiB (odd N <= 31, even
N <= 18) are memoised in an eight-slot lru_cache keyed by (N, parity), so
memoised plans never hold more than 8 MiB; a larger plan is built inside
the call and dropped with it. Every figure and every check is still computed
on each call, and none depends on whether the plan was memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from . import qops
from .lattice import EVEN, ODD, check_parity, fold_exponent, hilbert_dim, lattice_modulus
from .metaplectic import equal_up_to_phase, u_of
from .qops import KernelFactors, delta_at, kernel_factors, unit_roots
from .symplectic import SympMat, apply_point, check_bytes

UNITARY_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9
# solve_covariance's distance allowed between a nonzero and its root of unity
_ROOT_TOL = 1e-9
# _covariance_graph's bytes per (grid point, row) of its plan: columns,
# exponents, their argsort and gains, and the fold certificate's temporaries
# (tracemalloc peak of the plan's build: 33 B at odd N = 53 and even N = 40, 52)
_GRID_ROW_BYTES = 64
# the uniqueness graph's bytes per edge, one per (built point, entry of U),
# for _covariance_graph and solve_covariance (whose stacked read is freed
# before its edges are built) alike: an intp predecessor index and an int32
# gain and offer, 16 B. Admitted: the N^2 representatives at odd N <= 53 and
# even N <= 52, full-grid families at odd N <= 53 and even N <= 38.
# Tracemalloc peak, tables and read included: 16.6 B per edge for the
# representatives at odd N = 53 and 18.6 B at even N = 52 (plan built in
# the call), 18-19 B for full grids at odd N = 45, 53 and even N = 32, 38
# (set by the read); 25-31 B where every label is lowered by the rounds
# (singleton starts at odd N = 25 and even N = 24)
_EDGE_BYTES = 32
# verify_sw_kernel's bytes per (grid point, row): its tables, their roots and
# the per-check temporaries (tracemalloc peak 98 B at odd N = 53, 111 and
# 162-163 B at even N = 38, 70; 92 B at odd N = 9 and 153 B at even N = 8
# with the plan memoised, 134 and 191 B where the call builds it)
_KERNEL_ROW_BYTES = 192


class _Plan(NamedTuple):
    """Read-only tables of one lattice that both oracles read, rows indexed
    by the grid index x * M + y of the M^2 points (M = N odd, 2N even):

    - xs, ys: each point's coordinates;
    - factors: its kernel_factors table, sigma_p (cols) and e_p (exponents),
      M^2 x N;
    - into[p] = sigma_p^-1, the argsort of cols[p], and gain[p] =
      e_p(sigma_p^-1(.)), the exponents read through it: M^2 x N each;
    - built: the grid indexes of the N^2 representatives (x mod N, y mod N),
      the points whose edges _covariance_graph builds;
    - folds: the fold certificate, whether every table is its
      representative's with lattice.fold_exponent added to every exponent
      (true on odd lattices, where every point is its own representative).

    That is 32 B per (point, row), plus 16 B per point and 8 B per
    representative: odd N <= 31 and even N <= 18 fit in
    qops._PLAN_MEMO_BYTES.
    A plan built for the kernel suite alone (above the memo's bytes) holds
    only xs, ys and factors, all the suite reads; the rest is None.
    """

    xs: np.ndarray
    ys: np.ndarray
    factors: KernelFactors
    into: np.ndarray | None = None
    gain: np.ndarray | None = None
    built: np.ndarray | None = None
    folds: bool = False

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        graph = (self.into, self.gain, self.built)
        return (self.xs, self.ys, *self.factors[:2], *(a for a in graph if a is not None))

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.arrays)


def _sigma_inverse(factors: KernelFactors) -> tuple[np.ndarray, np.ndarray]:
    """Every row's sigma^-1 (the argsort of its columns) and its exponents
    read through it."""
    into = np.argsort(factors.cols, axis=1)
    return into, np.take_along_axis(factors.exponents, into, 1)


def _build_plan(n: int, parity: str, graph: bool = True) -> _Plan:
    """The _Plan of the lattice, its tables from the module's kernel_factors
    at the call; without ``graph``, only its coordinates and tables."""
    side = lattice_modulus(n, parity)
    xs, ys = np.divmod(np.arange(side * side), side)
    factors = kernel_factors(n, parity, xs[:, None], ys[:, None])
    plan = _Plan(xs, ys, factors)
    if graph:
        cols, exponents, r = factors
        fold = xs % n * side + ys % n
        folds = side == n or bool(
            (cols == cols[fold]).all()
            and not ((exponents - exponents[fold] - fold_exponent(xs, ys, n)[:, None]) % r).any()
        )
        built = np.flatnonzero(fold == np.arange(side * side))
        plan = _Plan(xs, ys, factors, *_sigma_inverse(factors), built, folds)
    for array in plan.arrays:
        array.flags.writeable = False
    return plan


_plan_memo = lru_cache(maxsize=qops._PLAN_SLOTS)(_build_plan)


def _lattice_plan(what: str, n: int, parity: str, row_bytes: int, graph: bool = True) -> _Plan:
    """The lattice's _Plan, after BoundExceeded above ``row_bytes`` per
    (point, row): from _plan_memo, keyed by (N, parity), when its bytes,
    32 M^2 N + 16 M^2 + 8 N^2 counted before anything is built, fit
    qops._PLAN_MEMO_BYTES, else built for this call alone (with ``graph``
    False, only its coordinates and tables)."""
    side = lattice_modulus(n, parity)
    points = side * side
    check_bytes(f"{what} of {points} points at dimension {n}", points * n * row_bytes)
    if 32 * points * n + 16 * points + 8 * n * n <= qops._PLAN_MEMO_BYTES:
        return _plan_memo(n, parity)
    return _build_plan(n, parity, graph)


def _check_edge_bytes(n: int, points: int) -> None:
    """Refuse the uniqueness graph's points * N^2 edges above _EDGE_BYTES each."""
    edges = points * n * n
    what = f"uniqueness graph over {edges} (point, entry) pairs at dimension {n}"
    check_bytes(what, edges * _EDGE_BYTES)


@dataclass(eq=False)
class CovarianceSolution:
    """Solution space of the covariance relation for one group element.

    ``basis`` spans all matrices U with U Delta_p = Delta_(S.p) U for every
    point p of the supplied family: one unit-norm matrix per balanced
    component of the gain graph, components by smallest entry. ``unitary``
    is set only when the space is one-dimensional and its generator can be
    scaled to a unitary; the scaling fixes the first entry of significant
    magnitude to be real positive.
    """

    nullity: int
    basis: list[np.ndarray]
    unitary: np.ndarray | None


def solve_covariance(
    s: SympMat, deltas: Mapping[tuple[int, int], np.ndarray]
) -> CovarianceSolution:
    """Solve U Delta_p = Delta_(S.p) U over all points p of ``deltas``.

    The family must be closed under ``s`` (keys mod s.modulus) and monomial
    over the 2N-th roots (_monomial_tables), as every phase point operator
    is; it is read into integer tables once and solved by the gain graph of
    _covariance_graph (_gain_graph), every point's edges built. The BFS
    starts from (0, 0), (1, 0) and (0, 1) where the family holds them, else
    from its first three points. Raises ValueError for a family that is
    empty, not closed, not finite or not monomial, and BoundExceeded above
    the graph's _EDGE_BYTES per (point, entry) (_check_edge_bytes); both
    before the graph is built, the bound before the family is read. The
    basis, one dense N x N matrix per balanced component, is refused in the
    same way after the graph and before any of it is built.
    """
    points = sorted(deltas)
    if not points:
        raise ValueError("empty phase point family")
    dim = deltas[points[0]].shape[0]
    _check_edge_bytes(dim, len(points))
    side = s.modulus
    xs, ys = np.array(points).T
    # each point's grid index x * M + y; -1 off the canonical grid, where
    # no image (canonical, apply_point) lands
    keys = np.where((xs >= 0) & (xs < side) & (ys >= 0) & (ys < side), xs * side + ys, -1)
    order = np.argsort(keys)

    def find(wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the family's index of each grid index ``wanted``, and whether it is there
        found = order[np.searchsorted(keys, wanted, sorter=order).clip(max=keys.size - 1)]
        return found, keys[found] == wanted

    moved_x, moved_y = apply_point(s, (xs, ys))
    image, closed = find(moved_x * side + moved_y)
    if not closed.all():
        first = np.argmin(closed)
        missing = (int(moved_x[first]), int(moved_y[first]))
        raise ValueError(f"family is not closed under the action: missing {missing}")
    factors = _monomial_tables(np.stack([deltas[point] for point in points]))
    generators, held = find(np.array([0, side, 1]))  # (0, 0), (1, 0) and (0, 1)
    starts = generators if held.all() else range(min(3, len(points)))
    label, phase, roots = _gain_graph(
        factors, *_sigma_inverse(factors), image, np.arange(len(points)),
        [(p, image[p]) for p in starts],
    )
    basis_bytes = len(roots) * dim * dim * np.dtype(complex).itemsize
    check_bytes(f"covariance basis of {len(roots)} components at dimension {dim}", basis_bytes)
    basis = [_component_vector(label, phase, root, factors.root_modulus, dim) for root in roots]
    unitary = _unitarize(basis[0]) if len(basis) == 1 else None
    return CovarianceSolution(len(basis), basis, unitary)


def _monomial_tables(source: np.ndarray) -> KernelFactors:
    """The (points, N, N) kernels ``source`` as KernelFactors over R = 2N:
    each row's one nonzero, rho^(e(i)) with rho = exp(2 pi i / 2N), in
    column sigma(i). An odd lattice's N-th roots read as even exponents,
    which keeps every balanced component. Raises ValueError where an entry
    is not finite, where a row or column holds other than one nonzero, or
    where a nonzero is farther than _ROOT_TOL from every power of rho.
    """
    if not np.isfinite(source).all():
        raise ValueError("phase point family has a kernel that is not finite")
    nonzero = source != 0
    if (nonzero.sum(axis=2) != 1).any() or (nonzero.sum(axis=1) != 1).any():
        raise ValueError("phase point family is not monomial: one nonzero per row and column")
    r = 2 * source.shape[1]
    cols = nonzero.argmax(axis=2)
    values = np.take_along_axis(source, cols[..., None], 2)[..., 0]
    exponents = np.rint(np.angle(values) * (r / (2 * np.pi))).astype(np.int64) % r
    if not np.abs(values - unit_roots(r)[exponents]).max() <= _ROOT_TOL:
        raise ValueError(f"phase point family has an entry that is not a {r}-th root of unity")
    return KernelFactors(cols, exponents, r)


def _unitarize(candidate: np.ndarray) -> np.ndarray | None:
    # Candidates (gain-graph solutions) have unit
    # Frobenius norm; a unitary multiple must be sqrt(dim) times that.
    # A NaN defect fails the comparison, so a NaN entry gives None.
    dim = candidate.shape[0]
    scaled = candidate * np.sqrt(dim)
    defect = np.abs(scaled.conj().T @ scaled - np.eye(dim)).max()
    if not defect <= UNITARY_TOL:
        return None
    flat = scaled.reshape(-1)
    leading = flat[np.abs(flat) > 0.5 / np.sqrt(dim)][0]
    return scaled * (abs(leading) / leading)


def integer_point_family(n: int) -> dict[tuple[int, int], np.ndarray]:
    """Even-lattice kernels restricted to integer points, indexed mod N.

    Keys (m, nn) run over Z_N x Z_N and map to the doubled-coordinate kernel
    at (2m, 2nn). Feeding this family to solve_covariance probes whether the
    unextended modulus-N group alone pins down a representation. Its 16 N^4
    bytes are refused before anything is built above N = 64.
    """
    check_parity(n, EVEN)
    size = n**4 * np.dtype(complex).itemsize
    check_bytes(f"integer point family of {n * n} points at dimension {n}", size)
    return {
        (m, nn): delta_at(n, EVEN, (2 * m, 2 * nn))
        for m in range(n)
        for nn in range(n)
    }


@dataclass(eq=False)
class SWKernelReport:
    """Measured worst-case residuals of the kernel property suite.

    Odd lattices measure all four properties. Even lattices measure
    hermiticity and unit trace on the full doubled grid, the integer trace
    (the deviation of Tr Delta_(j,k) from 2 where j and k are both even and
    from 0 elsewhere) and the (not asserted) traciality figure; translation
    covariance has no even-lattice counterpart here.
    """

    parity: str
    dim: int
    hermiticity: float
    unit_trace: float
    traciality: float
    translation_covariance: float | None
    integer_trace: float | None

    def checks(self) -> list[tuple[str, float]]:
        """Name/residual pairs for the properties asserted at this parity."""
        named = [("hermiticity", self.hermiticity), ("unit_trace", self.unit_trace)]
        if self.parity != ODD:
            return named + [("integer_trace", self.integer_trace)]
        named.append(("traciality", self.traciality))
        named.append(("translation_covariance", self.translation_covariance))
        return named


def verify_sw_kernel(parity: str, n: int) -> SWKernelReport:
    """Measure hermiticity, trace, pairwise traciality and translation covariance.

    Read from the plan's kernel_factors tables sigma_p (cols) and e_p
    (exponents), looked up or built once per lattice (_lattice_plan; above
    the memo's bytes the tables alone are built for the call), with
    a_p(i) = rho^(e_p(i)) in row i: hermiticity is |a(i) -
    [sigma(sigma(i)) = i] conj(a(sigma(i)))|, the trace sums a(i) over the
    fixed points of sigma (on even lattices also compared with 2 at integer
    points and 0 at the others), and Tr(Delta_p^dag Delta_q) sums
    conj(a_p) a_q over the rows where sigma_p and sigma_q agree. Any two
    permutations must agree on every row or on none (else ValueError), so the Gram matrix is
    block diagonal over the classes of equal permutations; the classes are
    read off sigma_p(0), one comparison per table entry (no sort of the
    rows), and _traciality takes every block in one product. Translation
    (_weyl_generator_defect) compares each kernel with its image under the
    two Weyl generators, O(N^3), by index gathers, in integers: the roots
    are evaluated once per distinct pair of exponents compared. Every figure
    and check is computed on each call. BoundExceeded above _KERNEL_ROW_BYTES per
    (lattice point, row), odd N = 111 and even N = 70, before the plan is
    looked up or built.
    """
    plan = _lattice_plan("kernel suite", n, parity, _KERNEL_ROW_BYTES, graph=False)
    cols, exponents, r = plan.factors
    values = unit_roots(r)[exponents]
    rows = np.arange(n)
    involution = np.take_along_axis(cols, cols, 1) == rows
    mirrored = np.take_along_axis(values, cols, 1).conj()
    hermiticity = float(np.abs(values - np.where(involution, mirrored, 0)).max())
    trace = np.where(cols == rows, values, 0).sum(axis=1)
    unit_trace = float(np.abs(trace - 1.0).max())
    integer_trace = None
    if parity != ODD:
        integer_point = (plan.xs % 2 == 0) & (plan.ys % 2 == 0)
        integer_trace = float(np.abs(trace - np.where(integer_point, 2.0, 0.0)).max())
    # classes by first column: a row unlike its class's first, or two
    # classes sharing a value in some column, agree on some rows but not all;
    # with neither, they are the classes of equal permutations
    _, first, label = np.unique(cols[:, 0], return_index=True, return_inverse=True)
    perms = cols[first]
    if (cols != perms[label]).any() or (np.diff(np.sort(perms, axis=0), axis=0) == 0).any():
        raise ValueError("two kernel permutations agree on some rows but not all")
    traciality = _traciality(values, label)
    translation = _weyl_generator_defect(cols, exponents) if parity == ODD else None
    return SWKernelReport(
        parity, n, hermiticity, unit_trace, traciality, translation, integer_trace
    )


def _traciality(values: np.ndarray, label: np.ndarray) -> float:
    """max |Tr(Delta_p^dag Delta_q) - N [p = q]| within the classes of
    ``label``, from the kernels' nonzeros ``values`` (one row per point): the
    classes, in point order, zero-padded into one (classes, largest, N)
    stack and every Gram block taken in one product. Padded rows give only
    zeros; a NaN entry gives NaN. BoundExceeded above SYSTEM_BYTES_BOUND for
    the Gram stack, before it is built.
    """
    n = values.shape[1]
    sizes = np.bincount(label)
    classes, largest = sizes.size, int(sizes.max())
    check_bytes(
        f"traciality Gram stack of {classes} classes of up to {largest} kernels",
        classes * largest * largest * np.dtype(complex).itemsize,
    )
    order = np.argsort(label, kind="stable")
    sorted_label = label[order]
    slot = np.arange(order.size) - (np.cumsum(sizes) - sizes)[sorted_label]
    blocks = np.zeros((classes, largest, n), dtype=complex)
    blocks[sorted_label, slot] = values[order]
    gram = blocks.conj() @ blocks.swapaxes(1, 2)
    present = np.arange(largest) < sizes[:, None]
    gram.reshape(classes, largest * largest)[:, :: largest + 1] -= np.where(present, n, 0)
    return float(np.abs(gram).max())


def _weyl_generator_defect(cols: np.ndarray, exponents: np.ndarray) -> float:
    """max |W^dag Delta_(x,y) W - Delta_(x-m',y-n')| over every point, from the
    odd tables indexed [x * N + y, row], for the Weyl generators (m', n') =
    (1, 0) and (0, 1); conjugation drops phases, so they decide every shift.

    For (1, 0), row a - 1 is row a of Delta_p moved one column left; for
    (0, 1), row a keeps column sigma_p(a) and its exponent gains
    sigma_p(a) - a. The image of (x, y) sits one step back on the
    generator's axis: for (1, 0) one roll on two axes (_step_back) gives its
    row a - 1 at [x, y, a], for (0, 1) one gather along y its row a. A true
    table gives 0. Where the columns differ, the defect is the larger
    modulus of the two.

    The tables are compared in integers, with no division: columns by their
    difference (1 or 1 - N where a column moved left is the image's), and
    each entry marks its triple of moved exponent (left unreduced, below
    3N), image exponent and whether the columns differ. |rho^e - rho^f| or
    max(|rho^e|, |rho^f|) is then evaluated once per triple that occurs, at
    most 6 N^2 of them: the same maximum, bit for bit, as over every entry,
    a NaN root included.
    """
    n = cols.shape[1]
    cols, exponents = cols.reshape(n, n, n), exponents.reshape(n, n, n)
    back = (np.arange(n) - 1) % n
    seen = np.zeros((2, 3 * n, n), dtype=bool)

    def mark(apart, moved_exponents, image_exponents):
        triple = moved_exponents * n
        triple += image_exponents
        triple += apart * (3 * n * n)
        seen.reshape(-1)[triple] = True

    step = cols - _step_back(cols)
    mark((step != 1) & (step != 1 - n), exponents, _step_back(exponents))
    raised = exponents + cols + (n - np.arange(n))
    mark(cols != cols.take(back, 1), raised, exponents.take(back, 1))
    apart, moved_exponents, image_exponents = np.nonzero(seen)
    roots = unit_roots(n)
    moved, image = roots[moved_exponents % n], roots[image_exponents]
    defect = np.where(apart, np.maximum(abs(moved), abs(image)), abs(moved - image))
    return float(defect.max())


def _step_back(table: np.ndarray) -> np.ndarray:
    """table[x - 1, y, a - 1] at [x, y, a], indexes mod N: np.roll(table, 1,
    (0, 2)) of an (N, N, N) table, in four slice copies (np.roll over two
    axes took three times as long at odd N = 9, and as long at 111)."""
    out = np.empty_like(table)
    out[1:, :, 1:], out[1:, :, 0] = table[:-1, :, :-1], table[:-1, :, -1]
    out[0, :, 1:], out[0, :, 0] = table[-1, :, :-1], table[-1, :, -1]
    return out


@dataclass(eq=False)
class UniquenessReport:
    """Outcome of re-deriving one representation matrix from covariance alone."""

    nullity: int
    unitary_found: bool
    phase: complex | None
    closed_form_residual: float | None


def _covariance_graph(s: SympMat, parity: str) -> tuple[int, np.ndarray | None]:
    """Exact solution space of U Delta_p = Delta_(S.p) U over every lattice
    point p (the doubled grid on even lattices).

    Returns the nullity and, when it is 1, the solution scaled to unit
    Frobenius norm. Every kernel is monomial: Delta_p[i, sigma_p(i)] =
    rho^(e_p(i)), with sigma_p and e_p read from kernel_factors and rho the
    root of unity of order R = N (odd) or 2N (even). With q = S.p, entry
    (u, sigma_p(w)) of the relation reads

        U[sigma_q(u), sigma_p(w)] = rho^(e_p(w) - e_q(u)) U[u, w],

    an edge (u, w) -> (sigma_q(u), sigma_p(w)) with an integer gain mod R.
    A solution is rho^phi up to scale on each component whose cycles all
    have gain 0 mod R (balanced) and zero on the others, so the nullity is
    the number of balanced components, an exact integer.

    The lattice's plan (_lattice_plan, built once per lattice) holds every
    point's kernel_factors table, rows indexed by the grid index x * M + y,
    every sigma^-1 (one argsort of the columns) with its gains, and the
    fold certificate: every table is its representative's (x mod N,
    y mod N) with lattice.fold_exponent c_p added. Per element only the
    rest is computed: q's rows, a gather at the grid index of apply_point's
    output, the three-point start and the rounds. With det S = 1,
    c_p - c_(S.p) is the same across each fold class (fold_exponent), so
    every edge of p, (u, w) -> (sigma_q(u), sigma_p(w)), has its
    representative's gain, and only the N^2 representatives' edges are
    built (a quarter of the doubled grid; on odd lattices every point is its
    own representative). Tables that fail the certificate, as a mutated
    kernel can, raise ValueError for every element before any edge is
    built, as verify_sw_kernel does for permutations that agree on some
    rows but not all.

    Each point contributes a permutation of the N^2 entries, so every
    component is strongly connected and propagation along the edges alone
    reaches all of it. A breadth-first search over the three generating
    points (0, 0), (1, 0) and (0, 1), from each unreached entry in increasing
    order, starts every entry at the smallest entry of its three-point
    component, with a phase from there (_three_point_start). Then
    _gain_graph's rounds run over all built edges from those labels. Where
    the three points already connect each component, as the Schur argument
    says they do, the first round is the last; an edge that joins or
    contradicts three-point components is caught as without the start.

    Raises BoundExceeded, before the plan is looked up or built, when the
    N^2 representatives' edges (one per point and entry of U) would exceed
    _EDGE_BYTES each or the grid tables _GRID_ROW_BYTES per point and row.
    """
    n = hilbert_dim(s.modulus, parity)
    side = s.modulus
    _check_edge_bytes(n, n * n)
    plan = _lattice_plan("uniqueness graph tables", n, parity, _GRID_ROW_BYTES)
    if not plan.folds:
        raise ValueError("doubled-grid kernel tables fail the fold certificate")
    moved_x, moved_y = apply_point(s, (plan.xs, plan.ys))
    image = moved_x * side + moved_y
    pairs = [(p, image[p]) for p in (0, side, 1)]
    label, phase, roots = _gain_graph(plan.factors, plan.into, plan.gain, image, plan.built, pairs)
    if len(roots) != 1:
        return len(roots), None
    return 1, _component_vector(label, phase, roots[0], plan.factors.root_modulus, n)


def _gain_graph(
    factors: KernelFactors,
    into: np.ndarray,
    gain: np.ndarray,
    image: np.ndarray,
    built: np.ndarray,
    pairs: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label and phase of every entry of U, and the balanced components'
    roots in increasing order, for the gain graph of the table rows
    ``factors`` (one per point) with their sigma^-1 ``into`` and ``gain``
    (_sigma_inverse), ``image`` the row of each point's image, with the
    edges of the rows ``built`` and the breadth-first start over the
    (point, image) rows ``pairs`` (_three_point_start).

    Each round, every entry takes the smallest component label among its
    predecessors, with the phase carried along that edge, until a round
    lowers no label; that last round also checks every edge against the
    phases found. A component is balanced where its root, its smallest
    entry, is its own label and no edge contradicts it.
    """
    n, r = factors.cols.shape[1], factors.root_modulus
    span = 3 * r
    # int32 holds every key and offer below N^2 labels of 3R each
    small = np.int32 if (n * n + 1) * span <= np.iinfo(np.int32).max else np.int64
    # Entry u' * N + w' has one predecessor per point, at the flat index
    # sigma_q^-1(u') * N + sigma_p^-1(w') (intp, which np.take reads without
    # a cast), reached with gain e_p(sigma_p^-1(w')) - e_q(sigma_q^-1(u')),
    # lifted by R to lie in (0, 2R).
    moved = image[built]
    source = ((into[moved] * n)[:, :, None] + into[built][:, None, :]).reshape(len(built), n * n)
    lift = gain[built].astype(small)[:, None, :] - gain[moved].astype(small)[:, :, None]
    lift += r
    lift = lift.reshape(len(built), n * n)

    # Each entry's key is label * 3R + phase, its phase below R; an offer
    # adds the lifted gain to its predecessor's key, so its label stays the
    # predecessor's and its phase, below 3R, is unreduced. A minimum over
    # offers picks the smallest label; where that lowers an entry's label,
    # the phase it takes is the smallest reduced phase offered with it.
    label, phase = _three_point_start(factors, pairs)
    while True:
        floor = label * span
        key = (floor + phase).astype(small)
        offered = key.take(source)
        offered += lift
        best = offered.min(axis=0)
        lower = best < floor
        if not lower.any():
            break
        label[lower] = best[lower] // span
        # the offers carrying the new label, less its floor, lie below 3R
        offers = offered[:, lower]
        offers -= label[lower] * span
        others = offers >= span
        offers %= r
        offers[others] = r
        phase[lower] = offers.min(axis=0)
    # an offer agrees with its entry's key when it carries the same label
    # and a phase that reduces to the entry's (the index and gains are
    # dropped first, so the check's temporaries do not raise the peak)
    del source, lift
    offered -= key
    consistent = ((offered == 0) | (offered == r) | (offered == 2 * r)).all(axis=0)
    balanced = label == np.arange(n * n)
    balanced[label[~consistent]] = False
    return label, phase, np.flatnonzero(balanced)


def _component_vector(
    label: np.ndarray, phase: np.ndarray, root: int, r: int, n: int
) -> np.ndarray:
    """The (N, N) solution on the component of ``root``: rho^phase there,
    zero elsewhere, scaled to unit Frobenius norm."""
    support = label == root
    solution = np.where(support, unit_roots(r)[phase], 0) / np.sqrt(support.sum())
    return solution.reshape(n, n)


def _three_point_start(
    factors: KernelFactors, pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Label and phase of every entry of U from a breadth-first search over
    the edges of the (point, image) table rows ``pairs``, roots taken in
    increasing order: each label is the smallest entry of its component in
    those edges, where the phase is 0. Plain lists: N^2 edges per pair.
    """
    cols, exponents, r = factors
    n = cols.shape[1]
    moves = [
        (cols[p].tolist(), exponents[p].tolist(), cols[q].tolist(), exponents[q].tolist())
        for p, q in pairs
    ]
    label, phase = [-1] * (n * n), [0] * (n * n)
    for root in range(n * n):
        if label[root] >= 0:
            continue
        label[root] = root
        queue = [root]
        for node in queue:
            u, w = divmod(node, n)
            here = phase[node]
            for sigma_p, e_p, sigma_q, e_q in moves:
                reached = sigma_q[u] * n + sigma_p[w]
                if label[reached] < 0:
                    label[reached] = root
                    phase[reached] = (here + e_p[w] - e_q[u]) % r
                    queue.append(reached)
    return np.array(label), np.array(phase)


def verify_uniqueness(s: SympMat, parity: str) -> UniquenessReport:
    """Solve covariance for ``s`` from scratch and compare to the word product.

    The solution space over every lattice point comes from an exact gain
    graph over integer phases (no dense kernel, no singular-value cutoff).
    A one-dimensional space containing a unitary confirms both the
    uniqueness claim and (through the returned phase) agreement with the
    constructive route, u_of's product along the four-factor word. Raises
    BoundExceeded above odd N = 53 and even N = 52 (_EDGE_BYTES per edge,
    N^2 edges for each of the N^2 representatives whose edges are built),
    and ValueError where the doubled grid's tables fail the fold
    certificate (_covariance_graph). The kernel suite, verify_sw_kernel, has
    its own bound and runs further.
    """
    nullity, candidate = _covariance_graph(s, parity)
    unitary = _unitarize(candidate) if candidate is not None else None
    if unitary is None:
        return UniquenessReport(nullity, False, None, None)
    constructed = u_of(s, parity).matrix
    match = equal_up_to_phase(unitary, constructed, CLOSED_FORM_TOL)
    phase = match.phase if match.phase is not None else 1.0
    residual = float(np.abs(unitary - phase * constructed).max())
    return UniquenessReport(nullity, True, match.phase, residual)
