import tracemalloc

import numpy as np
import pytest
from numpy.linalg import matrix_power

from conftest import weyl_symmetric
from phasepoint.lattice import EVEN, ODD, lattice_modulus
from phasepoint.metaplectic import apply_point, equal_up_to_phase, u_hminus, u_hplus, u_of
from phasepoint import oracle, qops, symplectic
from phasepoint.oracle import (
    integer_point_family,
    solve_covariance,
    verify_sw_kernel,
    verify_uniqueness,
)
from phasepoint.qops import delta_family, unit_roots
from phasepoint.symplectic import (
    ENUMERATION_BOUND,
    BoundExceeded,
    SympMat,
    bfs_decompose,
    enumerate_group,
    generator,
    h_t,
    random_element,
)


def test_solve_covariance_rediscovers_diagonal_generator():
    solution = solve_covariance(generator("-", 3), delta_family(3, ODD))
    assert solution.nullity == 1
    assert solution.unitary is not None
    match = equal_up_to_phase(solution.unitary, u_hminus(3, ODD).matrix, tol=1e-9)
    assert match.equivalent


def test_solve_covariance_rediscovers_fourier_like_generator():
    solution = solve_covariance(generator("+", 5), delta_family(5, ODD))
    assert solution.nullity == 1
    match = equal_up_to_phase(solution.unitary, u_hplus(5, ODD).matrix, tol=1e-9)
    assert match.equivalent


def test_solve_covariance_dimension_seven():
    solution = solve_covariance(generator("+", 7), delta_family(7, ODD))
    assert solution.nullity == 1
    match = equal_up_to_phase(solution.unitary, u_hplus(7, ODD).matrix, tol=1e-9)
    assert match.equivalent


def test_solve_covariance_even_doubled_group():
    solution = solve_covariance(generator("+", 4), delta_family(2, EVEN))
    assert solution.nullity == 1
    expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert equal_up_to_phase(solution.unitary, expected, tol=1e-9).equivalent


def test_unextended_even_group_has_no_unitary_representative():
    # Restricted to integer points with indices mod N, the covariance
    # constraints at N=2 degenerate (every kernel there is the identity),
    # so nothing pins down a representation: the solution space is the full
    # matrix space and no unitary representative is reported.
    family = integer_point_family(2)
    solution = solve_covariance(generator("+", 2), family)
    assert solution.nullity == 4
    assert solution.unitary is None
    # The deeper obstruction: h+ squares to the identity mod 2, but the
    # even-lattice generator representative does not square to a phase.
    assert (generator("+", 2) ** 2).is_identity
    u = u_hplus(2, EVEN).matrix
    assert not equal_up_to_phase(matrix_power(u, 2), np.eye(2)).equivalent


def test_solve_covariance_requires_closed_family():
    family = delta_family(3, ODD)
    del family[(1, 2)]
    with pytest.raises(ValueError):
        solve_covariance(generator("+", 3), family)
    with pytest.raises(ValueError):
        solve_covariance(generator("+", 3), {})


def test_solution_basis_actually_solves(rng):
    s = random_element(3, rng)
    family = delta_family(3, ODD)
    solution = solve_covariance(s, family)
    from phasepoint.metaplectic import apply_point

    for basis_matrix in solution.basis:
        for point, delta in family.items():
            moved = family[apply_point(s, point)]
            assert np.abs(basis_matrix @ delta - moved @ basis_matrix).max() < 1e-8


def test_bfs_identity_and_ht():
    assert bfs_decompose(SympMat.identity(5)).factors == ()
    word = bfs_decompose(h_t(5))
    assert word.evaluate() == h_t(5)
    assert len(word) <= 3


def test_bfs_reaches_whole_group():
    words = {s: bfs_decompose(s) for s in enumerate_group(3)}
    assert len(words) == 24
    for s, word in words.items():
        assert word.evaluate() == s


def test_bfs_refuses_moduli_above_enumeration_bound():
    assert bfs_decompose(h_t(ENUMERATION_BOUND)).evaluate() == h_t(ENUMERATION_BOUND)
    with pytest.raises(BoundExceeded):
        bfs_decompose(h_t(ENUMERATION_BOUND + 1))
    # raised before any table is built, so even a huge modulus fails at once
    with pytest.raises(BoundExceeded):
        bfs_decompose(h_t(1009))


def test_solve_covariance_refuses_systems_above_byte_bound(byte_bound):
    # 3.25 copies of the system's complex entries: 52 bytes per entry
    family = delta_family(3, ODD)
    system_bytes = len(family) * 3**4 * 52
    byte_bound(system_bytes)
    assert solve_covariance(generator("+", 3), family).nullity == 1
    byte_bound(system_bytes - 1)
    with pytest.raises(BoundExceeded):
        solve_covariance(generator("+", 3), family)


@pytest.mark.parametrize(
    "n,parity,allowed", [(13, ODD, True), (15, ODD, False), (10, EVEN, True), (12, EVEN, False)]
)
def test_solve_covariance_byte_bound_sizes(n, parity, allowed):
    # full-grid families: N^2 points at odd N, (2N)^2 on the doubled grid
    points = lattice_modulus(n, parity) ** 2
    assert (points * n**4 * 52 <= symplectic.SYSTEM_BYTES_BOUND) == allowed


def test_sw_kernel_odd():
    report = verify_sw_kernel(ODD, 5)
    assert report.hermiticity < 1e-12
    assert report.unit_trace < 1e-12
    assert report.traciality < 1e-12
    assert report.translation_covariance < 1e-12
    names = [name for name, _ in report.checks()]
    assert names == ["hermiticity", "unit_trace", "traciality", "translation_covariance"]


def test_sw_kernel_even():
    # Hermiticity is exact; the trace is 2 at integer points and 0 at ghost
    # points, so the worst deviation from 1 is exactly 1. Traciality fails
    # by the alias degeneracy and is reported, not asserted.
    report = verify_sw_kernel(EVEN, 2)
    assert report.hermiticity < 1e-12
    assert report.unit_trace == pytest.approx(1.0)
    assert report.traciality == pytest.approx(2.0)
    assert report.translation_covariance is None
    names = [name for name, _ in report.checks()]
    assert names == ["hermiticity", "unit_trace", "integer_trace"]


def test_uniqueness_reports():
    report = verify_uniqueness(generator("-", 3), ODD)
    assert report.nullity == 1
    assert report.unitary_found
    assert report.closed_form_residual < 1e-9

    report = verify_uniqueness(SympMat.identity(3), ODD)
    assert report.nullity == 1

    report = verify_uniqueness(generator("+", 4), EVEN)
    assert report.nullity == 1
    assert abs(abs(report.phase) - 1.0) < 1e-12
    assert report.closed_form_residual < 1e-9


def test_sw_kernel_propagates_nan_kernel_entry(monkeypatch):
    # The suite reads every entry through the roots table; at odd N each
    # kernel's diagonal entry is rho^0, so a NaN there reaches every figure.
    roots = oracle.unit_roots(3).copy()
    roots[0] = np.nan
    monkeypatch.setattr(oracle, "unit_roots", lambda m: roots)
    report = verify_sw_kernel(ODD, 3)
    assert np.isnan(report.hermiticity)
    assert np.isnan(report.unit_trace)
    assert np.isnan(report.translation_covariance)


def _graph_unitary(s, parity):
    nullity, candidate = oracle._covariance_graph(s, parity)
    unitary = None if candidate is None else oracle._unitarize(candidate)
    return nullity, unitary


@pytest.mark.parametrize("modulus,n,parity", [(3, 3, ODD), (5, 5, ODD), (7, 7, ODD), (4, 2, EVEN), (8, 4, EVEN)])
def test_graph_matches_svd_on_whole_group(modulus, n, parity):
    family = delta_family(n, parity)
    for s in enumerate_group(modulus):
        nullity, unitary = _graph_unitary(s, parity)
        solution = solve_covariance(s, family)
        assert nullity == solution.nullity == 1
        assert unitary is not None and solution.unitary is not None
        assert equal_up_to_phase(unitary, solution.unitary, tol=1e-9).equivalent


@pytest.mark.parametrize("n,parity", [(9, ODD), (15, ODD), (6, EVEN), (12, EVEN)])
def test_uniqueness_at_composite_dimensions(n, parity, rng):
    modulus = lattice_modulus(n, parity)
    for s in [h_t(modulus)] + [random_element(modulus, rng) for _ in range(3)]:
        report = verify_uniqueness(s, parity)
        assert report.nullity == 1
        assert report.unitary_found
        assert report.closed_form_residual < 1e-9


def one_exponent_mutant(point):
    """kernel_factors with one phase exponent, Delta_point[0, .], raised by 1."""

    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        exponents = factors.exponents
        hit = np.broadcast_to((x == point[0]) & (y == point[1]), exponents.shape).copy()
        hit[..., 1:] = False  # row 0 only
        raised = np.where(hit, (exponents + 1) % factors.root_modulus, exponents)
        return factors._replace(exponents=raised)

    return mutant


def one_permutation_mutant(point, source):
    """kernel_factors with Delta_point's permutation replaced by Delta_source's."""

    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        hit = np.broadcast_to((x == point[0]) & (y == point[1]), factors.cols.shape)
        other = qops.kernel_factors(n, parity, *source).cols
        return factors._replace(cols=np.where(hit, other, factors.cols))

    return mutant


@pytest.mark.parametrize("n,parity,point", [(5, ODD, (1, 2)), (4, EVEN, (3, 2))])
def test_uniqueness_rejects_one_exponent_mutant(monkeypatch, n, parity, point):
    # No matrix is covariant with the mutated family.
    modulus = lattice_modulus(n, parity)
    s = h_t(modulus)
    assert apply_point(s, point) != point
    assert verify_uniqueness(s, parity).unitary_found
    monkeypatch.setattr(oracle, "kernel_factors", one_exponent_mutant(point))
    report = verify_uniqueness(s, parity)
    assert report.nullity == 0 or not report.unitary_found


def test_uniqueness_builds_no_kernel_cache(no_dense_kernel):
    assert verify_uniqueness(h_t(7), ODD).unitary_found
    assert verify_uniqueness(h_t(8), EVEN).unitary_found


def test_uniqueness_refuses_graphs_above_byte_bound(byte_bound):
    graph_bytes = 3**2 * 3**2 * 32  # N^2 points at odd N = 3, N^2 edges each
    byte_bound(graph_bytes)
    assert verify_uniqueness(h_t(3), ODD).nullity == 1
    byte_bound(graph_bytes - 1)
    with pytest.raises(BoundExceeded):
        verify_uniqueness(h_t(3), ODD)


@pytest.mark.parametrize("n,parity", [(55, ODD), (40, EVEN)])
def test_uniqueness_graph_bound_sizes(n, parity):
    # odd N <= 53 and even N <= 38 fit; the next sizes are refused before
    # anything is built (far larger ones are tried in a capped child, in
    # tests/test_cli.py)
    modulus = lattice_modulus(n, parity)
    with pytest.raises(BoundExceeded):
        verify_uniqueness(h_t(modulus), parity)


def test_solve_covariance_matches_full_svd(rng):
    # Reference: the SVD of the whole stacked system, left factor included.
    for n, parity in [(3, ODD), (5, ODD), (2, EVEN), (4, EVEN)]:
        family = delta_family(n, parity)
        modulus = lattice_modulus(n, parity)
        for s in (h_t(modulus), random_element(modulus, rng)):
            stacked = np.vstack([
                np.kron(np.eye(n), family[p].T) - np.kron(family[apply_point(s, p)], np.eye(n))
                for p in sorted(family)
            ])
            _, singular, vh = np.linalg.svd(stacked, full_matrices=False)
            solution = solve_covariance(s, family)
            assert np.abs(solution.singular_values - singular).max() < 1e-10
            assert solution.nullity == 1
            assert equal_up_to_phase(
                solution.basis[0] * np.sqrt(n), vh[-1].conj().reshape(n, n) * np.sqrt(n), tol=1e-10
            ).equivalent



def dense_stacked_system(s, family, n):
    """The whole stacked covariance system, one kron pair per point."""
    return np.vstack([
        np.kron(np.eye(n), family[p].T) - np.kron(family[apply_point(s, p)], np.eye(n))
        for p in sorted(family)
    ])


def null_projector(vectors):
    """Orthogonal projector onto the span of orthonormal vectors."""
    flat = np.array([v.reshape(-1) for v in vectors])
    return flat.T @ flat.conj()


@pytest.mark.parametrize("n", [4, 6, 8])
def test_block_solve_matches_dense_svd_where_nullity_exceeds_one(n, rng):
    # integer points split the system into several components; a basis of a
    # null space of dimension > 1 is not unique, its projector is
    family = integer_point_family(n)
    for s in (generator("+", n), random_element(n, rng), random_element(n, rng)):
        _, singular, vh = np.linalg.svd(dense_stacked_system(s, family, n), full_matrices=False)
        rank = int((singular > oracle.SVD_CUTOFF * singular[0]).sum())
        solution = solve_covariance(s, family)
        assert np.abs(solution.singular_values - singular).max() < 1e-10
        assert solution.nullity == n * n - rank > 1
        assert solution.unitary is None
        dense = null_projector([row.conj() for row in vh[rank:]])
        assert np.abs(null_projector(solution.basis) - dense).max() < 1e-10


@pytest.mark.parametrize("n", [3, 5])
def test_block_solve_counts_missing_singular_values_as_zero(n, rng):
    # The origin alone: its parity kernel gives zero rows and leaves U[0, 0]
    # untouched, so some components have fewer rows than unknowns.
    family = {(0, 0): delta_family(n, ODD)[(0, 0)]}
    for s in (generator("+", n), random_element(n, rng)):
        singular = np.linalg.svd(dense_stacked_system(s, family, n), compute_uv=False)
        solution = solve_covariance(s, family)
        assert solution.singular_values.shape == (n * n,)
        assert np.abs(solution.singular_values - singular).max() < 1e-10
        assert solution.nullity == int((singular <= oracle.SVD_CUTOFF * singular[0]).sum()) > 1
    all_zero = solve_covariance(generator("+", 2), integer_point_family(2))
    assert np.array_equal(all_zero.singular_values, np.zeros(4))
    assert np.array_equal(null_projector(all_zero.basis), np.eye(4))

def test_solve_covariance_on_a_dense_family_with_one_component(rng):
    # every kernel conjugated by one random unitary V: no entry is zero, so
    # the system is one component, and V U(S) V^dag solves it
    n = 5
    gaussian = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(gaussian)
    family = {p: v @ delta @ v.conj().T for p, delta in delta_family(n, ODD).items()}
    unknowns, _ = oracle._components(dense_stacked_system(h_t(n), family, n) != 0)
    assert (unknowns == 0).all()
    for s in (generator("+", n), random_element(n, rng)):
        solution = solve_covariance(s, family)
        assert solution.nullity == 1
        expected = v @ u_of(s, ODD).matrix @ v.conj().T
        assert equal_up_to_phase(solution.unitary, expected, tol=1e-9).equivalent


@pytest.mark.parametrize("n,integer_points", [(7, False), (8, True)], ids=["odd-7-full-grid", "even-8-integer-points"])
def test_solve_covariance_peak_memory(n, integer_points):
    # check_bytes counts 3.25 copies of the system (points * N^4 complex
    # entries) for peak RSS; tracemalloc sees less, as LAPACK's workspace is
    # not traced
    family = integer_point_family(n) if integer_points else delta_family(n, ODD)
    s = generator("+", n)
    system_bytes = len(family) * n**4 * 16
    tracemalloc.start()
    try:
        solve_covariance(s, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * system_bytes


@pytest.mark.parametrize("n,parity,integer_points", [(3, ODD, False), (4, EVEN, True), (8, EVEN, True)])
def test_nan_in_family_gives_no_solution(n, parity, integer_points):
    # A NaN where a kernel is zero is refused before the system is built,
    # not left to numpy's SVD.
    clean = integer_point_family(n) if integer_points else delta_family(n, parity)
    for point in [(0, 0), (1, 1)]:
        family = dict(clean)
        family[point] = family[point].copy()
        family[point][tuple(np.argwhere(family[point] == 0)[0])] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            solve_covariance(generator("+", n), family)

def test_unitarize_rejects_nan_candidates():
    candidate = np.eye(3, dtype=complex) / np.sqrt(3)
    assert np.abs(oracle._unitarize(candidate) - np.eye(3)).max() < 1e-12
    candidate[0, 1] = np.nan
    assert oracle._unitarize(candidate) is None
    assert oracle._unitarize(np.full((3, 3), np.nan, dtype=complex)) is None


def test_uniqueness_with_nan_roots_finds_no_unitary(monkeypatch):
    # the gain graph's nullity is an integer count; the NaN reaches only the
    # candidate built from the roots table, which must not pass as unitary
    roots = unit_roots(3).copy()
    roots[0] = np.nan
    monkeypatch.setattr(oracle, "unit_roots", lambda m: roots)
    report = verify_uniqueness(generator("-", 3), ODD)
    assert report.nullity == 1
    assert not report.unitary_found
    assert report.phase is None and report.closed_form_residual is None

def dense_translation_defect(family, n):
    """The dense product W^dag Delta W against its image, at every point and shift."""
    worst = []
    for mp in range(n):
        for np_ in range(n):
            weyl = weyl_symmetric(n, 2 * mp, 2 * np_)
            for (m, nn), delta in family.items():
                moved = family[((m - 2 * mp) % n, (nn - 2 * np_) % n)]
                worst.append(np.abs(weyl.conj().T @ delta @ weyl - moved).max())
    return np.max(worst)


def all_shifts_translation_defect(cols: np.ndarray, exponents: np.ndarray) -> float:
    """max |W^dag Delta_(x,y) W - Delta_(x-m',y-n')| over every point and every
    W = weyl_symmetric(N, m', n'), from the odd tables indexed [x * N + y, row].

    (W^dag K W)[a, b] = w^(n'(b - a)) K[a + m', b + m'], so the conjugated
    kernel's row a holds rho^e rho^phi (e = e_p(a + m'), phi = n'(b - a))
    at b = sigma_p(a + m') - m', and the image's holds rho^f at sigma_q(a).
    Where the columns agree the defect is |rho^e rho^phi - rho^f|; elsewhere
    both entries stand alone, as triples (e, phi, none) and (none, 0, f) with
    rho^none = 0. The triples are marked one m' slice at a time (N^4
    entries, about 14 B each), and the defect is taken once per triple.
    """
    n = cols.shape[1]
    cols, exponents = cols.reshape(n, n, n), exponents.reshape(n, n, n)
    idx = np.arange(n)
    small = np.min_scalar_type(n)
    small_cols, small_exponents = cols.astype(small), exponents.astype(small)
    # times[n', d] = n' d mod N; shifts[n', y] = y - n' mod N
    times = (idx[:, None] * idx % n).astype(small)
    shifts = (idx - idx[:, None]) % n
    none = n
    seen = np.zeros((n + 1) ** 3, dtype=bool)
    key = np.empty((n,) * 4, dtype=np.intp)  # reused by every slice
    for mp in range(n):
        rows = (idx + mp) % n
        # source p = (x, y) on axes (x, y, a); image q = (x - m', y - n')
        # on axes (n', x, y, a)
        source_cols = (cols[:, :, rows] - mp) % n
        image = (((idx - mp) % n)[:, None], shifts[:, None])
        image_exponents = small_exponents[image]
        apart = small_cols[image] != source_cols
        np.add(exponents[:, :, rows] * (n + 1), times[:, (source_cols - idx) % n], out=key)
        key *= n + 1
        key += np.where(apart, none, image_exponents)
        seen[key] = True
        seen[none * (n + 1) ** 2 + image_exponents[apart].astype(np.intp)] = True
    e, phi, f = np.unravel_index(np.flatnonzero(seen), (n + 1,) * 3)
    roots = np.append(unit_roots(n), 0)
    return float(np.abs(roots[e] * roots[phi] - roots[f]).max())


def odd_tables(factors_of, n):
    """The (cols, exponents) tables of every odd point, indexed [x * N + y, row]."""
    xs, ys = np.divmod(np.arange(n * n), n)
    factors = factors_of(n, ODD, xs[:, None], ys[:, None])
    return factors.cols, factors.exponents


@pytest.mark.parametrize("n", [3, 5, 7])
def test_sw_translation_matches_dense_conjugation(n):
    reference = dense_translation_defect(delta_family(n, ODD), n)
    assert abs(verify_sw_kernel(ODD, n).translation_covariance - reference) < 1e-15
    tables = odd_tables(qops.kernel_factors, n)
    assert abs(all_shifts_translation_defect(*tables) - reference) < 1e-15


@pytest.mark.parametrize("n", [3, 9, 31, 53])
def test_sw_translation_is_exact_on_true_tables(n):
    # exponents are summed mod N before the roots lookup
    assert verify_sw_kernel(ODD, n).translation_covariance == 0.0


@pytest.mark.parametrize("n", [9, 15, 31])
def test_sw_translation_true_tables_pass_both_checks(n):
    assert verify_sw_kernel(ODD, n).translation_covariance < 1e-12
    assert all_shifts_translation_defect(*odd_tables(qops.kernel_factors, n)) < 1e-12


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("kind", ["exponent", "permutation"])
def test_sw_translation_rejects_mutant_at_every_point(monkeypatch, n, kind):
    for x in range(n):
        for y in range(n):
            if kind == "exponent":
                mutant = one_exponent_mutant((x, y))
            else:
                mutant = one_permutation_mutant((x, y), ((x + 1) % n, y))
            assert all_shifts_translation_defect(*odd_tables(mutant, n)) > 0.5
            monkeypatch.setattr(oracle, "kernel_factors", mutant)
            assert verify_sw_kernel(ODD, n).translation_covariance > 0.5


def test_sw_kernel_peak_memory_at_largest_odd_dimension():
    tracemalloc.start()
    try:
        verify_sw_kernel(ODD, 53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


@pytest.mark.parametrize("n,parity,allowed", [(31, ODD, True), (55, ODD, False), (38, EVEN, True), (40, EVEN, False)])
def test_sw_kernel_shares_graph_bound(n, parity, allowed):
    # the uniqueness graph's bound: odd N <= 53 and even N <= 38
    if allowed:
        assert verify_sw_kernel(parity, n).hermiticity < 1e-12
    else:
        with pytest.raises(BoundExceeded):
            verify_sw_kernel(parity, n)


def test_sw_kernel_refuses_tables_above_byte_bound(byte_bound):
    table_bytes = 3**2 * 3**2 * 32  # N^2 points at odd N = 3, N^2 entries each
    byte_bound(table_bytes)
    assert verify_sw_kernel(ODD, 3).translation_covariance < 1e-12
    byte_bound(table_bytes - 1)
    with pytest.raises(BoundExceeded):
        verify_sw_kernel(ODD, 3)


def dense_figures(family, n):
    """Hermiticity, unit trace and traciality of the dense kernel stack."""
    stack = np.array([family[p] for p in sorted(family)])
    hermiticity = np.abs(stack - stack.conj().transpose(0, 2, 1)).max()
    unit_trace = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).max()
    flat = stack.reshape(len(stack), -1)
    traciality = np.abs(flat.conj() @ flat.T - n * np.eye(len(stack))).max()
    return hermiticity, unit_trace, traciality


@pytest.mark.parametrize(
    "n,parity", [(3, ODD), (5, ODD), (7, ODD), (9, ODD), (2, EVEN), (4, EVEN), (6, EVEN), (8, EVEN)]
)
def test_sw_kernel_matches_dense_reference(n, parity):
    # Hermiticity and trace take the same floating-point operations on the
    # same entries as the dense stack, so they agree exactly.
    hermiticity, unit_trace, traciality = dense_figures(delta_family(n, parity), n)
    report = verify_sw_kernel(parity, n)
    assert report.hermiticity == hermiticity
    assert report.unit_trace == unit_trace
    assert abs(report.traciality - traciality) < 1e-14


@pytest.mark.parametrize("n,parity,point", [(5, ODD, (1, 2)), (4, EVEN, (3, 2))])
def test_sw_kernel_rejects_one_exponent_mutant(monkeypatch, n, parity, point):
    monkeypatch.setattr(oracle, "kernel_factors", one_exponent_mutant(point))
    report = verify_sw_kernel(parity, n)
    assert report.hermiticity > 1e-12
    if parity == ODD:
        assert report.translation_covariance > 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 38])
def test_sw_kernel_even_integer_trace(n):
    # Tr Delta_(j,k) is 2 where j and k are both even and 0 everywhere else
    assert verify_sw_kernel(EVEN, n).integer_trace < 1e-12


@pytest.mark.parametrize("n,point", [(4, (0, 2)), (8, (0, 0))])
def test_sw_kernel_integer_trace_rejects_mutant_at_fixed_row(monkeypatch, n, point):
    # row 0 is a fixed row of Delta_(0,k): its column is (0 - 0) mod N. One
    # step of the root of order 2N moves the trace by 2 sin(pi / 2N).
    monkeypatch.setattr(oracle, "kernel_factors", one_exponent_mutant(point))
    defect = verify_sw_kernel(EVEN, n).integer_trace
    assert defect == pytest.approx(2 * np.sin(np.pi / (2 * n)), abs=1e-12)


def test_sw_kernel_builds_no_kernel_cache(no_dense_kernel):
    assert verify_sw_kernel(ODD, 7).translation_covariance < 1e-12
    assert verify_sw_kernel(EVEN, 6).hermiticity < 1e-12


def test_integer_point_family_byte_bound(byte_bound):
    family_bytes = 2**2 * 2**2 * 16  # N^2 integer points at even N = 2
    byte_bound(family_bytes)
    assert len(integer_point_family(2)) == 4
    byte_bound(family_bytes - 1)
    with pytest.raises(BoundExceeded):
        integer_point_family(2)
    # the default bound admits even N <= 64
    with pytest.raises(BoundExceeded):
        integer_point_family(66)


def cyclic_mutant(n, parity, x, y):
    """kernel_factors with every permutation replaced by i -> i + 1, which
    is no involution."""
    factors = qops.kernel_factors(n, parity, x, y)
    return factors._replace(cols=np.broadcast_to((np.arange(n) + 1) % n, factors.cols.shape))


@pytest.mark.parametrize(
    "mutant",
    [one_exponent_mutant((1, 2)), one_permutation_mutant((1, 2), (2, 2)), cyclic_mutant],
    ids=["exponent", "permutation", "cyclic"],
)
def test_sw_kernel_of_mutant_matches_dense_reference(monkeypatch, mutant):
    # Every figure of a mutated family is measured like the dense one, also
    # where a kernel's columns disagree with its adjoint's or its image's.
    n = 5
    family = {}
    for x in range(n):
        for y in range(n):
            factors = mutant(n, ODD, x, y)
            family[(x, y)] = np.zeros((n, n), dtype=complex)
            family[(x, y)][np.arange(n), factors.cols] = unit_roots(n)[factors.exponents]
    hermiticity, unit_trace, traciality = dense_figures(family, n)
    translation = dense_translation_defect(family, n)
    monkeypatch.setattr(oracle, "kernel_factors", mutant)
    report = verify_sw_kernel(ODD, n)
    assert translation > 0.5
    assert report.hermiticity == hermiticity
    assert report.unit_trace == unit_trace
    assert abs(report.traciality - traciality) < 1e-14
    assert abs(report.translation_covariance - translation) < 1e-15


def test_sw_kernel_refuses_partly_agreeing_permutations(monkeypatch):
    # The Gram blocks between classes are zero only if any two permutations
    # agree on every row or on none; one moved column breaks that.
    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        hit = np.broadcast_to((x == 1) & (y == 2), factors.cols.shape).copy()
        hit[..., 1:] = False  # row 0 only
        return factors._replace(cols=np.where(hit, (factors.cols + 1) % n, factors.cols))

    monkeypatch.setattr(oracle, "kernel_factors", mutant)
    with pytest.raises(ValueError, match="agree"):
        verify_sw_kernel(ODD, 5)
