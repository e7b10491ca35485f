import tracemalloc

import numpy as np
import pytest
from numpy.linalg import matrix_power

from conftest import weyl_symmetric
from phasepoint.lattice import EVEN, ODD, fold_exponent, hilbert_dim, lattice_modulus
from phasepoint.metaplectic import equal_up_to_phase, u_hminus, u_hplus, u_of
from phasepoint import oracle, qops
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
    apply_point,
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
    # 32 B per (point, entry), the graph's edge: the stacked read is freed
    # before the edges are built
    family = delta_family(3, ODD)
    graph_bytes = len(family) * 3**2 * 32
    byte_bound(graph_bytes)
    assert solve_covariance(generator("+", 3), family).nullity == 1
    byte_bound(graph_bytes - 1)
    with pytest.raises(BoundExceeded):
        solve_covariance(generator("+", 3), family)


def test_solve_covariance_refuses_a_basis_above_byte_bound(byte_bound):
    # the origin alone at odd N = 9: its 81 edges (2592 B) fit, but its
    # (N^2 + 1) / 2 = 41 balanced components each need a dense N x N basis
    # matrix, 16 B per entry, refused after the graph
    family = {(0, 0): qops.delta_at(9, ODD, (0, 0))}
    basis_bytes = 41 * 9 * 9 * 16
    byte_bound(basis_bytes)
    assert solve_covariance(h_t(9), family).nullity == 41
    byte_bound(basis_bytes - 1)
    assert 9 * 9 * 32 <= basis_bytes - 1
    with pytest.raises(BoundExceeded, match="basis of 41 components"):
        solve_covariance(h_t(9), family)


@pytest.mark.parametrize(
    "n,parity,allowed",
    [(13, ODD, True), (45, ODD, True), (53, ODD, True), (55, ODD, False),
     (10, EVEN, True), (32, EVEN, True), (38, EVEN, True), (40, EVEN, False)],
)
def test_solve_covariance_byte_bound_sizes(n, parity, allowed):
    # full-grid families (N^2 points at odd N, (2N)^2 on the doubled grid)
    # of one shared zero kernel: an admitted size is read and refused as not
    # monomial, a larger one is refused before it is read. The former dense
    # system's bound admitted odd N <= 13 and even N <= 10.
    side = lattice_modulus(n, parity)
    zero = np.zeros((n, n), dtype=complex)
    family = {(x, y): zero for x in range(side) for y in range(side)}
    with pytest.raises(ValueError, match="not monomial" if allowed else "above the bound"):
        solve_covariance(h_t(side), family)


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
    assert np.isnan(report.traciality)
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
        solution = dense_solve_covariance(s, family)
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


def one_exponent_mutant(point, whole=False, fold=False):
    """kernel_factors with one phase exponent, Delta_point[0, .], raised by 1
    (with ``whole``, every row's: the kernel times one root; with ``fold``,
    at every point equal to ``point`` mod N, its representative and three
    folded copies on the doubled grid, which keeps the fold certified)."""

    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        exponents = factors.exponents
        if fold:
            at = (x % n == point[0] % n) & (y % n == point[1] % n)
        else:
            at = (x == point[0]) & (y == point[1])
        hit = np.broadcast_to(at, exponents.shape).copy()
        if not whole:
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


@pytest.mark.parametrize(
    "n,parity,point", [(5, ODD, (1, 2)), (4, EVEN, (3, 2)), (4, EVEN, (5, 2)), (4, EVEN, (2, 4))]
)
def test_uniqueness_rejects_one_exponent_mutant(mutant_kernels, n, parity, point):
    # No matrix is covariant with the mutated family. On the doubled grid,
    # at a representative (3, 2) or a folded point (5, 2), (2, 4), the mutant
    # fails the fold certificate and is refused; an odd mutant reaches the
    # graph.
    modulus = lattice_modulus(n, parity)
    s = h_t(modulus)
    assert apply_point(s, point) != point
    assert verify_uniqueness(s, parity).unitary_found
    mutant_kernels(one_exponent_mutant(point))
    if parity == EVEN:
        with pytest.raises(ValueError, match="fold certificate"):
            verify_uniqueness(s, parity)
        return
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


@pytest.mark.parametrize("n,parity", [(55, ODD), (54, EVEN)])
def test_uniqueness_graph_bound_sizes(n, parity):
    # odd N <= 53 and even N <= 52 (the N^2 representatives of the certified
    # fold) fit; the next sizes are refused before anything is built (far
    # larger ones are tried in a capped child, in tests/test_cli.py)
    modulus = lattice_modulus(n, parity)
    with pytest.raises(BoundExceeded):
        verify_uniqueness(h_t(modulus), parity)


def test_uniqueness_refuses_uncertified_grid_above_bound(mutant_kernels):
    # Even N = 40 is admitted through its certified fold, though the whole
    # doubled grid's edges (6400 points) are above the bound; a mutant at a
    # folded point fails the certificate and is refused before any edge is
    # built.
    assert verify_uniqueness(h_t(80), EVEN).unitary_found
    mutant_kernels(one_exponent_mutant((41, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="fold certificate"):
            verify_uniqueness(h_t(80), EVEN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grid tables within their bound
    assert peak <= 6400 * 40 * oracle._GRID_ROW_BYTES


def grid_image(s):
    """Grid index x * M + y of the image of every lattice point under s."""
    side = s.modulus
    x, y = apply_point(s, np.divmod(np.arange(side * side), side))
    return x * side + y


@pytest.mark.parametrize("n", [2, 4, 6, 16, 32, 52])
def test_fold_certificate_holds_on_whole_group(n, rng):
    # fold_exponent(p) - fold_exponent(S.p) is the same across each fold
    # class, so every point has its representative's edges: on all of
    # Sp_4, Sp_8 and Sp_12, and on 50 seeded elements at even 16, 32, 52
    side = 2 * n
    xs, ys = np.divmod(np.arange(side * side), side)
    fold = xs % n * side + ys % n
    if n <= 6:
        elements = enumerate_group(side)
    else:
        elements = [random_element(side, rng) for _ in range(50)]
    for s in elements:
        gap = (fold_exponent(xs, ys, n) - fold_exponent(*apply_point(s, (xs, ys)), n)) % side
        assert np.array_equal(gap, gap[fold])


WHOLE_GROUPS = [(3, ODD), (5, ODD), (7, ODD), (9, ODD), (11, ODD), (4, EVEN), (8, EVEN), (12, EVEN)]


def lattice_plan(n, parity):
    """The lattice's plan, looked up as _covariance_graph looks it up."""
    return oracle._lattice_plan("plan", n, parity, oracle._GRID_ROW_BYTES)


def plan_args(plan, s):
    """_gain_graph's arguments for s over the tables of ``plan``, as
    _covariance_graph passes them."""
    image = grid_image(s)
    pairs = [(p, image[p]) for p in (0, s.modulus, 1)]
    return plan.factors, plan.into, plan.gain, image, plan.built, pairs


def plan_graph(plan, s):
    """_gain_graph's labels, phases and roots for s over the tables of ``plan``."""
    return oracle._gain_graph(*plan_args(plan, s))


def uniqueness_fields(report):
    return report.nullity, report.unitary_found, report.phase, report.closed_form_residual


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_memoised_plan_equals_a_plan_built_for_the_call(monkeypatch, modulus, parity):
    # the same graph and the same reports, bit for bit, whether the plan
    # comes from the memo or is built for each call (no plan fits a cap of
    # zero bytes); also where every figure reads NaN roots
    n = hilbert_dim(modulus, parity)
    memoised, built = lattice_plan(n, parity), oracle._build_plan(n, parity)
    assert lattice_plan(n, parity) is memoised and built is not memoised
    elements = list(enumerate_group(modulus))
    for s in elements:
        for ours, theirs in zip(plan_graph(memoised, s), plan_graph(built, s)):
            assert np.array_equal(ours, theirs)

    def reports(cap):
        with monkeypatch.context() as patch:
            patch.setattr(qops, "_PLAN_MEMO_BYTES", cap)
            info = oracle._plan_memo.cache_info()
            found = ([uniqueness_fields(verify_uniqueness(s, parity)) for s in elements],
                     report_fields(verify_sw_kernel(parity, n)))
            assert (oracle._plan_memo.cache_info() == info) == (cap == 0)
        return found

    # repr: equal floats print alike, NaN included
    assert repr(reports(qops._PLAN_MEMO_BYTES)) == repr(reports(0))

    def nan_roots(m):
        roots = unit_roots(m).copy()
        roots[0] = np.nan
        return roots

    monkeypatch.setattr(oracle, "unit_roots", nan_roots)
    found = reports(qops._PLAN_MEMO_BYTES)
    assert not any(fields[1] for fields in found[0])
    # hermiticity, traciality and (odd) translation covariance all read a NaN root
    _, _, hermiticity, _, traciality, translation, _ = found[1]
    assert np.isnan(hermiticity) and np.isnan(traciality)
    assert parity == EVEN or np.isnan(translation)
    assert repr(found) == repr(reports(0))


@pytest.mark.parametrize("n,parity", [(5, ODD), (4, EVEN), (33, ODD), (20, EVEN)])
def test_plan_arrays_are_read_only(n, parity):
    # a memoised plan or one built for the call (odd 33 and even 20), and
    # the kernel suite's tables-only plan
    plans = [lattice_plan(n, parity), oracle._build_plan(n, parity, graph=False)]
    assert [len(plan.arrays) for plan in plans] == [7, 4]
    for plan in plans:
        for array in plan.arrays:
            with pytest.raises(ValueError):
                array[...] = 0


@pytest.mark.parametrize("largest,parity", [(31, ODD), (18, EVEN)])
def test_plan_memo_limit(largest, parity):
    # plan bytes are 32 per (point, row), 16 per point and 8 per
    # representative; the largest memoised lattice and the next one of its
    # parity, which leaves the memo as it was
    assert qops._PLAN_SLOTS * qops._PLAN_MEMO_BYTES == 8 << 20  # the README's figure
    for n in (largest, largest + 2):
        points = lattice_modulus(n, parity) ** 2
        size = oracle._plan_memo.cache_info().currsize
        first = lattice_plan(n, parity)
        assert first.nbytes == 32 * points * n + 16 * points + 8 * n * n
        assert oracle._plan_memo.cache_info().currsize == size + (n == largest)
        assert (lattice_plan(n, parity) is first) == (n == largest)
    assert first.nbytes > qops._PLAN_MEMO_BYTES


def test_plan_tables_are_refused_before_the_memo_is_read(byte_bound):
    # even N = 2: the graph's 16 edges (512 B) fit below its 16 points x 2
    # rows of tables; each oracle refuses its tables with the plan memoised,
    # and neither refusal looks the plan up
    s = h_t(4)
    assert verify_uniqueness(s, EVEN).unitary_found
    info = oracle._plan_memo.cache_info()
    assert info.currsize == 1
    for check, table_bytes in [
        (lambda: verify_uniqueness(s, EVEN), 16 * 2 * oracle._GRID_ROW_BYTES),
        (lambda: verify_sw_kernel(EVEN, 2), 16 * 2 * oracle._KERNEL_ROW_BYTES),
    ]:
        byte_bound(table_bytes - 1)
        with pytest.raises(BoundExceeded, match="16 points"):
            check()
        assert oracle._plan_memo.cache_info() == info
    byte_bound(16 * 2 * oracle._KERNEL_ROW_BYTES)
    assert verify_sw_kernel(EVEN, 2).hermiticity < 1e-12
    assert oracle._plan_memo.cache_info().hits == info.hits + 1


def all_points_graph(s, parity):
    """Reference: the gain graph's nullity and solution with every lattice
    point's edges built and labels started at each entry's own index, read
    from oracle.kernel_factors (so mutants reach it); the min-label loop
    runs until a round lowers no label."""
    n = hilbert_dim(s.modulus, parity)
    side, nodes = s.modulus, n * n
    xs, ys = np.divmod(np.arange(side * side), side)
    xs, ys = xs[:, None], ys[:, None]
    source = oracle.kernel_factors(n, parity, xs, ys)
    image = oracle.kernel_factors(n, parity, *apply_point(s, (xs, ys)))
    r = source.root_modulus
    into_p = np.argsort(source.cols, axis=1)
    into_q = np.argsort(image.cols, axis=1)
    gain_p = np.take_along_axis(source.exponents, into_p, 1)[:, None, :]
    gain_q = np.take_along_axis(image.exponents, into_q, 1)[:, :, None]
    rows, cols = into_q[:, :, None], into_p[:, None, :]
    label = np.arange(nodes)
    phase = np.zeros(nodes, dtype=np.int64)
    while True:
        key = (label * r + phase).reshape(n, n)
        offered = key[rows, cols]
        carried = offered % r
        offered -= carried
        carried += gain_p
        carried -= gain_q
        carried %= r
        offered += carried
        best = offered.min(axis=0).reshape(-1)
        lower = best // r < label
        if not lower.any():
            break
        label[lower], phase[lower] = np.divmod(best[lower], r)
    consistent = (offered == key).all(axis=0).reshape(-1)
    balanced = label == np.arange(nodes)
    balanced[label[~consistent]] = False
    roots = np.flatnonzero(balanced)
    if len(roots) != 1:
        return len(roots), None
    support = label == roots[0]
    solution = np.where(support, unit_roots(r)[phase], 0) / np.sqrt(support.sum())
    return 1, solution.reshape(n, n)


@pytest.mark.parametrize("modulus,parity", [(3, ODD), (5, ODD), (7, ODD), (9, ODD), (4, EVEN), (8, EVEN)])
def test_graph_equals_all_points_reference_on_whole_group(modulus, parity):
    for s in enumerate_group(modulus):
        nullity, solution = oracle._covariance_graph(s, parity)
        reference_nullity, reference = all_points_graph(s, parity)
        assert nullity == reference_nullity == 1
        assert solution.dtype == reference.dtype and np.array_equal(solution, reference)


def modular_gain_graph(factors, into, gain, image, built, pairs):
    """Reference for oracle._gain_graph, with its arguments: int64 keys
    label * R + phase through a 2-D gather, the carried phase reduced mod R
    in every round, from oracle._three_point_start (so a patch reaches it)."""
    n, r = factors.cols.shape[1], factors.root_modulus
    moved = image[built]
    rows, cols = into[moved][:, :, None], into[built][:, None, :]
    gain_p, gain_q = gain[built][:, None, :], gain[moved][:, :, None]
    label, phase = oracle._three_point_start(factors, pairs)
    while True:
        key = (label * r + phase).reshape(n, n)
        offered = key[rows, cols]
        carried = offered % r
        offered -= carried
        carried += gain_p
        carried -= gain_q
        carried %= r
        offered += carried
        best = offered.min(axis=0).reshape(-1)
        lower = best // r < label
        if not lower.any():
            break
        label[lower], phase[lower] = np.divmod(best[lower], r)
    consistent = (offered == key).all(axis=0).reshape(-1)
    balanced = label == np.arange(n * n)
    balanced[label[~consistent]] = False
    return label, phase, np.flatnonzero(balanced)


def singleton_start(factors, pairs):
    """A _three_point_start that connects nothing: every entry its own
    label at phase 0, so the all-points rounds do the lowering."""
    nodes = factors.cols.shape[1] ** 2
    return np.arange(nodes), np.zeros(nodes, dtype=np.int64)


def modular_round_agrees(graph, *args):
    """``graph`` (oracle._gain_graph) on ``args``, after asserting that
    modular_gain_graph gives equal labels, phases and roots."""
    ours = graph(*args)
    assert all(np.array_equal(a, b) for a, b in zip(ours, modular_gain_graph(*args)))
    return ours


@pytest.mark.parametrize("start", ["three-point", "singleton"])
@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_gain_graph_equals_the_modular_round_on_whole_group(monkeypatch, modulus, parity, start):
    # singleton starts leave every label to the all-points rounds
    if start == "singleton":
        monkeypatch.setattr(oracle, "_three_point_start", singleton_start)
    plan = lattice_plan(hilbert_dim(modulus, parity), parity)
    for s in enumerate_group(modulus):
        assert len(modular_round_agrees(oracle._gain_graph, *plan_args(plan, s))[2]) == 1


@pytest.mark.parametrize("start", ["three-point", "singleton"])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_gain_graph_equals_the_modular_round_on_integer_points(monkeypatch, n, start):
    # integer points, indexed mod N, leave several components, balanced and
    # not; every solve_covariance call is compared on its own arguments
    if start == "singleton":
        monkeypatch.setattr(oracle, "_three_point_start", singleton_start)
    graph, nullities = oracle._gain_graph, []

    def checked(*args):
        found = modular_round_agrees(graph, *args)
        nullities.append(len(found[2]))
        return found

    monkeypatch.setattr(oracle, "_gain_graph", checked)
    family = integer_point_family(n)
    elements = list(enumerate_group(n))
    for s in elements:
        solve_covariance(s, family)
    assert len(nullities) == len(elements) and min(nullities) > 1


@pytest.mark.parametrize("n", [709, 711])
def test_gain_graph_keys_leave_int32_where_they_would_overflow(monkeypatch, n):
    # The origin alone, read as solve_covariance reads it (R = 2N): keys
    # below N^2 labels of 3R each fit int32 at N = 709 and not at N = 711.
    # Each entry pairs with its negative at gain 0, so from singleton
    # starts one round lowers half the labels and the next confirms them.
    monkeypatch.setattr(oracle, "_three_point_start", singleton_start)
    factors = oracle._monomial_tables(qops.delta_at(n, ODD, (0, 0))[None])
    origin = np.zeros(1, dtype=int)
    label, phase, roots = oracle._gain_graph(
        factors, *oracle._sigma_inverse(factors), origin, origin, [(0, 0)]
    )
    entries = np.arange(n * n)
    u, w = np.divmod(entries, n)
    assert np.array_equal(label, np.minimum(entries, -u % n * n + -w % n))
    assert not phase.any() and len(roots) == (n * n + 1) // 2


@pytest.mark.parametrize("whole", [False, True], ids=["row", "kernel"])
@pytest.mark.parametrize("point", [(5, 2), (2, 4), (3, 2)])
def test_graph_refuses_one_exponent_mutant_on_doubled_grid(monkeypatch, mutant_kernels, point, whole):
    # A row mutant leaves a table that is no constant shift of its
    # representative's; a whole-kernel mutant is one, but not by the
    # shift lattice.fold_exponent gives. Either is refused before any edge
    # is built.
    def refuse(*args):
        raise AssertionError("gain graph built")

    monkeypatch.setattr(oracle, "_gain_graph", refuse)
    mutant_kernels(one_exponent_mutant(point, whole))
    for s in [h_t(8), generator("+", 8), generator("-", 8)]:
        with pytest.raises(ValueError, match="fold certificate"):
            oracle._covariance_graph(s, EVEN)


def test_graph_refuses_the_upper_half_sign_mutant_on_the_whole_group(mutant_kernels):
    # Every kernel with x >= N times -1: each table is still its
    # representative's with one constant exponent added, so constants
    # inferred from the tables pass it and only some elements expose the
    # change. Against lattice.fold_exponent it is refused for all of Sp_8.
    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        flipped = factors.exponents + np.where(x >= n, n, 0)
        return factors._replace(exponents=flipped % factors.root_modulus)

    mutant_kernels(mutant)
    elements = list(enumerate_group(8))
    assert len(elements) == 384
    for s in elements:
        with pytest.raises(ValueError, match="fold certificate"):
            oracle._covariance_graph(s, EVEN)


@pytest.mark.parametrize("whole", [False, True], ids=["row", "kernel"])
@pytest.mark.parametrize("point", [(5, 2), (2, 4), (3, 2)])
def test_graph_of_mutant_equals_all_points_reference(mutant_kernels, point, whole):
    # The same change at a representative and its three folded copies passes
    # the certificate, so the graph over the representatives alone must see
    # the defect the whole doubled grid has. At even N = 4 the class of
    # (2, 4) is (2, 0), which h+ maps onto itself: there the whole-kernel
    # mutant stays covariant (nullity 1), and every other case has none.
    mutant_kernels(one_exponent_mutant(point, whole, fold=True))
    for modulus in (8, 16):
        for s in [h_t(modulus), generator("+", modulus), generator("-", modulus)]:
            nullity, solution = oracle._covariance_graph(s, EVEN)
            reference_nullity, reference = all_points_graph(s, EVEN)
            covariant = whole and point == (2, 4) and s == generator("+", 8)
            assert nullity == reference_nullity == int(covariant)
            assert (solution is None) == (reference is None)
            assert solution is None or np.array_equal(solution, reference)


def test_solve_covariance_matches_full_svd(rng):
    # the gain graph's one solution is the SVD reference's null vector
    for n, parity in [(3, ODD), (5, ODD), (2, EVEN), (4, EVEN)]:
        family = delta_family(n, parity)
        modulus = lattice_modulus(n, parity)
        for s in (h_t(modulus), random_element(modulus, rng)):
            solution = solve_covariance(s, family)
            reference = dense_solve_covariance(s, family)
            assert solution.nullity == reference.nullity == 1
            assert equal_up_to_phase(
                solution.basis[0] * np.sqrt(n), reference.basis[0] * np.sqrt(n), tol=1e-10
            ).equivalent


# The SVD reference's cutoff: singular values at or below this times the
# largest count toward the nullity.
SVD_CUTOFF = 1e-9


def null_projector(vectors):
    """Orthogonal projector onto the span of orthonormal vectors."""
    flat = np.array([v.reshape(-1) for v in vectors])
    return flat.T @ flat.conj()


def components(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of a (rows, unknowns) nonzero pattern, where a
    row joins every unknown it touches: each unknown's label (the smallest
    unknown of its component) and each row's label (-1 for an all-zero row).

    Two unknowns are adjacent when some row touches both; labels spread by
    taking the smallest label among neighbours, then jumping to the label's
    own label, until a round changes nothing.
    """
    touched = pattern.astype(np.float32)
    adjacent = (touched.T @ touched) > 0
    np.fill_diagonal(adjacent, True)
    label = np.arange(pattern.shape[1])
    while True:
        reached = np.where(adjacent, label, label.size).min(axis=1)
        reached = reached[reached]
        if (reached == label).all():
            break
        label = reached
    rows = np.where(pattern.any(axis=1), label[pattern.argmax(axis=1)], -1)
    return label, rows


def dense_solve_covariance(s, deltas):
    """The SVD reference for solve_covariance, on any family: every entry of
    the dense (points, N, N, N, N) system, blocks from its float32 pattern
    product (components), each block gathered and factored by QR and SVD on
    its own; the nullity counts the N^2 singular values (a block's missing
    ones as zeros) at or below SVD_CUTOFF times the largest."""
    points = sorted(deltas)
    dim = deltas[points[0]].shape[0]
    images = [deltas[apply_point(s, point)] for point in points]
    source = np.stack([deltas[point] for point in points])
    system = np.zeros((len(points), dim, dim, dim, dim), dtype=complex)
    diag = np.arange(dim)
    # row (p, i, j), column (k, l): Delta_p[l, j] where k = i, minus
    # Delta_(S.p)[i, k] where l = j
    system[:, diag, :, diag, :] = source.transpose(0, 2, 1)
    system[:, :, diag, :, diag] -= np.stack(images)
    unknowns = dim * dim
    system = system.reshape(-1, unknowns)
    column_label, row_label = components(system != 0)
    blocks = []
    for root in np.unique(column_label):
        columns = np.flatnonzero(column_label == root)
        if columns.size == unknowns:
            block = system
        else:
            block = system[np.ix_(np.flatnonzero(row_label == root), columns)]
        _, singular, vh = np.linalg.svd(np.linalg.qr(block, mode="r"))
        blocks.append((columns, singular, vh))
    found = np.concatenate([values for _, values, _ in blocks])
    singular = np.sort(np.pad(found, (0, unknowns - found.size)))[::-1]
    threshold = SVD_CUTOFF * (singular[0] if singular[0] > 0 else 1.0)
    basis = []
    for columns, values, vh in blocks:
        for row in vh[int((values > threshold).sum()) :]:
            vector = np.zeros(unknowns, dtype=complex)
            vector[columns] = row.conj()
            basis.append(vector.reshape(dim, dim))
    unitary = oracle._unitarize(basis[0]) if len(basis) == 1 else None
    return oracle.CovarianceSolution(len(basis), basis, unitary)


def conjugated_family(n, rng):
    """Every odd kernel conjugated by one random unitary V: no entry is zero."""
    gaussian = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(gaussian)
    return v, {p: v @ delta @ v.conj().T for p, delta in delta_family(n, ODD).items()}


def assert_same_solution(solution, reference):
    """Equal nullities, null spaces (their projectors) and unitaries up to
    phase: a basis of a null space of dimension > 1 is not unique."""
    assert solution.nullity == reference.nullity
    assert np.abs(null_projector(solution.basis) - null_projector(reference.basis)).max() < 1e-10
    assert (solution.unitary is None) == (reference.unitary is None)
    assert solution.unitary is None or equal_up_to_phase(
        solution.unitary, reference.unitary, tol=1e-9
    ).equivalent


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_solve_covariance_matches_dense_build_on_integer_points(n, integer_point_solutions):
    # on every element of Sp_N; the solutions are shared with criterion 10's
    # whole-group check
    family = integer_point_family(n)
    for s, solution in integer_point_solutions[n]:
        assert_same_solution(solution, dense_solve_covariance(s, family))


@pytest.mark.parametrize(
    "n,parity", [(3, ODD), (5, ODD), (2, EVEN), (4, EVEN)],
    ids=["odd-3", "odd-5", "even-2", "even-4"],
)
def test_solve_covariance_matches_dense_build_on_whole_group(n, parity):
    family = delta_family(n, parity)
    for s in enumerate_group(lattice_modulus(n, parity)):
        assert_same_solution(solve_covariance(s, family), dense_solve_covariance(s, family))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_block_solve_matches_dense_svd_where_nullity_exceeds_one(n, rng):
    # integer points split the system into several components
    family = integer_point_family(n)
    for s in (generator("+", n), random_element(n, rng), random_element(n, rng)):
        solution = solve_covariance(s, family)
        assert solution.nullity > 1
        assert solution.unitary is None
        assert_same_solution(solution, dense_solve_covariance(s, family))


@pytest.mark.parametrize("n", [3, 5])
def test_block_solve_counts_missing_singular_values_as_zero(n, rng):
    # The origin alone, at odd N = n and even N = n - 1: its parity kernel
    # gives zero rows and leaves U[0, 0] untouched, so the reference's
    # components have fewer rows than unknowns.
    for dim, parity in [(n, ODD), (n - 1, EVEN)]:
        family = {(0, 0): delta_family(dim, parity)[(0, 0)]}
        modulus = lattice_modulus(dim, parity)
        for s in (generator("+", modulus), random_element(modulus, rng)):
            solution = solve_covariance(s, family)
            assert solution.nullity > 1
            assert_same_solution(solution, dense_solve_covariance(s, family))
    all_zero = solve_covariance(generator("+", 2), integer_point_family(2))
    assert np.array_equal(null_projector(all_zero.basis), np.eye(4))


@pytest.mark.parametrize("n,parity", [(3, ODD), (5, ODD), (2, EVEN), (4, EVEN)])
def test_solve_covariance_matches_dense_nullity_on_phase_mutants(n, parity):
    # every one-entry phase mutant: row 0 of one kernel times exp(2 pi i / 2N),
    # still monomial over the 2N-th roots
    clean = delta_family(n, parity)
    s = h_t(lattice_modulus(n, parity))
    for point, kernel in clean.items():
        family = {**clean, point: kernel.copy()}
        family[point][0] *= np.exp(1j * np.pi / n)
        assert solve_covariance(s, family).nullity == dense_solve_covariance(s, family).nullity


def test_solve_covariance_on_a_dense_family_with_one_component(rng):
    # every kernel conjugated by one random unitary V: no entry is zero, so
    # the system is one component, and V U(S) V^dag solves it; such a family
    # is not monomial, so only the SVD reference takes it
    n = 5
    v, family = conjugated_family(n, rng)
    assert all((kernel != 0).all() for kernel in family.values())
    for s in (generator("+", n), random_element(n, rng)):
        solution = dense_solve_covariance(s, family)
        assert solution.nullity == 1
        expected = v @ u_of(s, ODD).matrix @ v.conj().T
        assert equal_up_to_phase(solution.unitary, expected, tol=1e-9).equivalent


def test_solve_covariance_refuses_non_monomial_families(monkeypatch, rng):
    # refused as the family is read, before any graph is built
    def refuse(*args):
        raise AssertionError("gain graph built")

    monkeypatch.setattr(oracle, "_gain_graph", refuse)
    _, conjugated = conjugated_family(5, rng)
    with pytest.raises(ValueError, match="not monomial"):
        solve_covariance(generator("+", 5), conjugated)
    clean = delta_family(3, ODD)
    two = clean[(1, 1)].copy()
    two[0, np.flatnonzero(two[0] == 0)[0]] = 1.0
    between = clean[(1, 1)].copy()
    between[0] *= np.exp(1j * np.pi / 6)  # half way between two 6th roots
    for kernel, refusal in [(two, "not monomial"), (between, "root of unity")]:
        with pytest.raises(ValueError, match=refusal):
            solve_covariance(generator("+", 3), {**clean, (1, 1): kernel})


@pytest.mark.parametrize("n,parity", [(13, ODD), (12, EVEN)], ids=["odd-13-full-grid", "even-12-full-grid"])
def test_solve_covariance_peak_memory(n, parity):
    # check_bytes counts the graph's _EDGE_BYTES per (point, entry); the
    # stacked read is freed before the edges are built. At these sizes the
    # fixed overhead has settled (25 and 24 B; 39 B on the full grid at odd
    # N = 7)
    family = delta_family(n, parity)
    s = generator("+", lattice_modulus(n, parity))
    tracemalloc.start()
    try:
        solve_covariance(s, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(family) * n**2 * oracle._EDGE_BYTES


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
def test_sw_translation_rejects_mutant_at_every_point(mutant_kernels, n, kind):
    for x in range(n):
        for y in range(n):
            if kind == "exponent":
                mutant = one_exponent_mutant((x, y))
            else:
                mutant = one_permutation_mutant((x, y), ((x + 1) % n, y))
            assert all_shifts_translation_defect(*odd_tables(mutant, n)) > 0.5
            mutant_kernels(mutant)
            assert verify_sw_kernel(ODD, n).translation_covariance > 0.5


def test_sw_kernel_peak_memory_at_largest_odd_dimension():
    tracemalloc.start()
    try:
        report = verify_sw_kernel(ODD, 111)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.traciality < 1e-12
    assert peak <= 111**3 * oracle._KERNEL_ROW_BYTES


@pytest.mark.parametrize(
    "n,parity,allowed", [(111, ODD, True), (113, ODD, False), (70, EVEN, True), (72, EVEN, False)]
)
def test_sw_kernel_bound_sizes(n, parity, allowed):
    # the kernel suite's own bound, _KERNEL_ROW_BYTES per (lattice point,
    # row): odd N <= 111 and even N <= 70
    if allowed:
        assert verify_sw_kernel(parity, n).hermiticity < 1e-12
    else:
        with pytest.raises(BoundExceeded):
            verify_sw_kernel(parity, n)


def test_sw_kernel_refuses_tables_above_byte_bound(byte_bound):
    table_bytes = 3**2 * 3 * oracle._KERNEL_ROW_BYTES  # N^2 points at odd N = 3, N rows each
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
def test_sw_kernel_rejects_one_exponent_mutant(mutant_kernels, n, parity, point):
    mutant_kernels(one_exponent_mutant(point))
    report = verify_sw_kernel(parity, n)
    assert report.hermiticity > 1e-12
    if parity == ODD:
        assert report.translation_covariance > 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 38])
def test_sw_kernel_even_integer_trace(n):
    # Tr Delta_(j,k) is 2 where j and k are both even and 0 everywhere else
    assert verify_sw_kernel(EVEN, n).integer_trace < 1e-12


@pytest.mark.parametrize("n,point", [(4, (0, 2)), (8, (0, 0))])
def test_sw_kernel_integer_trace_rejects_mutant_at_fixed_row(mutant_kernels, n, point):
    # row 0 is a fixed row of Delta_(0,k): its column is (0 - 0) mod N. One
    # step of the root of order 2N moves the trace by 2 sin(pi / 2N).
    mutant_kernels(one_exponent_mutant(point))
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
def test_sw_kernel_of_mutant_matches_dense_reference(mutant_kernels, mutant):
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
    mutant_kernels(mutant)
    report = verify_sw_kernel(ODD, n)
    assert translation > 0.5
    assert report.hermiticity == hermiticity
    assert report.unit_trace == unit_trace
    assert abs(report.traciality - traciality) < 1e-14
    assert abs(report.translation_covariance - translation) < 1e-15


def test_sw_kernel_refuses_partly_agreeing_permutations(mutant_kernels):
    # The Gram blocks between classes are zero only if any two permutations
    # agree on every row or on none; one moved column breaks that. Here
    # Delta_(1,2)'s row 0 moves to column 3, the first column of the class
    # of x = 4, whose other rows differ.
    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        hit = np.broadcast_to((x == 1) & (y == 2), factors.cols.shape).copy()
        hit[..., 1:] = False  # row 0 only
        return factors._replace(cols=np.where(hit, (factors.cols + 1) % n, factors.cols))

    mutant_kernels(mutant)
    with pytest.raises(ValueError, match="agree"):
        verify_sw_kernel(ODD, 5)


def row_sort_sw_kernel(parity, n):
    """verify_sw_kernel with its classes from a sort of the whole kernel rows
    (np.unique along axis 0), one Gram product per class in a Python loop
    and translation in floats on every entry (float_weyl_generator_defect),
    reading oracle.kernel_factors (so mutants reach it)."""
    side = lattice_modulus(n, parity)
    xs, ys = np.divmod(np.arange(side * side), side)
    factors = oracle.kernel_factors(n, parity, xs[:, None], ys[:, None])
    cols, exponents = factors.cols, factors.exponents
    values = unit_roots(factors.root_modulus)[exponents]
    rows = np.arange(n)
    involution = np.take_along_axis(cols, cols, 1) == rows
    mirrored = np.take_along_axis(values, cols, 1).conj()
    hermiticity = float(np.abs(values - np.where(involution, mirrored, 0)).max())
    trace = np.where(cols == rows, values, 0).sum(axis=1)
    unit_trace = float(np.abs(trace - 1.0).max())
    integer_trace = None
    if parity != ODD:
        integer_point = (xs % 2 == 0) & (ys % 2 == 0)
        integer_trace = float(np.abs(trace - np.where(integer_point, 2.0, 0.0)).max())
    perms, label = np.unique(cols, axis=0, return_inverse=True)
    if (np.diff(np.sort(perms, axis=0), axis=0) == 0).any():
        raise ValueError("two kernel permutations agree on some rows but not all")
    blocks = (values[label == c] for c in range(len(perms)))
    traciality = float(np.max([np.abs(b.conj() @ b.T - n * np.eye(len(b))).max() for b in blocks]))
    translation = float_weyl_generator_defect(cols, exponents) if parity == ODD else None
    return oracle.SWKernelReport(parity, n, hermiticity, unit_trace, traciality, translation, integer_trace)


def float_weyl_generator_defect(cols, exponents):
    """Reference for oracle._weyl_generator_defect: the same images of every
    odd table under the Weyl generators (1, 0) and (0, 1), with the defect
    evaluated in complex floats on every (point, row) of both."""
    n = cols.shape[1]
    cols, exponents = cols.reshape(n, n, n), exponents.reshape(n, n, n)
    back = (np.arange(n) - 1) % n
    roots = unit_roots(n)

    def worst(moved_cols, moved_exponents, image_cols, image_exponents):
        moved, image = roots[moved_exponents], roots[image_exponents]
        apart = moved_cols != image_cols
        return np.where(apart, np.maximum(abs(moved), abs(image)), abs(moved - image)).max()

    along_x = worst(
        (cols - 1) % n, exponents, np.roll(cols, 1, (0, 2)), np.roll(exponents, 1, (0, 2))
    )
    along_y = worst(
        cols, (exponents + cols - np.arange(n)) % n, cols.take(back, 1), exponents.take(back, 1)
    )
    return float(np.max([along_x, along_y]))


def report_fields(report):
    return (report.parity, report.dim, report.hermiticity, report.unit_trace, report.traciality,
            report.translation_covariance, report.integer_trace)


@pytest.mark.parametrize(
    "n,parity",
    [(n, ODD) for n in range(3, 26, 2)] + [(53, ODD)] + [(n, EVEN) for n in range(2, 21, 2)] + [(38, EVEN)],
)
def test_sw_kernel_equals_the_row_sort_reference(n, parity):
    assert report_fields(verify_sw_kernel(parity, n)) == report_fields(row_sort_sw_kernel(parity, n))


@pytest.mark.parametrize(
    "mutant",
    [one_exponent_mutant((1, 2)), one_permutation_mutant((1, 2), (2, 2)), cyclic_mutant],
    ids=["exponent", "permutation", "cyclic"],
)
@pytest.mark.parametrize("n,parity", [(5, ODD), (4, EVEN)])
def test_sw_kernel_of_mutant_equals_the_row_sort_reference(mutant_kernels, mutant, n, parity):
    # the cyclic mutant is one class of every kernel
    mutant_kernels(mutant)
    assert report_fields(verify_sw_kernel(parity, n)) == report_fields(row_sort_sw_kernel(parity, n))


@pytest.mark.parametrize("whole_class", [False, True], ids=["first-column", "later-column"])
def test_sw_kernel_refuses_permutations_sharing_a_column(mutant_kernels, whole_class):
    # Rows 1 and 2 swapped at odd N = 5 give (2, 0, 1, 4, 3). In Delta_(1,2)
    # alone, that shares the first column, 2, of the other kernels of x = 1,
    # (2, 1, 0, 4, 3), and differs elsewhere. In every kernel of x = 1, that
    # class keeps its own first column and shares row 1's column 0 with the
    # class of x = 3, (1, 0, 4, 3, 2).
    def mutant(n, parity, x, y):
        factors = qops.kernel_factors(n, parity, x, y)
        swapped = factors.cols[..., [0, 2, 1, 3, 4]]
        hit = (np.asarray(x) == 1) & (whole_class | (np.asarray(y) == 2))
        return factors._replace(cols=np.where(hit, swapped, factors.cols))

    mutant_kernels(mutant)
    for check in (verify_sw_kernel, row_sort_sw_kernel):
        with pytest.raises(ValueError, match="agree"):
            check(ODD, 5)


def test_sw_kernel_refuses_gram_stacks_above_byte_bound(mutant_kernels, byte_bound):
    # The cyclic mutant at even N = 4 is one class of all 64 points: a
    # 64 x 64 Gram block, 65536 B, above the tables' 64 * 4 * 192 = 49152 B.
    mutant_kernels(cyclic_mutant)
    gram_bytes = 64 * 64 * 16
    assert gram_bytes > 64 * 4 * oracle._KERNEL_ROW_BYTES
    byte_bound(gram_bytes)
    assert verify_sw_kernel(EVEN, 4).traciality == row_sort_sw_kernel(EVEN, 4).traciality
    byte_bound(gram_bytes - 1)
    with pytest.raises(BoundExceeded, match="Gram"):
        verify_sw_kernel(EVEN, 4)
