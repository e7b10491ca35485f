import numpy as np
import pytest
from numpy.linalg import matrix_power

from conftest import random_symplectic
from phasepoint.metaplectic import equal_up_to_phase, u_hminus, u_hplus
from phasepoint import oracle
from phasepoint.oracle import (
    bfs_decompose,
    integer_point_family,
    solve_covariance,
    verify_sw_kernel,
    verify_uniqueness,
)
from phasepoint.qops import EVEN, ODD, delta_family
from phasepoint.symplectic import (
    ENUMERATION_BOUND,
    BoundExceeded,
    DepthExceeded,
    SympMat,
    enumerate_group,
    generator,
    h_t,
)


def test_solve_covariance_rediscovers_diagonal_generator():
    solution = solve_covariance(generator("-", 3), dict(delta_family(3, ODD)))
    assert solution.nullity == 1
    assert solution.unitary is not None
    match = equal_up_to_phase(solution.unitary, u_hminus(3, ODD).matrix, tol=1e-9)
    assert match.equivalent


def test_solve_covariance_rediscovers_fourier_like_generator():
    solution = solve_covariance(generator("+", 5), dict(delta_family(5, ODD)))
    assert solution.nullity == 1
    match = equal_up_to_phase(solution.unitary, u_hplus(5, ODD).matrix, tol=1e-9)
    assert match.equivalent


def test_solve_covariance_dimension_seven():
    solution = solve_covariance(generator("+", 7), dict(delta_family(7, ODD)))
    assert solution.nullity == 1
    match = equal_up_to_phase(solution.unitary, u_hplus(7, ODD).matrix, tol=1e-9)
    assert match.equivalent


def test_solve_covariance_even_doubled_group():
    solution = solve_covariance(generator("+", 4), dict(delta_family(2, EVEN)))
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
    family = dict(delta_family(3, ODD))
    del family[(1, 2)]
    with pytest.raises(ValueError):
        solve_covariance(generator("+", 3), family)
    with pytest.raises(ValueError):
        solve_covariance(generator("+", 3), {})


def test_solution_basis_actually_solves(rng):
    s = random_symplectic(3, rng)
    family = dict(delta_family(3, ODD))
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


def test_bfs_depth_cap():
    with pytest.raises(DepthExceeded):
        bfs_decompose(h_t(7), max_depth=0)


def test_bfs_refuses_moduli_above_enumeration_bound():
    assert bfs_decompose(h_t(ENUMERATION_BOUND)).evaluate() == h_t(ENUMERATION_BOUND)
    with pytest.raises(BoundExceeded):
        bfs_decompose(h_t(ENUMERATION_BOUND + 1))
    # raised before any table is built, so even a huge modulus fails at once
    with pytest.raises(BoundExceeded):
        bfs_decompose(h_t(1009))


def test_solve_covariance_refuses_systems_above_byte_bound(monkeypatch):
    family = dict(delta_family(3, ODD))
    system_bytes = len(family) * 3**4 * 16
    monkeypatch.setattr(oracle, "SYSTEM_BYTES_BOUND", system_bytes)
    assert solve_covariance(generator("+", 3), family).nullity == 1
    monkeypatch.setattr(oracle, "SYSTEM_BYTES_BOUND", system_bytes - 1)
    with pytest.raises(BoundExceeded):
        solve_covariance(generator("+", 3), family)


@pytest.mark.parametrize(
    "n,parity,allowed", [(15, ODD, True), (17, ODD, False), (12, EVEN, True), (14, EVEN, False)]
)
def test_solve_covariance_byte_bound_sizes(n, parity, allowed):
    # full-grid families: N^2 points at odd N, (2N)^2 on the doubled grid
    points = n**2 if parity == ODD else (2 * n) ** 2
    assert (points * n**4 * 16 <= oracle.SYSTEM_BYTES_BOUND) == allowed


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
    assert names == ["hermiticity", "unit_trace"]


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
    family = dict(delta_family(3, ODD))
    poisoned = family[(1, 2)].copy()
    poisoned[1, 1] = np.nan  # row 1 has its one nonzero entry on the diagonal
    family[(1, 2)] = poisoned
    monkeypatch.setattr(oracle, "delta_family", lambda n, parity: family)
    report = verify_sw_kernel(ODD, 3)
    assert np.isnan(report.hermiticity)
    assert np.isnan(report.unit_trace)
    assert np.isnan(report.translation_covariance)
