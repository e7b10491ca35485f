import tracemalloc

import numpy as np
import pytest
from numpy.linalg import matrix_power

from conftest import random_symplectic
from phasepoint.metaplectic import (
    DimensionMismatch,
    ParityMismatch,
    ProjUnitary,
    apply_point,
    check_covariance_bound,
    covariance_residual,
    equal_up_to_phase,
    hilbert_dim,
    phase_defect,
    u_hminus,
    u_hplus,
    u_of,
)
from phasepoint.qops import (
    EVEN,
    ODD,
    ParityError,
    delta_at,
    phase_points,
    symmetric_order,
    unit_roots,
)
from phasepoint.symplectic import BoundExceeded, SympMat, enumerate_group, generator, h_t


def test_u_hminus_small_odd_cases():
    w = unit_roots(3)
    order = symmetric_order(3)
    diag = np.diag(u_hminus(3, ODD).matrix)[order]
    assert np.abs(diag - np.array([w[2], 1, w[2]])).max() < 1e-12


def test_u_hplus_even_dimension_two():
    expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert np.abs(u_hplus(2, EVEN).matrix - expected).max() < 1e-12


def test_u_hminus_even_dimension_two():
    assert np.abs(u_hminus(2, EVEN).matrix - np.diag([1, 1j])).max() < 1e-12


def test_fourth_power_at_dimension_two_is_minus_identity():
    u = u_hplus(2, EVEN).matrix
    match = equal_up_to_phase(matrix_power(u, 4), np.eye(2))
    assert match.equivalent
    assert abs(match.phase - (-1)) < 1e-12
    # while the square is not proportional to the identity
    assert not equal_up_to_phase(matrix_power(u, 2), np.eye(2)).equivalent


@pytest.mark.parametrize("n,parity", [(3, ODD), (5, ODD), (2, EVEN), (4, EVEN)])
def test_generator_unitaries_are_unitary(n, parity):
    modulus = n if parity == ODD else 2 * n
    for unitary in (u_hplus(n, parity), u_hminus(n, parity), u_of(h_t(modulus), parity)):
        u = unitary.matrix
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n,parity", [(3, ODD), (5, ODD), (7, ODD), (2, EVEN), (4, EVEN)])
def test_generator_covariance(n, parity):
    modulus = n if parity == ODD else 2 * n
    pairs = [
        (u_hplus(n, parity), generator("+", modulus)),
        (u_hminus(n, parity), generator("-", modulus)),
        (u_of(h_t(modulus), parity), h_t(modulus)),
    ]
    for unitary, mat in pairs:
        assert covariance_residual(unitary.matrix, mat, parity) < 1e-10


def test_parity_mismatch_rejected():
    with pytest.raises(ParityError):
        u_hplus(4, ODD)
    with pytest.raises(ParityError):
        u_hminus(5, EVEN)
    with pytest.raises(ParityMismatch):
        hilbert_dim(4, ODD)
    with pytest.raises(ParityMismatch):
        hilbert_dim(6, EVEN)  # modulus 2N with N even must be divisible by 4
    assert hilbert_dim(7, ODD) == 7
    assert hilbert_dim(8, EVEN) == 4


def test_u_of_identity_and_generator():
    ident = u_of(SympMat.identity(7), ODD)
    assert equal_up_to_phase(ident.matrix, np.eye(7)).equivalent
    rep = u_of(generator("+", 7), ODD)
    assert np.abs(rep.matrix - u_hplus(7, ODD).matrix).max() < 1e-12


def test_u_of_random_covariance(rng):
    for _ in range(20):
        s = random_symplectic(5, rng)
        rep = u_of(s, ODD)
        assert covariance_residual(rep.matrix, s, ODD) < 1e-10


def test_u_of_path_independence(rng):
    # Euclid and BFS words differ, but their products agree up to phase.
    for _ in range(10):
        s = random_symplectic(5, rng)
        a = u_of(s, ODD, method="euclid")
        b = u_of(s, ODD, method="bfs")
        assert equal_up_to_phase(a.matrix, b.matrix, tol=1e-10).equivalent


@pytest.mark.parametrize(
    "n,parity,modulus",
    [
        (3, ODD, 3),
        (5, ODD, 5),
        (7, ODD, 7),
        (9, ODD, 9),
        (15, ODD, 15),
        (2, EVEN, 4),
        (4, EVEN, 8),
        (6, EVEN, 12),
    ],
)
def test_generator_power_order(n, parity, modulus):
    # h+ and h- have order M in the group, so their representatives return
    # to the identity up to a phase after M steps.
    for build in (u_hplus, u_hminus):
        u = build(n, parity).matrix
        assert equal_up_to_phase(matrix_power(u, modulus), np.eye(n)).equivalent


def test_projectivity_on_small_group(rng):
    reps = {s: u_of(s, ODD).matrix for s in enumerate_group(3)}
    elements = list(reps)
    for _ in range(50):
        s1, s2 = (elements[int(rng.integers(len(elements)))] for _ in range(2))
        assert phase_defect(reps[s1 @ s2], reps[s1] @ reps[s2]) < 1e-10


def test_equal_up_to_phase_examples():
    a = np.diag([1.0, 1j])
    match = equal_up_to_phase(np.exp(1j * np.pi / 5) * a, a)
    assert match.equivalent
    assert abs(match.phase - np.exp(1j * np.pi / 5)) < 1e-12
    assert not equal_up_to_phase(np.eye(2), np.diag([1.0, -1.0])).equivalent
    with pytest.raises(DimensionMismatch):
        equal_up_to_phase(np.eye(2), np.eye(3))


def test_act_on_phase_points():
    m, n = 2, 3
    assert apply_point(generator("+", 5), (m, n)) == ((m + n) % 5, n)
    assert apply_point(generator("-", 5), (m, n)) == (m, (m + n) % 5)
    assert apply_point(SympMat.identity(5), (m, n)) == (m, n)


def test_even_phase_root_branch_is_forced():
    # Only exp(+2 pi i / 2N) works: the conjugate square root of the basic
    # phase breaks covariance already at dimension two.
    good = u_hminus(2, EVEN).matrix
    wrong = np.conj(good)
    assert covariance_residual(good, generator("-", 4), EVEN) < 1e-12
    assert covariance_residual(wrong, generator("-", 4), EVEN) > 0.5


def test_nan_never_passes_phase_comparison():
    assert not equal_up_to_phase(np.full((2, 2), np.nan), np.eye(2)).equivalent
    # the trace gives a finite phase; only the off-diagonal defect is NaN
    partial = np.eye(3, dtype=complex)
    partial[0, 1] = np.nan
    assert not equal_up_to_phase(partial, np.eye(3)).equivalent


@pytest.mark.parametrize("n,parity", [(3, ODD), (4, EVEN)])
def test_covariance_residual_propagates_nan(n, parity):
    s = generator("+", 2 * n if parity == EVEN else n)
    for entry in [(0, 0), (1, 2)]:
        unitary = u_of(s, parity).matrix.copy()
        unitary[entry] = np.nan
        assert np.isnan(covariance_residual(unitary, s, parity))


def dense_covariance_residual(u, s, parity):
    # Reference: U Delta_p U^dag - Delta_(s.p) with dense kernels at every
    # point of the full grid (the 2N x 2N doubled grid at even N).
    n = u.shape[0]
    return np.max(
        [
            np.abs(
                u @ delta_at(n, parity, p) @ u.conj().T
                - delta_at(n, parity, apply_point(s, p))
            ).max()
            for p in phase_points(n, parity)
        ]
    )


@pytest.mark.parametrize(
    "n,parity", [(n, ODD) for n in (3, 5, 7, 9)] + [(n, EVEN) for n in (2, 4, 6, 8)]
)
def test_covariance_residual_matches_dense_reference(n, parity, rng):
    modulus = n if parity == ODD else 2 * n
    s = random_symplectic(modulus, rng)
    other = random_symplectic(modulus, rng)
    while other == s:
        other = random_symplectic(modulus, rng)
    matrices = [
        u_of(s, parity).matrix,
        u_of(other, parity).matrix,
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    ]
    for u in matrices:
        expected = dense_covariance_residual(u, s, parity)
        assert covariance_residual(u, s, parity) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )


def test_covariance_residual_builds_no_kernel_cache(no_dense_kernel):
    for n, parity in [(5, ODD), (4, EVEN)]:
        s = h_t(n if parity == ODD else 2 * n)
        assert covariance_residual(u_of(s, parity).matrix, s, parity) < 1e-10


def test_covariance_residual_memory_is_cubic():
    # The dense kernel family alone is N^4 * 16 bytes, 252 MB at N = 63;
    # the factored residual keeps O(N^3) temporaries.
    s = SympMat(2, 1, 1, 1, 63)
    unitary = u_of(s, ODD).matrix
    tracemalloc.start()
    try:
        residual = covariance_residual(unitary, s, ODD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-10 * np.sqrt(63 / 16)
    assert peak < 32 * 2**20


def test_covariance_residual_refuses_dimensions_above_byte_bound(byte_bound):
    s = generator("+", 3)
    unitary = u_of(s, ODD).matrix
    cube_bytes = 3**3 * 40  # gather and product blocks (complex), magnitudes (real)
    byte_bound(cube_bytes)
    assert covariance_residual(unitary, s, ODD) < 1e-12
    byte_bound(cube_bytes - 1)
    with pytest.raises(BoundExceeded):
        covariance_residual(unitary, s, ODD)


@pytest.mark.parametrize("n", [187, 188])
def test_covariance_bound_admits_largest_sizes(n):
    # odd N = 187 and even N = 188 are the largest sizes that fit in 256 MiB
    check_covariance_bound(n)


@pytest.mark.parametrize("n,parity", [(189, ODD), (190, EVEN)])
def test_covariance_bound_refuses_next_sizes(n, parity):
    # refused before the N^3 blocks are allocated, so the call returns at once
    modulus = n if parity == ODD else 2 * n
    with pytest.raises(BoundExceeded):
        covariance_residual(np.eye(n), SympMat.identity(modulus), parity)


def test_proj_unitary_copies_the_callers_array():
    a = np.eye(3, dtype=complex)
    u = ProjUnitary(a, ODD, 3)
    assert a.flags.writeable
    assert not u.matrix.flags.writeable
    a[0, 0] = 2.0
    assert u.matrix[0, 0] == 1.0
