import numpy as np
import pytest
from numpy.linalg import matrix_power

from conftest import (
    half_exponent,
    inversion_op,
    phase_op,
    shift_op,
    weyl_leonhardt,
    weyl_symmetric,
)
from phasepoint.lattice import EVEN, ODD, ParityError, kernel_step
from phasepoint.qops import delta_at, delta_family, kernel_factors, phase_points, unit_roots
from phasepoint.symplectic import BoundExceeded

TOL = 1e-12


def assert_unitary(matrix):
    n = matrix.shape[0]
    assert np.abs(matrix.conj().T @ matrix - np.eye(n)).max() < TOL


def test_phase_op_entries():
    w = np.exp(2j * np.pi / 3)
    assert np.abs(phase_op(3) - np.diag([1, w, w**2])).max() < TOL


@pytest.mark.parametrize("n", range(2, 13))
def test_commutation_relation(n):
    q, p = phase_op(n), shift_op(n)
    w = unit_roots(n)[1]
    assert np.abs(p @ q - w * (q @ p)).max() < TOL
    assert_unitary(q)
    assert_unitary(p)


@pytest.mark.parametrize("n", range(2, 10))
def test_inversion_is_hermitian_involution(n):
    t = inversion_op(n)
    assert np.abs(t - t.conj().T).max() == 0
    assert np.abs(t @ t - np.eye(n)).max() == 0


def test_inversion_at_dimension_two_is_identity():
    # -k = k mod 2, so inversion fixes both basis states.
    assert np.array_equal(inversion_op(2), np.eye(2))


def test_half_exponent():
    # 2 * 2 = 4 = 1 mod 3, so "1/2" is the residue 2.
    assert half_exponent(3) == 2
    assert (2 * half_exponent(7)) % 7 == 1
    with pytest.raises(ParityError):
        half_exponent(4)


def naive_weyl_doubled(n, m, nn):
    """Oracle route: explicit operator products instead of exponent tables,
    for w^(-2 m nn) Q^(2 nn) P^(-2 m) = weyl_symmetric(n, 2m, 2nn)."""
    q, p = phase_op(n), shift_op(n)
    p_inv = p.conj().T
    phase = np.exp(-4j * np.pi * m * nn / n)
    return phase * matrix_power(q, 2 * nn % n) @ matrix_power(p_inv, 2 * m % n)


def test_weyl_doubled_labels_against_product_route():
    for n in (3, 5):
        for m in range(n):
            for nn in range(n):
                direct = weyl_symmetric(n, 2 * m, 2 * nn)
                assert np.abs(direct - naive_weyl_doubled(n, m, nn)).max() < 1e-12
                assert_unitary(direct)


def test_weyl_doubled_labels_simple_cases():
    assert np.abs(weyl_symmetric(3, 0, 0) - np.eye(3)).max() < TOL
    # P^-2 = P at N=3 since P^3 = 1
    assert np.abs(weyl_symmetric(3, 2, 0) - shift_op(3)).max() < TOL
    with pytest.raises(ParityError):
        weyl_symmetric(4, 0, 0)


@pytest.mark.parametrize("n", [3, 5])
def test_weyl_translation_covariance(n):
    # Conjugating by a Weyl operator shifts both indices by twice its labels.
    fam = delta_family(n, ODD)
    for mp in range(n):
        for np_ in range(n):
            w = weyl_symmetric(n, 2 * mp, 2 * np_)
            for m in range(n):
                for nn in range(n):
                    lhs = w.conj().T @ fam[(m, nn)] @ w
                    rhs = fam[((m - 2 * mp) % n, (nn - 2 * np_) % n)]
                    assert np.abs(lhs - rhs).max() < 1e-12


def test_weyl_symmetric_identity_and_parity():
    assert np.abs(weyl_symmetric(5, 0, 0) - np.eye(5)).max() < TOL
    with pytest.raises(ParityError):
        weyl_symmetric(2, 0, 0)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_weyl_symmetric_translates_base_point(n):
    base = delta_at(n, ODD, (0, 0))
    for m in range(n):
        for nn in range(n):
            w = weyl_symmetric(n, m, nn)
            assert_unitary(w)
            moved = w @ base @ w.conj().T
            assert np.abs(moved - delta_at(n, ODD, (m, nn))).max() < 1e-12


def test_delta_cohendet_base_point_is_inversion():
    assert np.abs(delta_at(3, ODD, (0, 0)) - inversion_op(3)).max() < TOL


def test_delta_cohendet_against_weyl_product():
    # Independent route: the kernel is the Weyl operator times inversion.
    for n in (3, 5, 7):
        t = inversion_op(n)
        for m in range(n):
            for nn in range(n):
                assert (
                    np.abs(delta_at(n, ODD, (m, nn)) - weyl_symmetric(n, 2 * m, 2 * nn) @ t).max()
                    < 1e-12
                )


def test_delta_cohendet_traces_and_sum():
    for m in range(5):
        for nn in range(5):
            assert abs(np.trace(delta_at(5, ODD, (m, nn))) - 1) < TOL
    total = sum(delta_at(3, ODD, (m, nn)) for m in range(3) for nn in range(3))
    assert np.abs(total - 3 * np.eye(3)).max() < TOL


def test_delta_leonhardt_base_point():
    # At N=2 the inversion is the identity.
    assert np.abs(delta_at(2, EVEN, (0, 0)) - np.eye(2)).max() < TOL
    ghost = delta_at(2, EVEN, (1, 0))
    assert np.abs(ghost - np.array([[0, 1], [1, 0]])).max() < TOL
    with pytest.raises(ParityError):
        delta_at(3, EVEN, (0, 0))


@pytest.mark.parametrize("n,parity", [(4, ODD), (3, EVEN), (1, ODD), (4, "bogus")])
def test_kernel_factors_refuses_a_dimension_that_does_not_fit(n, parity):
    with pytest.raises(ParityError):
        kernel_factors(n, parity, 1, 0)


def test_kernel_step_is_two_on_odd_lattices_and_one_on_the_doubled_grid():
    # Cohendet's Delta_(x,y) sends row i to column 2x - i mod N, Leonhardt's
    # Delta_(j,k) to column j - i
    assert kernel_step(ODD) == 2 and kernel_step(EVEN) == 1
    assert kernel_factors(5, ODD, 1, 0).cols.tolist() == [2, 1, 0, 4, 3]
    assert kernel_factors(4, EVEN, 1, 0).cols.tolist() == [1, 0, 3, 2]


@pytest.mark.parametrize("parity", ["bogus", "Odd", ""])
def test_delta_at_rejects_an_unknown_parity(parity):
    with pytest.raises(ParityError):
        delta_at(4, parity, (1, 0))


@pytest.mark.parametrize("n", [2, 4])
def test_delta_leonhardt_hermitian_everywhere(n):
    for point, delta in delta_family(n, EVEN).items():
        assert np.abs(delta - delta.conj().T).max() < TOL, point


@pytest.mark.parametrize("n", [2, 4])
def test_delta_leonhardt_against_operator_route(n):
    q, p, t = phase_op(n), shift_op(n), inversion_op(n)
    p_inv = p.conj().T
    wt = np.exp(2j * np.pi / (2 * n))
    for j in range(2 * n):
        for k in range(2 * n):
            oracle = wt ** ((-j * k) % (2 * n)) * (
                matrix_power(q, k % n) @ matrix_power(p_inv, j % n) @ t
            )
            assert np.abs(delta_at(n, EVEN, (j, k)) - oracle).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_delta_leonhardt_alias_signs(n):
    # Shifting a doubled coordinate by N reproduces the kernel up to a sign.
    fam = delta_family(n, EVEN)
    for j in range(2 * n):
        for k in range(2 * n):
            assert np.abs(fam[((j + n) % (2 * n), k)] - (-1) ** k * fam[(j, k)]).max() < TOL
            assert np.abs(fam[(j, (k + n) % (2 * n))] - (-1) ** j * fam[(j, k)]).max() < TOL


def test_weyl_leonhardt_identity_and_unitarity(rng):
    assert np.abs(weyl_leonhardt(2, 0, 0) - np.eye(2)).max() < TOL
    for _ in range(20):
        j, k = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        assert_unitary(weyl_leonhardt(4, j, k))


@pytest.mark.parametrize("n", [2, 4])
def test_delta_leonhardt_is_fourier_dual_of_weyl(n):
    # Double inverse Fourier transform over the doubled grid, with the
    # normalization that makes the pairing involutive (1 / 2N).
    wt = unit_roots(2 * n)
    weyls = {
        (jp, kp): weyl_leonhardt(n, jp, kp)
        for jp in range(2 * n)
        for kp in range(2 * n)
    }
    for j in range(2 * n):
        for k in range(2 * n):
            total = np.zeros((n, n), dtype=complex)
            for (jp, kp), w in weyls.items():
                total += wt[(j * jp + k * kp) % (2 * n)] * w
            assert np.abs(total / (2 * n) - delta_at(n, EVEN, (j, k))).max() < 1e-12


def test_exponent_tables_shift_invariant():
    # The integer exponents behind the kernels are well defined mod N under
    # index shifts by N, which is what lets a single canonical basis serve.
    for n in (3, 5, 7):
        for i in range(-n, n):
            for k in range(-n, n):
                d1 = (i - k) * (i - k + n) // 2 % n
                d2 = (i + n - k) * (i + n - k + n) // 2 % n
                assert d1 == d2
    for n in (2, 4):
        for i in range(-n, n):
            assert (i * i) % (2 * n) == ((i + n) * (i + n)) % (2 * n)


def test_phase_points_and_family_shapes():
    assert len(phase_points(3, ODD)) == 9
    assert len(phase_points(2, EVEN)) == 16
    fam = delta_family(3, ODD)
    assert set(fam) == set(phase_points(3, ODD))
    with pytest.raises(ParityError):
        phase_points(3, "diagonal")


@pytest.mark.parametrize("n,parity,points", [(3, ODD, 9), (2, EVEN, 16)])
def test_delta_family_byte_bound(byte_bound, n, parity, points):
    family_bytes = points * n**2 * 16
    byte_bound(family_bytes)
    assert len(delta_family(n, parity)) == points
    byte_bound(family_bytes - 1)
    with pytest.raises(BoundExceeded):
        delta_family(n, parity)


@pytest.mark.parametrize("n,parity", [(65, ODD), (46, EVEN)])
def test_delta_family_refused_above_bound(n, parity):
    # 16 N^4 bytes odd and 64 N^4 even admit odd N <= 63 and even N <= 44;
    # the next sizes are refused before anything is built
    with pytest.raises(BoundExceeded):
        delta_family(n, parity)
