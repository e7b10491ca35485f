import numpy as np
import pytest

from conftest import random_state
from phasepoint.metaplectic import DimensionMismatch, apply_point, u_of
from phasepoint.qops import (
    EVEN,
    ODD,
    ParityError,
    delta_at,
    delta_cohendet,
    lattice_modulus,
    phase_points,
    unit_roots,
)
from phasepoint.symplectic import BoundExceeded, enumerate_group
from phasepoint.wigner import (
    NotNormalized,
    QuantumState,
    WignerTable,
    characteristic_fn,
    marginals,
    weyl_quantize,
    wigner_of,
)


def test_state_normalization_enforced():
    with pytest.raises(NotNormalized):
        QuantumState(np.array([1.0, 1.0]))
    state = QuantumState.normalized([1.0, 1.0])
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    with pytest.raises(NotNormalized):
        QuantumState.normalized([0.0, 0.0])


def test_state_with_overflowing_norm_is_not_normalized():
    # finite amplitudes whose norm overflows: refused, with no RuntimeWarning
    with pytest.raises(NotNormalized):
        QuantumState(np.array([1e308, 1e308j]))
    with pytest.raises(NotNormalized):
        QuantumState.normalized([1e308, 1e308])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NotNormalized):
        QuantumState(np.array([bad, 1.0]))
    with pytest.raises(NotNormalized):
        QuantumState.normalized([bad, 1.0])


def test_wigner_checks_fail_on_nan():
    # Smuggle a NaN past the state's own validation: the table checks must
    # still refuse it rather than return an all-NaN table.
    state = QuantumState.basis(3, 0)
    object.__setattr__(state, "amplitudes", np.array([np.nan, 1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        wigner_of(state, ODD)


def test_basis_state_table_odd():
    table = wigner_of(QuantumState.basis(3, 0), ODD)
    expected = np.zeros((3, 3))
    expected[0, :] = 1.0 / 3.0
    assert np.abs(table.values - expected).max() < 1e-12
    assert table.total == pytest.approx(1.0)
    assert table.imag_residual < 1e-14


def test_parity_must_match_dimension():
    with pytest.raises(ParityError):
        wigner_of(QuantumState.basis(3, 0), EVEN)
    with pytest.raises(ParityError):
        wigner_of(QuantumState.basis(4, 0), ODD)


@pytest.mark.parametrize("n,parity", [(3, ODD), (5, ODD), (7, ODD)])
def test_random_states_odd_properties(n, parity, rng):
    for _ in range(20):
        state = random_state(n, rng)
        table = wigner_of(state, parity)
        assert table.imag_residual < 1e-12
        assert abs(table.total - 1.0) < 1e-12
        position, momentum = marginals(table)
        assert np.abs(position - np.abs(state.amplitudes) ** 2).max() < 1e-12
        ft = np.fft.fft(state.amplitudes, norm="ortho")
        assert np.abs(momentum - np.abs(ft) ** 2).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_random_states_even_properties(n, rng):
    for _ in range(20):
        state = random_state(n, rng)
        table = wigner_of(state, EVEN)
        assert table.values.shape == (2 * n, 2 * n)
        assert table.imag_residual < 1e-12
        assert abs(table.total - 1.0) < 1e-12
        position, momentum = marginals(table)
        # integer points carry the distributions, ghost points vanish
        assert np.abs(position[0::2] - np.abs(state.amplitudes) ** 2).max() < 1e-12
        assert np.abs(position[1::2]).max() < 1e-12
        ft = np.fft.fft(state.amplitudes, norm="ortho")
        assert np.abs(momentum[0::2] - np.abs(ft) ** 2).max() < 1e-12
        assert np.abs(momentum[1::2]).max() < 1e-12


def test_even_basis_state_marginals():
    table = wigner_of(QuantumState.basis(2, 1), EVEN)
    position, _ = marginals(table)
    assert np.abs(position - np.array([0.0, 0.0, 1.0, 0.0])).max() < 1e-12


def test_marginals_each_sum_to_one(rng):
    state = random_state(5, rng)
    position, momentum = marginals(wigner_of(state, ODD))
    assert position.sum() == pytest.approx(1.0)
    assert momentum.sum() == pytest.approx(1.0)


def test_characteristic_fn_normalization_point(rng):
    state = random_state(4, rng)
    assert characteristic_fn(state, 0, 0) == pytest.approx(1.0)
    # for a basis state the n = 0 slice is flat
    basis = QuantumState.basis(2, 0)
    for j in range(4):
        assert characteristic_fn(basis, j, 0) == pytest.approx(1.0)
    with pytest.raises(ParityError):
        characteristic_fn(QuantumState.basis(3, 0), 0, 0)


def test_characteristic_fn_matches_sum_form(rng):
    # Oracle route: the defining sum over shifted amplitude overlaps.
    n = 4
    state = random_state(n, rng)
    amps = state.amplitudes
    roots = unit_roots(2 * n)
    for j in range(2 * n):
        for k in range(2 * n):
            total = 0.0 + 0.0j
            for t in range(n):
                total += roots[(-j * (2 * t + k)) % (2 * n)] * amps[t] * np.conj(
                    amps[(t + k) % n]
                )
            assert characteristic_fn(state, j, k) == pytest.approx(total, abs=1e-12)


def test_wigner_is_fourier_transform_of_characteristic(rng):
    # Double inverse transform of the characteristic table with 1/D^2
    # reproduces the Wigner table.
    n = 2
    d = 2 * n
    state = random_state(n, rng)
    table = wigner_of(state, EVEN)
    char = np.array(
        [[characteristic_fn(state, jp, kp) for kp in range(d)] for jp in range(d)]
    )
    roots = unit_roots(d)
    for j in range(d):
        for k in range(d):
            total = 0.0 + 0.0j
            for jp in range(d):
                for kp in range(d):
                    total += roots[(j * jp + k * kp) % d] * char[jp, kp]
            total /= d * d
            assert abs(total.imag) < 1e-12
            assert table.values[j, k] == pytest.approx(total.real, abs=1e-12)


@pytest.mark.parametrize("n,parity,modulus", [(3, ODD, 3), (2, EVEN, 4)])
def test_covariance_transport_of_tables(n, parity, modulus, rng):
    state = random_state(n, rng)
    table = wigner_of(state, parity)
    for s in enumerate_group(modulus):
        rep = u_of(s, parity)
        moved = wigner_of(QuantumState(rep.matrix @ state.amplitudes), parity)
        inverse = s.inverse()
        for x in range(table.modulus):
            for y in range(table.modulus):
                xp, yp = apply_point(inverse, (x, y))
                assert moved.values[x, y] == pytest.approx(
                    table.values[xp, yp], abs=1e-10
                )


@pytest.mark.parametrize("n", [3, 5])
def test_quantize_constant_grid(n):
    operator = weyl_quantize(np.full((n, n), 2.5), ODD)
    assert np.abs(operator - 2.5 * np.eye(n)).max() < 1e-12


def test_quantize_zero_and_point_grids():
    assert np.abs(weyl_quantize(np.zeros((3, 3)), ODD)).max() == 0
    grid = np.zeros((3, 3))
    grid[1, 2] = 1.0
    assert np.abs(weyl_quantize(grid, ODD) - delta_cohendet(3, 1, 2) / 3).max() < 1e-12


def test_quantize_is_linear_and_hermitian(rng):
    g1 = rng.standard_normal((5, 5))
    g2 = rng.standard_normal((5, 5))
    combined = weyl_quantize(2.0 * g1 - 3.0 * g2, ODD)
    separate = 2.0 * weyl_quantize(g1, ODD) - 3.0 * weyl_quantize(g2, ODD)
    assert np.abs(combined - separate).max() < 1e-12
    op = weyl_quantize(g1, ODD)
    assert np.abs(op - op.conj().T).max() < 1e-12


def test_quantize_even_parity_shape():
    grid = np.zeros((4, 4))
    grid[0, 0] = 4.0
    operator = weyl_quantize(grid, EVEN)
    assert operator.shape == (2, 2)
    assert np.abs(operator - np.eye(2)).max() < 1e-12
    with pytest.raises(DimensionMismatch):
        weyl_quantize(np.zeros((6, 6)), EVEN)
    with pytest.raises(DimensionMismatch):
        weyl_quantize(np.zeros((3, 4)), ODD)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("edge,parity", [(3, ODD), (4, EVEN)])
def test_quantize_rejects_non_finite_grid(bad, edge, parity):
    grid = np.zeros((edge, edge))
    grid[1, 1] = bad
    with pytest.raises(ValueError):
        weyl_quantize(grid, parity)


DENSE_CASES = [(3, ODD), (5, ODD), (7, ODD), (9, ODD), (2, EVEN), (4, EVEN), (6, EVEN), (8, EVEN)]


@pytest.mark.parametrize("n,parity", DENSE_CASES)
def test_wigner_matches_dense_definition(n, parity, rng):
    # Reference: <psi| Delta_p |psi> / D from the dense kernel at every point.
    state = random_state(n, rng)
    amps = state.amplitudes
    d = lattice_modulus(n, parity)
    table = wigner_of(state, parity)
    for x, y in phase_points(n, parity):
        expected = amps.conj() @ delta_at(n, parity, (x, y)) @ amps / d
        assert abs(table.values[x, y] - expected.real) < 1e-12
        assert abs(expected.imag) < 1e-12


@pytest.mark.parametrize("n,parity", DENSE_CASES)
def test_quantize_matches_dense_definition(n, parity, rng):
    # Reference: sum_p H(p) Delta_p / D from the dense kernels.
    d = lattice_modulus(n, parity)
    grid = rng.standard_normal((d, d))
    expected = np.zeros((n, n), dtype=complex)
    for x, y in phase_points(n, parity):
        expected += grid[x, y] * delta_at(n, parity, (x, y))
    expected /= d
    assert np.abs(weyl_quantize(grid, parity) - expected).max() < 1e-12


@pytest.mark.parametrize("n,parity", [(1023, ODD), (512, EVEN)])
def test_large_dimension_ladder(n, parity, rng):
    state = random_state(n, rng)
    amps = state.amplitudes
    table = wigner_of(state, parity)
    assert abs(table.total - 1.0) < 1e-12
    position, momentum = marginals(table)
    if parity == EVEN:
        assert np.abs(position[1::2]).max() < 1e-12
        assert np.abs(momentum[1::2]).max() < 1e-12
        position, momentum = position[0::2], momentum[0::2]
    assert np.abs(position - np.abs(amps) ** 2).max() < 1e-12
    ft = np.fft.fft(amps, norm="ortho")
    assert np.abs(momentum - np.abs(ft) ** 2).max() < 1e-12
    quantized = weyl_quantize(table.values, parity)
    assert np.abs(quantized - np.outer(amps, amps.conj()) / n).max() < 1e-12


def test_wigner_refuses_tables_above_byte_bound(byte_bound):
    state = QuantumState.basis(3, 0)
    table_bytes = 3 * 3 * 64  # four complex words per cell of the 3 x 3 grid
    byte_bound(table_bytes)
    assert wigner_of(state, ODD).total == pytest.approx(1.0)
    byte_bound(table_bytes - 1)
    with pytest.raises(BoundExceeded):
        wigner_of(state, ODD)


@pytest.mark.parametrize("n,parity", [(2049, ODD), (1026, EVEN)])
def test_wigner_bound_sizes(n, parity):
    # odd N <= 2047 and even N <= 1024 fit in 256 MiB; the next sizes are
    # refused before the transform allocates
    with pytest.raises(BoundExceeded):
        wigner_of(QuantumState.basis(n, 0), parity)


def test_wigner_table_copies_the_callers_array():
    grid = np.full((3, 3), 1 / 9)
    table = WignerTable(ODD, grid)
    assert grid.flags.writeable
    assert not table.values.flags.writeable
    grid[0, 0] = 2.0
    assert table.values[0, 0] == 1 / 9
    assert not wigner_of(QuantumState.basis(3, 0), ODD).values.flags.writeable
