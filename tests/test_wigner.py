import numpy as np
import pytest

from conftest import lattice_points, random_state, weyl_leonhardt
from phasepoint import qops, wigner
from phasepoint.lattice import (
    EVEN,
    ODD,
    DimensionMismatch,
    ParityError,
    hilbert_dim,
    kernel_step,
    lattice_modulus,
)
from phasepoint.metaplectic import u_of
from phasepoint.qops import delta_at, unit_roots
from phasepoint.symplectic import BoundExceeded, apply_point, enumerate_group
from phasepoint.wigner import (
    NotNormalized,
    QuantumState,
    WignerTable,
    marginals,
    weyl_quantize,
    wigner_of,
)


def characteristic_fn(state, j, k):
    """Even-lattice characteristic function at doubled coordinates (j, k):
    the expectation value of the Weyl operator there."""
    amps = state.amplitudes
    return complex(amps.conj() @ weyl_leonhardt(state.dim, j, k) @ amps)


@pytest.fixture
def fresh_plans():
    """An empty plan memo for one test, emptied again after it."""
    wigner._plan_memo.cache_clear()
    yield
    wigner._plan_memo.cache_clear()


def plan(modulus, parity):
    """The lattice's plan, looked up as the transforms look it up."""
    return wigner._plan(modulus, hilbert_dim(modulus, parity), parity)


def memoised(modulus, parity):
    """Whether the plan memo holds the lattice's plan: a _plan call hits
    the memo (and renews the plan, as a transform's call would)."""
    hits = wigner._plan_memo.cache_info().hits
    plan(modulus, parity)
    return wigner._plan_memo.cache_info().hits > hits


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


@pytest.mark.parametrize("n,parity", [(3, ODD), (4, EVEN)])
def test_wigner_accepts_state_within_norm_tolerance(n, parity):
    # |psi|^2 = 1 + 1.8e-8: admitted by QuantumState (norm deviation 9e-9),
    # and the table sums to |psi|^2, not to 1
    state = QuantumState([1.000000009] + [0.0] * (n - 1))
    norm2 = 1.000000009**2
    assert abs(norm2 - 1.0) > 1e-8
    assert wigner_of(state, parity).total == pytest.approx(norm2, rel=0, abs=1e-15)


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
    assert np.abs(weyl_quantize(grid, ODD) - delta_at(3, ODD, (1, 2)) / 3).max() < 1e-12


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
    with pytest.raises(ParityError):
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


def test_complex_grid_and_table_are_refused_not_cast():
    # a nonzero imaginary part would be dropped by a cast to float
    grid = np.ones((3, 3)) + 1j * np.eye(3)
    with pytest.raises(ValueError, match="imaginary"):
        weyl_quantize(grid, ODD)
    with pytest.raises(ValueError, match="imaginary"):
        WignerTable(ODD, grid / 9)
    # complex entries with zero imaginary part are real values
    real = np.ones((3, 3), dtype=complex)
    assert np.array_equal(weyl_quantize(real, ODD), weyl_quantize(real.real, ODD))
    assert WignerTable(ODD, real / 9).total == WignerTable(ODD, real.real / 9).total


DENSE_CASES = [(3, ODD), (5, ODD), (7, ODD), (9, ODD), (2, EVEN), (4, EVEN), (6, EVEN), (8, EVEN)]


@pytest.mark.parametrize("n,parity", DENSE_CASES)
def test_wigner_matches_dense_definition(n, parity, rng):
    # Reference: <psi| Delta_p |psi> / D from the dense kernel at every point.
    state = random_state(n, rng)
    amps = state.amplitudes
    d = lattice_modulus(n, parity)
    table = wigner_of(state, parity)
    for x, y in lattice_points(n, parity):
        expected = amps.conj() @ delta_at(n, parity, (x, y)) @ amps / d
        assert abs(table.values[x, y] - expected.real) < 1e-12
        assert abs(expected.imag) < 1e-12


@pytest.mark.parametrize("n,parity", DENSE_CASES)
def test_quantize_matches_dense_definition(n, parity, rng):
    # Reference: sum_p H(p) Delta_p / D from the dense kernels.
    d = lattice_modulus(n, parity)
    grid = rng.standard_normal((d, d))
    expected = np.zeros((n, n), dtype=complex)
    for x, y in lattice_points(n, parity):
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


def test_wigner_refuses_tables_above_byte_bound(byte_bound, fresh_plans):
    state = QuantumState.basis(3, 0)
    grid = np.full((3, 3), 1 / 9)
    table_bytes = 3 * 3 * 64  # four complex words per cell of the 3 x 3 grid

    def refused():
        byte_bound(table_bytes - 1)
        with pytest.raises(BoundExceeded):
            wigner_of(state, ODD)
        with pytest.raises(BoundExceeded):
            weyl_quantize(grid, ODD)
        byte_bound(table_bytes)

    refused()
    # refused before the plan is looked up or built
    assert wigner._plan_memo.cache_info()[:2] == (0, 0)
    assert wigner_of(state, ODD).total == pytest.approx(1.0)
    assert np.abs(weyl_quantize(grid, ODD) - np.eye(3) / 9).max() < 1e-15
    assert memoised(3, ODD)
    refused()  # and still refused with the plan memoised


@pytest.mark.parametrize("n,parity", [(2049, ODD), (1026, EVEN)])
def test_wigner_bound_sizes(n, parity):
    # odd N <= 2047 and even N <= 1024 fit in 256 MiB; the next sizes are
    # refused before the transforms allocate (the grid is never read)
    modulus = lattice_modulus(n, parity)
    with pytest.raises(BoundExceeded):
        wigner_of(QuantumState.basis(n, 0), parity)
    with pytest.raises(BoundExceeded):
        weyl_quantize(np.zeros((modulus, modulus)), parity)
    wigner._check_transform_bytes("the largest admitted table", lattice_modulus(n - 2, parity))


def test_wigner_table_copies_the_callers_array():
    grid = np.full((3, 3), 1 / 9)
    table = WignerTable(ODD, grid)
    assert grid.flags.writeable
    assert not table.values.flags.writeable
    grid[0, 0] = 2.0
    assert table.values[0, 0] == 1 / 9
    assert not wigner_of(QuantumState.basis(3, 0), ODD).values.flags.writeable


@pytest.mark.parametrize("edge,parity", [(6, EVEN), (5, EVEN), (4, ODD), (1, ODD), (4, "bogus")])
def test_wigner_table_rejects_a_shape_that_fits_no_dimension(edge, parity):
    with pytest.raises(ParityError):
        WignerTable(parity, np.zeros((edge, edge)))


def test_wigner_table_dimension():
    assert WignerTable(ODD, np.zeros((5, 5))).dim == 5
    assert WignerTable(EVEN, np.zeros((8, 8))).dim == 4


# -- per-lattice plans ---------------------------------------------------------


def chirp_wigner_of(state, parity):
    """Reference: wigner_of's complex entries with the chirp and the indexes
    built inside the call, as before the plans were memoised."""
    n = state.dim
    modulus = lattice_modulus(n, parity)
    step = kernel_step(parity)
    amps = state.amplitudes
    x = np.arange(modulus).reshape(-1, 1)
    i = np.arange(n)
    pairs = amps.conj() * amps[(step * x - i) % n]
    spectra = np.fft.ifft(pairs, axis=1) * (n / modulus)
    y = np.arange(modulus)
    return unit_roots(modulus)[(-step * x * y) % modulus] * spectra[:, (step * y) % n]


def chirp_weyl_quantize(grid, parity):
    """Reference: weyl_quantize with the chirp and the indexes built inside
    the call, as before the plans were memoised."""
    values = np.asarray(grid, dtype=float)
    modulus = values.shape[0]
    n = hilbert_dim(modulus, parity)
    step = kernel_step(parity)
    x = np.arange(modulus).reshape(-1, 1)
    y = np.arange(modulus)
    i = np.arange(n)
    weighted = values * unit_roots(modulus)[(-step * x * y) % modulus]
    rows = np.fft.ifft(weighted, axis=1)[:, (2 * i) % modulus]
    rows = rows.reshape(modulus // n, n, n).sum(axis=0)
    operator = np.empty((n, n), dtype=complex)
    operator[i, (step * x[:n] - i) % n] = rows
    return operator


def same_bits(a, b):
    """Equal dtype, shape, memory layout and bytes: stricter than
    np.array_equal, which takes -0.0 for 0.0 and ignores the layout that
    sums depend on."""
    return (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())


# DENSE_CASES, the benchmark's lattices and two above the memo limit (odd
# 179, even 108), odd and even in turn
PLAN_CASES = [
    (3, ODD), (2, EVEN), (5, ODD), (4, EVEN), (7, ODD), (6, EVEN), (9, ODD), (8, EVEN),
    (41, ODD), (16, EVEN), (255, ODD), (256, EVEN),
]


def test_transforms_equal_the_per_call_chirp_build(fresh_plans, rng):
    # Each odd-even pair twice: the first visit builds the plans, the
    # second reads the memoised ones; the sizes above the memo limit build
    # theirs on every call.
    for pair in zip(PLAN_CASES[0::2], PLAN_CASES[1::2]):
        plans = {}
        for _ in range(2):
            for n, parity in pair:
                state = random_state(n, rng)
                table = wigner_of(state, parity)
                reference = chirp_wigner_of(state, parity)
                expected = WignerTable(parity, reference.real, float(np.abs(reference.imag).max()))
                assert same_bits(table.values, expected.values)
                assert table.imag_residual == expected.imag_residual
                assert table.total == expected.total
                for got, want in zip(marginals(table), marginals(expected)):
                    assert same_bits(got, want)
                operator = weyl_quantize(table.values, parity)
                assert same_bits(operator, chirp_weyl_quantize(table.values, parity))
                grid = rng.standard_normal(table.values.shape)
                assert same_bits(weyl_quantize(grid, parity), chirp_weyl_quantize(grid, parity))
                key = (table.modulus, parity)
                plans.setdefault(key, []).append(plan(*key))
        # one memoised plan per lattice, or a new plan on every call
        fresh = [len(set(map(id, built))) == 2 for built in plans.values()]
        assert fresh == [n > 200 for n, _ in pair]


@pytest.mark.parametrize("n", [3, 9])
def test_odd_transforms_keep_the_chirp_builds_signed_zeros(n):
    # On odd lattices wigner_of's factor n / modulus is 1.0 and weyl_quantize
    # sums one row block, yet neither pass is a no-op on exact zeros: both
    # turn some -0.0 into 0.0, which basis states and signed-zero grids show.
    states = []
    for k in range(n):
        for phase in (1, 1j, -1):
            amplitudes = np.zeros(n, dtype=complex)
            amplitudes[k] = phase
            states.append(amplitudes)
    for amplitudes in states:
        state = QuantumState(amplitudes)
        assert same_bits(wigner_of(state, ODD).values, chirp_wigner_of(state, ODD).real.copy())
    grid = np.zeros((n, n))
    grid[::2] = -0.0
    for values in (grid, -np.zeros((n, n))):
        assert same_bits(weyl_quantize(values, ODD), chirp_weyl_quantize(values, ODD))


@pytest.mark.parametrize("n,parity", [(5, ODD), (4, EVEN), (181, ODD), (110, EVEN)])
def test_plan_arrays_are_read_only(n, parity):
    for array in plan(lattice_modulus(n, parity), parity):
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("largest,parity,per_cell,per_n", [(179, ODD, 32, 16), (108, EVEN, 22, 24)])
def test_plan_memo_limit(largest, parity, per_cell, per_n, fresh_plans):
    # plan bytes are per_cell per table cell plus per_n per dimension;
    # the largest memoised lattice and the next one of its parity
    for n in (largest, largest + 2):
        modulus = lattice_modulus(n, parity)
        first = plan(modulus, parity)
        assert first.nbytes == per_cell * modulus * modulus + per_n * n
        # memoised only at the largest: a second call returns the same plan
        assert (plan(modulus, parity) is first) == (n == largest)
    assert first.nbytes > qops._PLAN_MEMO_BYTES
    assert wigner._plan_memo.cache_info().currsize == 1


def test_memoised_plans_stay_under_the_ceiling(fresh_plans):
    ceiling = qops._PLAN_SLOTS * qops._PLAN_MEMO_BYTES
    assert ceiling == 8 << 20  # the module docstring's figure
    sweep = [(n, ODD) for n in range(3, 256, 2)] + [(n, EVEN) for n in range(2, 129, 2)]
    for n, parity in sweep:
        table = wigner_of(QuantumState.basis(n, 1), parity)
        weyl_quantize(table.values, parity)
        modulus = table.modulus
        # exactly the plans within _PLAN_MEMO_BYTES are memoised
        small = plan(modulus, parity).nbytes <= qops._PLAN_MEMO_BYTES
        assert memoised(modulus, parity) == small
        assert wigner._plan_memo.cache_info().currsize <= qops._PLAN_SLOTS
    # so the memo holds at most _PLAN_SLOTS plans of at most
    # _PLAN_MEMO_BYTES each; the last eight memoised lattices, each renewed
    # in the order it was used
    assert all(memoised(2 * n, EVEN) for n in range(94, 109, 2))
    # a hit renews its plan: the next miss evicts the one after it
    wigner_of(QuantumState.basis(94, 1), EVEN)
    wigner_of(QuantumState.basis(3, 1), ODD)
    assert memoised(2 * 94, EVEN) and not memoised(2 * 96, EVEN)


def test_plan_above_memo_limit_leaves_the_memo_unchanged(fresh_plans):
    small = [(3, ODD), (4, EVEN), (179, ODD)]
    before = [plan(lattice_modulus(n, parity), parity) for n, parity in small]
    info = wigner._plan_memo.cache_info()
    for n, parity in [(181, ODD), (110, EVEN)]:
        table = wigner_of(QuantumState.basis(n, 0), parity)
        weyl_quantize(table.values, parity)
    # the larger plans never reach the memo: no hit, no miss, no entry
    assert wigner._plan_memo.cache_info() == info
    after = [plan(lattice_modulus(n, parity), parity) for n, parity in small]
    assert all(a is b for a, b in zip(after, before))
