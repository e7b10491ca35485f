import math
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import matrix_power

from phasepoint.lattice import (
    EVEN,
    ODD,
    DimensionMismatch,
    ParityError,
    hilbert_dim,
    lattice_modulus,
    symmetric_order,
)
from phasepoint import metaplectic
from phasepoint.metaplectic import (
    ProjUnitary,
    _BOUND_ENTRY_BYTES,
    _RESIDUAL_ENTRY_BYTES,
    _covariance_bounds,
    _phase_fit,
    _round_stack,
    _three_point_defects,
    _u_stack,
    apply_point,
    covariance_residual,
    equal_up_to_phase,
    group_covariance,
    group_projectivity,
    intertwining_defect,
    phase_defect,
    u_hminus,
    u_hplus,
    u_of,
    u_table,
)
from phasepoint.modring import ModulusMismatch
from phasepoint.qops import (
    delta_at,
    kernel_factors,
    phase_points,
    unit_roots,
)
from phasepoint.symplectic import (
    SYSTEM_BYTES_BOUND,
    BoundExceeded,
    SympMat,
    bfs_decompose,
    decompose,
    enumerate_group,
    four_factor_word,
    generator,
    generator_power,
    h_t,
    random_element,
)


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
    modulus = lattice_modulus(n, parity)
    for unitary in (u_hplus(n, parity), u_hminus(n, parity), u_of(h_t(modulus), parity)):
        u = unitary.matrix
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n,parity", [(3, ODD), (5, ODD), (7, ODD), (2, EVEN), (4, EVEN)])
def test_generator_covariance(n, parity):
    modulus = lattice_modulus(n, parity)
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
    with pytest.raises(ParityError):
        hilbert_dim(4, ODD)
    with pytest.raises(ParityError):
        hilbert_dim(6, EVEN)  # modulus 2N with N even must be divisible by 4
    assert hilbert_dim(7, ODD) == 7
    assert hilbert_dim(8, EVEN) == 4


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_hilbert_dim_inverts_lattice_modulus(parity):
    moduli = {lattice_modulus(n, parity): n for n in range(2, 401) if n % 2 == (parity == ODD)}
    for modulus in range(2, 401):
        if modulus in moduli:
            assert hilbert_dim(modulus, parity) == moduli[modulus]
        else:
            with pytest.raises(ParityError):
                hilbert_dim(modulus, parity)
    with pytest.raises(ParityError):
        hilbert_dim(8, "bogus")


def word_product(word, n, parity):
    """U(S) as the product of generator powers along ``word``."""
    up, um = u_hplus(n, parity).matrix, u_hminus(n, parity).matrix
    product = np.eye(n, dtype=complex)
    for sign, exponent in word.factors:
        product = product @ matrix_power(up if sign == "+" else um, exponent)
    return product


def test_u_of_identity_and_generator():
    ident = u_of(SympMat.identity(7), ODD)
    assert equal_up_to_phase(ident.matrix, np.eye(7)).equivalent
    rep = u_of(generator("+", 7), ODD)
    assert np.abs(rep.matrix - u_hplus(7, ODD).matrix).max() < 1e-12


def test_u_of_random_covariance(rng):
    for _ in range(20):
        s = random_element(5, rng)
        rep = u_of(s, ODD)
        assert covariance_residual(rep.matrix, s, ODD) < 1e-10


def test_u_of_path_independence(rng):
    # Euclid and BFS words differ, but their products agree up to phase.
    for _ in range(10):
        s = random_element(5, rng)
        a = u_of(s, ODD).matrix
        b = word_product(bfs_decompose(s), 5, ODD)
        assert equal_up_to_phase(a, b, tol=1e-10).equivalent


@pytest.mark.parametrize(
    # even lattices have moduli 2N with N even, so 4, 8 and 12 are all of them up to 12
    "modulus,parity", [(m, ODD) for m in (3, 5, 7, 9, 11)] + [(m, EVEN) for m in (4, 8, 12)]
)
def test_u_of_matches_euclidean_word_product_on_whole_group(modulus, parity):
    n = hilbert_dim(modulus, parity)
    for s in enumerate_group(modulus):
        expected = word_product(decompose(s), n, parity)
        assert equal_up_to_phase(u_of(s, parity).matrix, expected, tol=1e-10).equivalent


@pytest.mark.parametrize("modulus,parity", [(7, ODD), (8, EVEN)])
def test_u_of_generator_power_is_the_matrix_power(modulus, parity):
    # no phase freedom: a one-factor word gives exactly that power
    n = hilbert_dim(modulus, parity)
    for sign, base in (("+", u_hplus(n, parity)), ("-", u_hminus(n, parity))):
        for k in range(modulus):
            rep = u_of(generator_power(sign, k, modulus), parity).matrix
            assert np.abs(rep - matrix_power(base.matrix, k)).max() < 1e-12


@pytest.mark.parametrize("n,parity", [(255, ODD), (256, EVEN)])
def test_u_of_is_projective_at_large_dimensions(n, parity):
    modulus = lattice_modulus(n, parity)
    rng = np.random.default_rng(n)
    for _ in range(3):
        s1, s2 = random_element(modulus, rng), random_element(modulus, rng)
        u1, u2, u12 = (u_of(s, parity).matrix for s in (s1, s2, s1 @ s2))
        assert np.abs(u1.conj().T @ u1 - np.eye(n)).max() < 1e-12
        assert phase_defect(u12, u1 @ u2) <= 1e-9


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


def all_points_covariance(us, elements, parity):
    """The all-points float defect max_p |U Delta_p U^dag - Delta_(s.p)|
    of each matrix of a (G, N, N) stack against its element (one modulus),
    from the factored kernels Delta_(x,y) = c_xy Z_y Pi_x: with
    G = [Pi_0 U^dag | ... | Pi_(N-1) U^dag], one GEMM (U Z_y) G per
    momentum index y gives a whole row of points, and the image kernel
    touches only N entries of each block. N^5 multiply-adds per matrix.

    Even lattices need only the points j, k in [0, N) of the doubled grid:
    with wt^N = -1, Delta_(j+N,k) = (-1)^k Delta_(j,k) and
    Delta_(j,k+N) = (-1)^j Delta_(j,k), and since det s is odd, ad + bc is
    odd, so the image of a folded point carries the same sign as the point;
    the defect's norm there equals the norm at its representative.
    """
    count = len(elements)
    modulus = elements[0].modulus
    n = hilbert_dim(modulus, parity)
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
    products = np.empty((count, n, n, n), dtype=complex)
    # flat offset of products[g, i, x, 0] at [g, x, i]
    offsets = ((np.arange(count)[:, None, None] * n + rows) * n + xs) * n
    defects = np.empty((n, count))
    for y in range(n):
        image = kernel_factors(n, parity, image_x[y], image_y[y])
        # products[g, i, x, k] = (U_g Z_y Pi_x U_g^dag)[i, k]
        # Z_y is the row of points' kernel at x = 0, c_xy its exponent at i = 0
        np.matmul(us * roots[source.exponents[y, 0]], gather, out=products.reshape(count, n, n * n))
        exponents = (image.exponents - source.exponents[y, :, :1]) % r
        # the image kernel is supported at (i, image.cols[g, x, i]) in block x
        products.reshape(-1)[offsets + image.cols] -= roots[exponents]
        defects[y] = np.abs(products).max(axis=(1, 2, 3))
    return defects.max(axis=0)


@pytest.mark.parametrize(
    "n,parity", [(n, ODD) for n in (3, 5, 7, 9)] + [(n, EVEN) for n in (2, 4, 6, 8)]
)
def test_covariance_residual_matches_dense_reference(n, parity, rng):
    # the factored all-points loop matches the dense kernels at every point
    # of the full grid, and covariance_residual bounds both from above
    modulus = lattice_modulus(n, parity)
    s = random_element(modulus, rng)
    other = random_element(modulus, rng)
    while other == s:
        other = random_element(modulus, rng)
    matrices = [
        u_of(s, parity).matrix,
        u_of(other, parity).matrix,
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    ]
    for u in matrices:
        expected = dense_covariance_residual(u, s, parity)
        factored = all_points_covariance(u[None], [s], parity)[0]
        assert factored == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert covariance_residual(u, s, parity) >= max(expected, factored)


def covariance_cases(s, parity, rng):
    """U(S) with one thing wrong, in each of the ways a covariance check
    must see: the wrong element, a random matrix, a 1j phase on one support
    entry, 1e-9 and 1e-3 perturbations and a global phase (which is not
    wrong)."""
    n = hilbert_dim(s.modulus, parity)
    u = u_of(s, parity).matrix
    other = random_element(s.modulus, rng)
    while other == s:
        other = random_element(s.modulus, rng)
    mutant = u.copy()
    mutant[tuple(np.argwhere(np.abs(u) > 0.5 / np.sqrt(n))[rng.integers(n)])] *= 1j

    def noise():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    return {
        "wrong": u_of(other, parity).matrix,
        "random": noise(),
        "mutant": mutant,
        "perturbed 1e-9": u + 1e-9 * noise(),
        "perturbed 1e-3": u + 1e-3 * noise(),
        "phase": np.exp(0.7j) * u,
    }


@pytest.mark.parametrize("n,parity", [(3, ODD), (7, ODD), (31, ODD), (63, ODD),
                                      (2, EVEN), (4, EVEN), (32, EVEN), (64, EVEN)])
def test_covariance_residual_bounds_the_all_points_reference(n, parity, rng):
    s = random_element(lattice_modulus(n, parity), rng)
    cases = covariance_cases(s, parity, rng)
    references = all_points_covariance(np.array(list(cases.values())), [s] * len(cases), parity)
    for (name, u), reference in zip(cases.items(), references):
        figure = covariance_residual(u, s, parity)
        assert reference <= figure, name
        if name == "perturbed 1e-9":
            assert figure <= 4 * reference
        if name == "phase":
            assert figure < 1e-12
        if name in ("wrong", "mutant"):
            assert figure > 1e-3


@pytest.mark.parametrize("modulus,parity", [(m, ODD) for m in (3, 5, 7, 9, 11)]
                         + [(m, EVEN) for m in (4, 8, 12)])
def test_covariance_residual_bounds_the_all_points_reference_on_whole_group(modulus, parity):
    elements = enumerate_group(modulus)
    figures = group_covariance(elements, parity)
    references = all_points_covariance(_u_stack(elements, parity), elements, parity)
    assert (references <= figures).all()
    assert figures.max() < 1e-12


def test_covariance_residual_builds_no_kernel_cache(no_dense_kernel):
    for n, parity in [(5, ODD), (4, EVEN)]:
        s = h_t(lattice_modulus(n, parity))
        assert covariance_residual(u_of(s, parity).matrix, s, parity) < 1e-10


def test_covariance_residual_memory_is_cubic():
    # The id is kept from the N^5 loop, whose N^3 blocks it bounded; the
    # certified bound keeps O(N^2) arrays, and its tracemalloc peak (the
    # closed-form table included, the caller's matrix not) is within
    # _RESIDUAL_ENTRY_BYTES per entry.
    for n, parity in [(511, ODD), (1023, ODD), (512, EVEN), (1024, EVEN)]:
        s = SympMat(2, 1, 1, 1, lattice_modulus(n, parity))
        unitary = u_of(s, parity).matrix
        tracemalloc.start()
        try:
            residual = covariance_residual(unitary, s, parity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual < 1e-12
        assert 0.85 * _RESIDUAL_ENTRY_BYTES < peak / n**2 <= _RESIDUAL_ENTRY_BYTES


def test_covariance_residual_refuses_dimensions_above_byte_bound(byte_bound):
    s = generator("+", 3)
    unitary = u_of(s, ODD).matrix
    square_bytes = 3**2 * _RESIDUAL_ENTRY_BYTES  # the table and the bound's arrays
    byte_bound(square_bytes)
    assert covariance_residual(unitary, s, ODD) < 1e-12
    byte_bound(square_bytes - 1)
    with pytest.raises(BoundExceeded):
        covariance_residual(unitary, s, ODD)


def table_matrix(table):
    """The complex matrix of an exact table."""
    values = table.scale * unit_roots(table.root_modulus)[table.exponents]
    values[~table.support] = 0
    return values


@pytest.mark.parametrize("n", [2469, 2468])
def test_covariance_bound_admits_largest_sizes(n):
    # odd N = 2469 and even N = 2468 are the largest sizes that fit in
    # 256 MiB, and U(S)'s figure stays far below every tolerance there;
    # above u_of's N = 2048 the matrix comes from the closed-form table
    assert _RESIDUAL_ENTRY_BYTES * n**2 <= SYSTEM_BYTES_BOUND < _RESIDUAL_ENTRY_BYTES * (n + 2) ** 2
    parity = ODD if n % 2 else EVEN
    s = random_element(lattice_modulus(n, parity), np.random.default_rng(n))
    assert covariance_residual(table_matrix(u_table(s, parity)), s, parity) < 1e-12


@pytest.mark.parametrize("n,parity", [(2471, ODD), (2470, EVEN)])
def test_covariance_bound_refuses_next_sizes(n, parity):
    # refused before anything is built, so the call returns at once
    modulus = lattice_modulus(n, parity)
    with pytest.raises(BoundExceeded):
        covariance_residual(np.eye(n), SympMat.identity(modulus), parity)


def test_uncertified_table_gives_inf_and_nan_stays_nan(monkeypatch):
    s = SympMat(2, 1, 1, 1, 5)
    u = u_of(s, ODD).matrix
    with_nan = u.copy()
    with_nan[1, 2] = np.nan
    # a descriptor with one coefficient off fails its certificate
    build = metaplectic.descriptor

    def perturbed(s, parity):
        form = build(s, parity)
        c0, ci, cm, cii, cim, cmm = form.coefficients
        return form.__class__(form.dim, form.root_modulus, form.gcd, form.offset, form.stride,
                              (c0, ci, cm, cii + 1, cim, cmm), form.eighth, form.square)

    monkeypatch.setattr(metaplectic, "descriptor", perturbed)
    assert covariance_residual(u, s, ODD) == np.inf
    assert np.isnan(covariance_residual(with_nan, s, ODD))
    monkeypatch.setattr(metaplectic, "descriptor", build)
    # the true table, with its certificate forced false
    monkeypatch.setattr(metaplectic, "certify", lambda *args: False)
    assert covariance_residual(u, s, ODD) == np.inf
    assert np.isnan(covariance_residual(with_nan, s, ODD))


def test_covariance_residual_builds_no_unitary_and_rounds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    for name in ("_u_stack", "_round_stack", "_three_point_defects"):
        monkeypatch.setattr(metaplectic, name, refuse)
    for n, parity in [(7, ODD), (8, EVEN)]:
        s = SympMat(2, 1, 1, 1, lattice_modulus(n, parity))
        assert covariance_residual(word_product(four_factor_word(s), n, parity), s, parity) < 1e-12


@pytest.mark.parametrize("n,parity", [(5, ODD), (4, EVEN)])
@pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0, np.inf), 1e300])
def test_infinite_or_huge_entry_gives_a_failing_figure_without_warning(monkeypatch, n, parity, entry):
    # warnings are errors in this suite, so reaching the asserts means none was raised
    s = generator("+", lattice_modulus(n, parity))
    u = u_of(s, parity).matrix.copy()
    u[1, 2] = entry
    assert not covariance_residual(u, s, parity) <= 1e-9
    elements = [s, h_t(s.modulus)]
    figures = group_covariance(elements, parity)
    build = metaplectic._u_stack

    def with_entry(part, parity):
        stack = build(part, parity)
        stack[0, 1, 2] = entry
        return stack

    monkeypatch.setattr(metaplectic, "_u_stack", with_entry)
    damaged = group_covariance(elements, parity)
    assert not damaged[0] <= 1e-9
    assert damaged[1] == figures[1] < 1e-12

@pytest.mark.parametrize("build", [u_hplus, u_hminus, lambda n, parity: u_of(h_t(n), parity)])
def test_unitary_builders_refuse_dimensions_above_byte_bound(byte_bound, build):
    unitary_bytes = 64 * 3**2  # four N x N complex arrays
    byte_bound(unitary_bytes)
    assert build(3, ODD).matrix.shape == (3, 3)
    byte_bound(unitary_bytes - 1)
    with pytest.raises(BoundExceeded):
        build(3, ODD)


def test_proj_unitary_copies_the_callers_array():
    a = np.eye(3, dtype=complex)
    u = ProjUnitary(a)
    assert a.flags.writeable
    assert not u.matrix.flags.writeable
    a[0, 0] = 2.0
    assert u.matrix[0, 0] == 1.0


WHOLE_GROUPS = [(m, ODD) for m in (3, 5, 7, 9, 11)] + [(m, EVEN) for m in (4, 8, 12)]


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_stacked_cores_equal_the_one_element_functions_on_whole_group(
    modulus, parity, stack_budget
):
    # every sign pattern of the four-factor word meets the others in one
    # stack; the figures must not depend on what else a stack holds
    elements = enumerate_group(modulus)
    singles = [u_of(s, parity).matrix for s in elements]
    stack = _u_stack(elements, parity)
    assert np.array_equal(stack, np.array(singles))
    expected = [covariance_residual(u, s, parity) for u, s in zip(singles, elements)]
    # passes of 50, as the CLI cuts them, and one ragged last pass
    parts = [(stack[start : start + 50], elements[start : start + 50])
             for start in range(0, len(elements), 50)]
    residuals = np.concatenate([_covariance_bounds(us, us, part, parity) for us, part in parts])
    assert np.array_equal(residuals, expected)
    # the stacked rounding and three-point defects, against the one-element
    # functions, for the whole group in one stack
    tables, failures = _round_stack(stack, elements)
    assert failures == [None] * len(elements)
    defects = _three_point_defects(tables, elements, parity)
    for g, (u, s) in enumerate(zip(singles, elements)):
        table = u_table(s, parity, u)
        assert np.array_equal(tables.exponents[g], table.exponents)
        assert np.array_equal(tables.support[g], table.support)
        assert (tables.gcd[g], tables.scale[g]) == (table.gcd, table.scale)
        assert defects[g] == intertwining_defect(table, s, parity) == 0.0
    composed = _u_stack([s @ s for s in elements], parity)
    squares = stack @ stack
    defects = [phase_defect(c, q) for c, q in zip(composed, squares)]
    assert np.array_equal(_phase_fit(composed, squares)[1], defects)
    # the drivers, in passes of their own size and of seven covariance
    # elements (ragged for both drivers), against one pair at a time
    pairs = list(zip(elements, elements[::-1]))
    expected_defects = [
        phase_defect(u_of(s1 @ s2, parity), u1 @ u2)
        for (s1, s2), u1, u2 in zip(pairs, singles, singles[::-1])
    ]
    n = hilbert_dim(modulus, parity)
    for budget in (None, 7 * _BOUND_ENTRY_BYTES * n * n):
        if budget is not None:
            stack_budget(budget)
        assert np.array_equal(group_covariance(elements, parity), expected)
        assert np.array_equal(group_projectivity(pairs, parity), expected_defects)


def test_drivers_refuse_mixed_moduli():
    with pytest.raises(ModulusMismatch):
        group_covariance([generator("+", 3), generator("+", 5)], ODD)
    with pytest.raises(ModulusMismatch):
        group_projectivity([(generator("+", 3),) * 2, (generator("+", 5),) * 2], ODD)


@pytest.mark.parametrize("n,parity", [(5, ODD), (4, EVEN)])
def test_nan_in_one_stacked_unitary_reaches_only_its_figure(n, parity, rng):
    modulus = lattice_modulus(n, parity)
    elements = [random_element(modulus, rng) for _ in range(6)]
    clean = _u_stack(elements, parity)
    for g in range(len(elements)):
        stack = clean.copy()
        stack[g, 1, 2] = np.nan
        residuals = _covariance_bounds(stack, clean, elements, parity)
        defects = _phase_fit(stack, clean)[1]
        for figures in (residuals, defects):
            assert np.isnan(figures[g])
            assert np.isfinite(np.delete(figures, g)).all()


def test_stacked_phase_fit_keeps_a_nan_phase():
    # a NaN on the diagonal makes the phase NaN: the diagonal subtraction
    # must carry it into the residual
    stack = np.array([np.eye(3), np.eye(3)], dtype=complex)
    stack[1, 0, 0] = np.nan
    defects = _phase_fit(stack, np.array([np.eye(3)] * 2))[1]
    assert defects[0] == 0.0
    assert np.isnan(defects[1])
    assert np.isnan(phase_defect(stack[1], np.eye(3)))


def test_drivers_return_an_empty_array_for_no_elements():
    for residuals in (group_covariance([], ODD), group_projectivity([], EVEN)):
        assert residuals.shape == (0,)
        assert residuals.dtype == float


def all_points_defects(tables, s, parity):
    """Reference for intertwining_defect: the same table comparison at every
    lattice point, for tables of one scale and root modulus. V Delta_p
    scatters V's columns k to sigma_p(k); Delta_(S.p) V gathers V's rows."""
    n = hilbert_dim(s.modulus, parity)
    scale, r = tables[0].scale, tables[0].root_modulus
    exponents = np.array([table.exponents for table in tables])[:, None]
    support = np.array([table.support for table in tables])[:, None]
    points = np.array(phase_points(n, parity))
    xs, ys = points[:, :1], points[:, 1:]
    kernel = kernel_factors(n, parity, xs, ys)
    image = kernel_factors(
        n, parity, (s.a * xs + s.b * ys) % s.modulus, (s.c * xs + s.d * ys) % s.modulus
    )
    step = r // kernel.root_modulus
    count = len(points)
    shape = (len(tables), count, n, n)
    # (V Delta_p)[i, sigma_p(k)] = V[i, k] rho^(e_p(k))
    at = (slice(None), np.arange(count)[:, None, None], np.arange(n)[:, None],
          kernel.cols[:, None, :])
    left, left_support = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=bool)
    left[at] = exponents + step * kernel.exponents[:, None, :]
    left_support[at] = support
    # (Delta_(S.p) V)[i, j] = rho^(e_(S.p)(i)) V[sigma_(S.p)(i), j]
    rows = (slice(None), 0, image.cols)
    right = step * image.exponents[:, :, None] + exponents[rows]
    right_support = support[rows]
    chord = scale * np.abs(1 - unit_roots(r))[(left - right) % r]
    apart = np.where(left_support ^ right_support, scale, 0.0)
    return np.where(left_support & right_support, chord, apart).max(axis=(1, 2, 3))


def table_mutants(table, rng):
    """One changed exponent, one dropped support entry and one row phase."""
    on = np.argwhere(table.support)
    i, k = on[rng.integers(len(on))]
    changed = table.exponents.copy()
    changed[i, k] = (changed[i, k] + rng.integers(1, table.root_modulus)) % table.root_modulus
    dropped_support, dropped = table.support.copy(), table.exponents.copy()
    dropped_support[i, k], dropped[i, k] = False, 0
    row = rng.integers(table.exponents.shape[0])
    phased = table.exponents.copy()
    shifted = (phased[row] + rng.integers(1, table.root_modulus)) % table.root_modulus
    phased[row] = np.where(table.support[row], shifted, 0)
    return [
        table._replace(exponents=changed),
        table._replace(exponents=dropped, support=dropped_support),
        table._replace(exponents=phased),
    ]


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_three_point_defect_is_exact_on_whole_group(modulus, parity, rng):
    n = hilbert_dim(modulus, parity)
    elements = enumerate_group(modulus)
    assert group_covariance(elements, parity).max() < 1e-10
    for s in elements:
        unitary = u_of(s, parity)
        table = u_table(s, parity, unitary)
        assert table.gcd == math.gcd(s.b, n)
        assert table.support.sum() == n * n // table.gcd
        assert np.abs(unitary.matrix - table_matrix(table)).max() < 1e-12
        mutants = table_mutants(table, rng)
        three = [intertwining_defect(v, s, parity) for v in [table] + mutants]
        every = all_points_defects([table] + mutants, s, parity)
        assert three[0] == every[0] == 0.0
        assert (np.array(three[1:]) > 0).all()
        assert (every >= three).all()


def test_u_table_reads_u_of_by_default():
    s = SympMat(2, 1, 1, 1, 9)
    table, read = u_table(s, ODD), u_table(s, ODD, u_of(s, ODD))
    assert np.array_equal(table.exponents, read.exponents)
    assert np.array_equal(table.support, read.support)
    assert not table.exponents[~table.support].any()
    assert (table.exponents >= 0).all() and (table.exponents < table.root_modulus).all()
    assert table.root_modulus == 8 * 9


@pytest.mark.parametrize("n,parity", [(7, ODD), (6, EVEN)])
def test_u_table_refuses_what_does_not_round(n, parity, rng):
    s = random_element(lattice_modulus(n, parity), rng)
    u = u_of(s, parity).matrix
    gaussian = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    random_unitary = np.linalg.qr(gaussian)[0]
    with_nan = u.copy()
    with_nan[1, 2] = np.nan
    for bad in (random_unitary, with_nan, u * 1.01):
        with pytest.raises(ValueError):
            u_table(s, parity, bad)
    with pytest.raises(DimensionMismatch):
        u_table(s, parity, u[:-1])


def test_u_table_refuses_dimensions_above_byte_bound(byte_bound, monkeypatch):
    # the closed form's table, 12 bytes per entry, and no unitary built
    monkeypatch.setattr(metaplectic, "_u_stack", None)
    s = SympMat(2, 1, 1, 1, 5)
    byte_bound(5**2 * 12)
    assert u_table(s, ODD).support.sum() == 25
    byte_bound(5**2 * 12 - 1)
    with pytest.raises(BoundExceeded):
        u_table(s, ODD)


def test_u_table_refuses_a_phase_between_roots():
    s = SympMat(1, 0, 0, 1, 5)
    u = np.eye(5, dtype=complex)
    u[2, 2] = np.exp(1j * np.pi / 80)  # halfway between two 40th roots
    with pytest.raises(ValueError):
        u_table(s, ODD, u)


def test_intertwining_defect_is_nan_for_a_nan_scale():
    s = SympMat(2, 1, 1, 1, 5)
    table = u_table(s, ODD)
    assert np.isnan(intertwining_defect(table._replace(scale=float("nan")), s, ODD))


@pytest.mark.parametrize("n,parity", [(1023, ODD), (512, EVEN)])
def test_u_table_is_exact_at_large_dimensions(n, parity, rng):
    s = random_element(lattice_modulus(n, parity), rng)
    unitary = u_of(s, parity)
    table = u_table(s, parity, unitary)
    assert intertwining_defect(table, s, parity) == 0.0
    assert np.abs(unitary.matrix - table_matrix(table)).max() < 1e-12
