"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 6 is expected
to stay red on the even-lattice unit-trace residual: kernels at ghost points
are traceless and integer points carry trace 2, so no pointwise unit-trace
statement can hold on the doubled grid.
"""

import time

import numpy as np
import pytest
from numpy.linalg import matrix_power

from conftest import weyl_symmetric
from phasepoint.metaplectic import (
    covariance_residual,
    equal_up_to_phase,
    phase_defect,
    u_hminus,
    u_hplus,
    u_of,
)
from phasepoint.oracle import (
    integer_point_family,
    solve_covariance,
    verify_sw_kernel,
    verify_uniqueness,
)
from phasepoint.lattice import EVEN, ODD, lattice_modulus, symmetric_order
from phasepoint.qops import delta_at, unit_roots
from phasepoint.symplectic import (
    decompose,
    enumerate_group,
    generator,
    h_t,
)
from phasepoint.wigner import QuantumState, marginals, weyl_quantize, wigner_of

GROUPS = [(3, ODD), (5, ODD), (7, ODD), (4, EVEN)]


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}{detail}", flush=True)


@pytest.fixture(scope="module")
def groups():
    return {modulus: enumerate_group(modulus) for modulus, _ in GROUPS}


@pytest.fixture(scope="module")
def rep_tables(groups):
    tables = {}
    for modulus, parity in GROUPS:
        tables[modulus] = {s: u_of(s, parity).matrix for s in groups[modulus]}
    return tables


# Printed 7x7 generator matrices, transcribed entrywise as exponent tables
# in symmetric index ordering (rows and columns run -3..3).
HPLUS_7_EXPONENTS = [
    [0, 4, 2, 1, 1, 2, 4],
    [4, 0, 4, 2, 1, 1, 2],
    [2, 4, 0, 4, 2, 1, 1],
    [1, 2, 4, 0, 4, 2, 1],
    [1, 1, 2, 4, 0, 4, 2],
    [2, 1, 1, 2, 4, 0, 4],
    [4, 2, 1, 1, 2, 4, 0],
]
HMINUS_7_EXPONENTS = [1, 2, 4, 0, 4, 2, 1]


def test_criterion_01_odd_closed_forms_dimension_seven():
    start = time.perf_counter()
    roots = unit_roots(7)
    order = symmetric_order(7)
    expected_plus = roots[np.array(HPLUS_7_EXPONENTS)] / np.sqrt(7)
    got_plus = u_hplus(7, ODD).matrix[np.ix_(order, order)]
    expected_minus = np.diag(roots[np.array(HMINUS_7_EXPONENTS)])
    got_minus = u_hminus(7, ODD).matrix[np.ix_(order, order)]
    deviation = np.max(
        [np.abs(got_plus - expected_plus).max(), np.abs(got_minus - expected_minus).max()]
    )
    elapsed = time.perf_counter() - start
    ok = deviation < 1e-12 and elapsed < 1.0
    report(1, "N=7 closed forms", ok, f" (deviation {deviation:.2e}, {elapsed:.3f}s)")
    assert deviation < 1e-12
    assert elapsed < 1.0


def test_criterion_02_even_closed_forms_dimension_two():
    expected_plus = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    expected_minus = np.diag([1.0, 1j])
    dev_plus = float(np.abs(u_hplus(2, EVEN).matrix - expected_plus).max())
    dev_minus = float(np.abs(u_hminus(2, EVEN).matrix - expected_minus).max())
    fourth = matrix_power(u_hplus(2, EVEN).matrix, 4)
    match = equal_up_to_phase(fourth, np.eye(2))
    phase_ok = match.equivalent and abs(match.phase - (-1)) < 1e-12
    ok = dev_plus < 1e-12 and dev_minus < 1e-12 and phase_ok
    report(
        2,
        "N=2 closed forms",
        ok,
        f" (deviations {dev_plus:.2e}/{dev_minus:.2e}, fourth-power phase "
        f"{match.phase if match.equivalent else 'none'})",
    )
    assert dev_plus < 1e-12
    assert dev_minus < 1e-12
    assert phase_ok


def test_criterion_03_generator_covariance():
    start = time.perf_counter()
    residuals = []
    cases = [(n, ODD) for n in (3, 5, 7, 9, 15)] + [(n, EVEN) for n in (2, 4, 6)]
    for n, parity in cases:
        modulus = lattice_modulus(n, parity)
        for mat, build in (
            (generator("+", modulus), u_hplus),
            (generator("-", modulus), u_hminus),
        ):
            residuals.append(covariance_residual(build(n, parity).matrix, mat, parity))
    worst = np.max(residuals)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report(3, "generator covariance", ok, f" (residual {worst:.2e}, {elapsed:.2f}s)")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_04_full_group_covariance(groups, rep_tables):
    start = time.perf_counter()
    worst = np.max(
        [
            covariance_residual(rep_tables[modulus][s], s, parity)
            for modulus, parity in GROUPS
            for s in groups[modulus]
        ]
    )
    elapsed = time.perf_counter() - start
    sizes = ", ".join(f"Sp_{m}:{len(groups[m])}" for m, _ in GROUPS)
    ok = worst < 1e-9 and elapsed < 300.0
    report(4, "full-group covariance", ok, f" (residual {worst:.2e}, {sizes}, {elapsed:.2f}s)")
    assert worst < 1e-9
    assert elapsed < 300.0


def test_criterion_05_decomposition_round_trip(groups):
    # The Euclidean word alone must reproduce every element.
    elements = [s for modulus, _ in GROUPS for s in groups[modulus]]
    misses = sum(decompose(s).evaluate() != s for s in elements)
    report(
        5,
        "decomposition round-trip",
        misses == 0,
        f" (Euclidean word exact on {len(elements) - misses} of {len(elements)} elements)",
    )
    assert misses == 0


def test_criterion_06_stratonovich_weyl_suite():
    worst_odd = 0.0
    for n in (3, 5, 7, 9):
        rep = verify_sw_kernel(ODD, n)
        worst_odd = max(
            worst_odd,
            rep.hermiticity,
            rep.unit_trace,
            rep.traciality,
            rep.translation_covariance,
        )
    worst_even_herm = 0.0
    worst_even_trace = 0.0
    for n in (2, 4):
        rep = verify_sw_kernel(EVEN, n)
        worst_even_herm = max(worst_even_herm, rep.hermiticity)
        worst_even_trace = max(worst_even_trace, rep.unit_trace)
    ok = worst_odd < 1e-12 and worst_even_herm < 1e-12 and worst_even_trace < 1e-12
    report(
        6,
        "Stratonovich-Weyl suite",
        ok,
        f" (odd {worst_odd:.2e}, even hermiticity {worst_even_herm:.2e}, "
        f"even unit-trace {worst_even_trace:.2e}; even grid traces are 0 or 2, "
        f"never 1, at ghost/integer points)",
    )
    assert worst_odd < 1e-12
    assert worst_even_herm < 1e-12
    assert worst_even_trace < 1e-12


def test_criterion_07_translational_covariance():
    residuals = []
    for n in (3, 5, 7):
        base = delta_at(n, ODD, (0, 0))
        for m in range(n):
            for nn in range(n):
                w = weyl_symmetric(n, m, nn)
                moved = w @ base @ w.conj().T
                residuals.append(np.abs(moved - delta_at(n, ODD, (m, nn))).max())
    worst = np.max(residuals)
    ok = worst < 1e-12
    report(7, "translational covariance", ok, f" (residual {worst:.2e})")
    assert worst < 1e-12


def test_criterion_08_projectivity(groups, rep_tables):
    rng = np.random.default_rng(20240810)
    defects = []
    for modulus, _ in GROUPS:
        elements = groups[modulus]
        table = rep_tables[modulus]
        for _ in range(200):
            s1 = elements[int(rng.integers(len(elements)))]
            s2 = elements[int(rng.integers(len(elements)))]
            defects.append(phase_defect(table[s1 @ s2], table[s1] @ table[s2]))
    worst = np.max(defects)
    ok = worst < 1e-9
    report(8, "projectivity", ok, f" (residual {worst:.2e}, 200 pairs per group)")
    assert worst < 1e-9


def test_criterion_09_uniqueness():
    nullities_ok = True
    phase_residuals = [0.0]
    for n, parity in [(3, ODD), (5, ODD), (2, EVEN), (4, EVEN)]:
        modulus = lattice_modulus(n, parity)
        for mat in (generator("+", modulus), generator("-", modulus), h_t(modulus)):
            rep = verify_uniqueness(mat, parity)
            nullities_ok = nullities_ok and rep.nullity == 1 and rep.unitary_found
            if rep.closed_form_residual is not None:
                phase_residuals.append(rep.closed_form_residual)
    worst_phase = np.max(phase_residuals)
    ok = nullities_ok and worst_phase < 1e-9
    report(
        9,
        "uniqueness",
        ok,
        f" (all nullities 1: {nullities_ok}, closed-form residual {worst_phase:.2e})",
    )
    assert nullities_ok
    assert worst_phase < 1e-9


def test_criterion_10_even_negative_result():
    solution = solve_covariance(generator("+", 2), integer_point_family(2))
    no_unitary = solution.unitary is None
    # direct obstruction: h+ has order 2 mod 2 but its representative
    # squares to something that is not a phase times the identity
    square = matrix_power(u_hplus(2, EVEN).matrix, 2)
    not_projective = not equal_up_to_phase(square, np.eye(2)).equivalent
    ok = no_unitary and not_projective
    report(
        10,
        "even-lattice negative result",
        ok,
        f" (no unitary representative: {no_unitary}, nullity {solution.nullity}; "
        f"square of the generator representative is not a phase)",
    )
    assert no_unitary
    assert not_projective


def test_criterion_10_integer_points_on_whole_groups(integer_point_solutions):
    # every element of Sp_N leaves the integer-point system a 4-dimensional
    # solution space with no unitary in it, at N = 2, 4, 6 and 8
    nullities = {
        solution.nullity for solved in integer_point_solutions.values() for _, solution in solved
    }
    no_unitary = all(
        solution.unitary is None for solved in integer_point_solutions.values() for _, solution in solved
    )
    elements = sum(len(solved) for solved in integer_point_solutions.values())
    ok = nullities == {4} and no_unitary
    report(
        10,
        "even-lattice negative result on whole groups",
        ok,
        f" ({elements} elements of Sp_N, N = 2, 4, 6, 8: nullities {sorted(nullities)}, "
        f"no unitary: {no_unitary})",
    )
    assert nullities == {4}
    assert no_unitary


def test_criterion_11_wigner_properties():
    rng = np.random.default_rng(20240812)
    residuals = []
    for n, parity in [(3, ODD), (5, ODD), (7, ODD), (2, EVEN), (4, EVEN)]:
        for _ in range(100):
            vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = QuantumState(vec / np.linalg.norm(vec))
            table = wigner_of(state, parity)
            residuals += [table.imag_residual, abs(table.total - 1.0)]
            position, momentum = marginals(table)
            ft = np.fft.fft(state.amplitudes, norm="ortho")
            if parity == ODD:
                residuals.append(np.abs(position - np.abs(state.amplitudes) ** 2).max())
                residuals.append(np.abs(momentum - np.abs(ft) ** 2).max())
            else:
                residuals.append(np.abs(position[0::2] - np.abs(state.amplitudes) ** 2).max())
                residuals.append(np.abs(position[1::2]).max())
                residuals.append(np.abs(momentum[0::2] - np.abs(ft) ** 2).max())
                residuals.append(np.abs(momentum[1::2]).max())
    worst = np.max(residuals)
    ok = worst < 1e-11
    report(11, "Wigner properties", ok, f" (residual {worst:.2e}, 100 states per case)")
    assert worst < 1e-11


def test_criterion_12_quantization_sanity():
    residuals = []
    for n in (3, 5):
        operator = weyl_quantize(np.full((n, n), 1.75), ODD)
        residuals.append(np.abs(operator - 1.75 * np.eye(n)).max())
    worst = np.max(residuals)
    ok = worst < 1e-12
    report(12, "quantization sanity", ok, f" (residual {worst:.2e})")
    assert worst < 1e-12
