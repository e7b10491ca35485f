"""U(S)'s closed form (phasepoint.weil) against brute-force sums, the float
build's rounded tables and the three-point verdict."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import rounded, stacked
from phasepoint import metaplectic, weil
from phasepoint.lattice import EVEN, ODD, hilbert_dim, lattice_modulus
from phasepoint.metaplectic import (
    UTable,
    _descriptor_table,
    _round_stack,
    _three_point_certified,
    _u_stack,
    u_of,
    u_table,
)
from phasepoint.symplectic import (
    SympMat,
    decompose,
    enumerate_group,
    four_factor_word,
    generator,
    random_element,
)

WHOLE_GROUPS = [(m, ODD) for m in (3, 5, 7, 9, 11)] + [(m, EVEN) for m in (4, 8, 12)]


def turns(n):
    """e(x / n) for x = 0..n-1, straight from exp."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def closed_sum(a, b, n):
    """S(a, b; n) from weil._sum_shape's closed form, as a complex number."""
    h, tau, lift, w, denominator, eighth, square = weil._sum_shape(a, n)
    if (b - tau) % h:
        return 0
    phase = eighth / 8 + (-w * (b // lift) ** 2 % denominator) / denominator
    return math.sqrt(square) * np.exp(2j * np.pi * phase)


def test_gauss_matches_brute_force():
    for n in range(1, 201):
        if n % 4 == 2:
            continue
        a = np.array([a for a in range(n) if math.gcd(a, n) == 1])
        x = np.arange(n)
        brute = turns(n)[a[:, None] * x * x % n].sum(axis=1)
        eighths, squares = zip(*(weil.gauss(int(k), n) for k in a))
        closed = np.sqrt(squares) * np.exp(2j * np.pi * np.array(eighths) / 8)
        assert np.abs(closed - brute).max() < 1e-9 * n, n


def test_quadratic_sum_matches_brute_force():
    for n in range(1, 49):
        x = np.arange(n)
        a, b = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
        brute = turns(n)[(a * x * x + b * x) % n].sum(axis=2)
        closed = np.array([[closed_sum(a, b, n) for b in range(n)] for a in range(n)])
        assert np.abs(closed - brute).max() < 1e-9 * n, n
    # any representatives of a and b
    assert closed_sum(-3, 10, 7) == closed_sum(4, 3, 7)


def test_jacobi_symbol_is_eulers_criterion_at_primes():
    for p in (3, 5, 7, 11, 13, 97):
        for a in range(-p, 2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert weil.jacobi(a, p) == (-1 if euler == p - 1 else euler)


def test_chirp_eighth_equals_the_float_sum():
    # lambda_0 as the float sum of U(h+)'s first column, its angle rounded
    # to the nearest eighth, for every lattice up to N = 2048
    for n in range(2, 2049):
        parity = ODD if n % 2 else EVEN
        i = np.arange(n)
        if parity == ODD:
            exponents, r = i * (i + n) // 2 % n, n
        else:
            exponents, r = i * i % (2 * n), 2 * n
        lambda_0 = np.exp(2j * np.pi * exponents / r).sum() / np.sqrt(n)
        assert abs(abs(lambda_0) - 1) < 1e-9
        rounded = round(float(np.angle(lambda_0)) * 4 / np.pi) % 8
        assert weil.chirp_eighth(n, parity) == rounded, n


@pytest.mark.parametrize("modulus,parity", [(7, ODD), (8, EVEN)])
def test_chirp_terms_mutant_reaches_both_builds(monkeypatch, modulus, parity):
    # One coefficient of the chirp rule moved, e(c) + 2c (periodic in c on
    # both lattices): the float build and the closed form both read it and
    # still agree. U(h-) is then displaced by a clock power, which certify
    # rejects, as does the three-point check of the rounded table; on a
    # longer word the displacements may cancel, and both checks agree.
    elements = [s for s in enumerate_group(modulus) if "-" in dict(four_factor_word(s).factors)]
    h_minus = elements.index(generator("-", modulus))
    terms = weil.chirp_terms

    def mutant(parity, n):
        square, linear = terms(parity, n)
        return square, linear + 16

    n = hilbert_dim(modulus, parity)
    true_exponents = np.array(metaplectic._exponent_table(n, parity)[0])
    metaplectic._exponent_table.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(weil, "chirp_terms", mutant)
            exponents = metaplectic._exponent_table(n, parity)[0]
            assert np.array_equal(exponents, (true_exponents + 2 * np.arange(n)) % modulus)
            tables, rounds = _round_stack(_u_stack(elements, parity), elements)
            assert rounds.all()
            certified = []
            for g, s in enumerate(elements):
                form = weil.descriptor(s, parity)
                expected = UTable(tables.exponents[g], tables.support[g], int(tables.gcd[g]),
                                  float(tables.scale[g]), tables.root_modulus)
                assert_tables_equal(_descriptor_table(form), expected)
                certified.append(weil.certify(form, s, parity))
            assert certified == _three_point_certified(tables, elements, parity).tolist()
            assert not certified[h_minus]
    finally:
        metaplectic._exponent_table.cache_clear()
    assert np.array_equal(metaplectic._exponent_table(n, parity)[0], true_exponents)


def assert_tables_equal(table, expected):
    assert np.array_equal(table.exponents, expected.exponents)
    assert np.array_equal(table.support, expected.support)
    assert (table.gcd, table.scale, table.root_modulus) == (
        expected.gcd, expected.scale, expected.root_modulus)


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_descriptor_table_is_the_rounded_unitary_on_whole_group(modulus, parity):
    elements = enumerate_group(modulus)
    tables, rounds = _round_stack(_u_stack(elements, parity), elements)
    assert rounds.all()
    for g, s in enumerate(elements):
        form = weil.descriptor(s, parity)
        assert weil.certify(form, s, parity)
        expected = UTable(tables.exponents[g], tables.support[g], int(tables.gcd[g]),
                          float(tables.scale[g]), tables.root_modulus)
        assert_tables_equal(_descriptor_table(form), expected)
        assert form.gcd == math.gcd(s.b, form.dim)


@pytest.mark.parametrize("n,parity", [(255, ODD), (1023, ODD), (256, EVEN), (1024, EVEN)])
def test_descriptor_table_is_the_rounded_unitary_at_large_dimensions(n, parity):
    rng = np.random.default_rng(n)
    for _ in range(3):
        s = random_element(lattice_modulus(n, parity), rng)
        form = weil.descriptor(s, parity)
        assert weil.certify(form, s, parity)
        table, rounds, certified = rounded(u_of(s, parity).matrix, s, parity)
        assert rounds and certified
        assert_tables_equal(u_table(s, parity), table)


def assert_rows_are_the_table(form):
    """Descriptor.row, row by row, against _descriptor_table: the table's
    support in column order, with the table's exponents."""
    table = _descriptor_table(form)
    n = form.dim
    for i in range(n):
        columns, exponents = form.row(i)
        assert len(columns) == len(exponents) == n // form.gcd
        assert table.support[i].nonzero()[0].tolist() == list(columns)
        assert table.exponents[i, columns].tolist() == exponents


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_rows_stream_the_table_on_whole_group(modulus, parity):
    for s in enumerate_group(modulus):
        assert_rows_are_the_table(weil.descriptor(s, parity))


@pytest.mark.parametrize("n,parity", [(255, ODD), (256, EVEN)])
def test_rows_stream_the_table_at_large_dimensions(n, parity):
    modulus = lattice_modulus(n, parity)
    rng = np.random.default_rng(n)
    elements = [random_element(modulus, rng) for _ in range(3)]
    # b = 0 (g = N: one entry a row) and b = 5 (g = 5 at N = 255)
    elements += [SympMat(7, 0, 3, pow(7, -1, modulus), modulus),
                 SympMat(1, 5, 0, 1, modulus)]
    for s in elements:
        assert_rows_are_the_table(weil.descriptor(s, parity))


@pytest.mark.parametrize("n,parity", [(255, ODD), (1023, ODD), (256, EVEN), (1024, EVEN)])
def test_row_terms_of_all_rows_are_each_rows(n, parity):
    # the int64 layout _descriptor_table reads, against the pure-Python one
    # Descriptor.row reads, with g = 1 and g > 1
    modulus = lattice_modulus(n, parity)
    rng = np.random.default_rng(n)
    elements = [random_element(modulus, rng) for _ in range(2)]
    elements += [SympMat(1, 1, 0, 1, modulus), SympMat(1, 6, 1, 7, modulus),
                 SympMat(7, 0, 3, pow(7, -1, modulus), modulus)]
    gcds = {math.gcd(s.b, n) for s in elements}
    assert 1 in gcds and len(gcds) > 2
    rows = np.arange(n, dtype=np.int64)
    for s in elements:
        form = weil.descriptor(s, parity)
        terms = form.row_terms(rows)
        assert all(array.dtype == np.int64 for array in terms)
        assert [tuple(map(int, row)) for row in zip(*terms)] == [form.row_terms(i) for i in range(n)]


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_euclidean_word_gives_the_same_table_up_to_one_phase(modulus, parity):
    # the paper's Euclidean word, up to 13 factors long, as the independent
    # construction: one support and one constant exponent difference
    for s in enumerate_group(modulus):
        four = _descriptor_table(weil.descriptor(s, parity))
        form = weil.compose(decompose(s), parity)
        assert weil.certify(form, s, parity)
        euclid = _descriptor_table(form)
        assert np.array_equal(euclid.support, four.support)
        differences = (euclid.exponents - four.exponents)[four.support] % four.root_modulus
        assert (differences == differences[0]).all()


@pytest.mark.parametrize("modulus,parity", [(2**61 - 1, ODD), (2**21, EVEN)])
def test_certificate_at_huge_moduli_builds_no_array(modulus, parity):
    # odd M = 2^61 - 1 (prime) and even N = 2^20: no N x N array fits in memory
    rng = np.random.default_rng(61)
    elements = [random_element(modulus, rng) for _ in range(10)]
    tracemalloc.start()
    try:
        certified = [weil.certify(weil.descriptor(s, parity), s, parity) for s in elements]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified == [True] * len(elements)
    assert peak < 2**20


def mutants(form, rng):
    """The descriptor with one coefficient, the offset or the stride moved.
    Moving the constant term is a global phase, which must pass."""
    root_modulus = form.root_modulus
    fields = dict(zip(form.__match_args__, form._fields(form)))
    for index in range(6):
        coefficients = list(form.coefficients)
        coefficients[index] += int(rng.integers(1, root_modulus))
        coefficients[index] %= root_modulus
        yield weil.Descriptor(**{**fields, "coefficients": tuple(coefficients)})
    if form.gcd > 1:
        for name in ("offset", "stride"):
            moved = (fields[name] + int(rng.integers(1, form.gcd))) % form.gcd
            yield weil.Descriptor(**{**fields, name: moved})


def test_certificate_refuses_a_descriptor_of_another_lattice():
    # the identity's descriptor of one lattice, checked for the identity of
    # another: some of these pairs pass every later step
    lattices = [(3, ODD), (5, ODD), (4, EVEN), (8, EVEN)]
    for modulus, parity in lattices:
        s = SympMat.identity(modulus)
        assert weil.certify(weil.descriptor(s, parity), s, parity)
        for other, other_parity in lattices:
            form = weil.descriptor(SympMat.identity(other), other_parity)
            assert weil.certify(form, s, parity) == ((other, other_parity) == (modulus, parity))


@pytest.mark.parametrize("modulus,parity", [(9, ODD), (8, EVEN)])
def test_certificate_refuses_rows_that_are_not_unit_norm(modulus, parity):
    # gcd 0, a gcd that does not divide N, and a squared magnitude other
    # than g/N, each with the rest of the descriptor kept: no later step
    # reads the magnitude, so the unit norm half of the premise is the one
    # check that refuses the last
    s = SympMat(2, 1, 1, 1, modulus)
    form = weil.descriptor(s, parity)
    n, (numerator, denominator) = form.dim, form.square
    assert weil.certify(form, s, parity)
    fields = dict(zip(form.__match_args__, form._fields(form)))
    for changed in [
        {"gcd": 0, "offset": 0, "stride": 0, "square": (0, n)},
        {"gcd": n - 1, "offset": 0, "stride": 0, "square": (n - 1, n)},
        {"square": (2 * numerator, denominator)},
    ]:
        assert not weil.certify(weil.Descriptor(**{**fields, **changed}), s, parity)


@pytest.mark.parametrize("modulus,parity", WHOLE_GROUPS)
def test_certificate_passes_no_mutant_with_a_nonzero_three_point_defect(modulus, parity, rng):
    elements = enumerate_group(modulus)
    passed, total = [], 0
    for s in elements:
        for mutant in mutants(weil.descriptor(s, parity), rng):
            total += 1
            if weil.certify(mutant, s, parity):
                passed.append((mutant, s))
    # one global phase per element, and next to no other mutant
    assert len(elements) <= len(passed) < len(elements) + total / 100
    for mutant, s in passed:
        assert _three_point_certified(stacked([_descriptor_table(mutant)]), [s], parity)[0]
