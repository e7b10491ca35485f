import random

import numpy as np
import pytest
from conftest import assert_value_semantics

from phasepoint import symplectic
from phasepoint.modring import ModulusMismatch, euclid_trace
from phasepoint.symplectic import (
    ENUMERATION_BOUND,
    BoundExceeded,
    GenWord,
    NotSymplectic,
    SympMat,
    bfs_decompose,
    decompose,
    enumerate_group,
    four_factor_word,
    generator,
    generator_power,
    group_order,
    h_t,
    random_element,
)


def test_generators():
    assert generator("+", 7).entries == (1, 1, 0, 1)
    assert generator("-", 7).entries == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        generator("x", 7)


@pytest.mark.parametrize("modulus", [2, 3, 5, 8, 13])
def test_generators_have_order_m(modulus):
    for sign in "+-":
        g = generator(sign, modulus)
        power = SympMat.identity(modulus)
        for k in range(1, modulus):
            power = power @ g
            assert not power.is_identity
        assert (power @ g).is_identity


def test_h_t_matrix_and_word():
    assert h_t(5).entries == (0, 1, 4, 0)
    word = GenWord((("+", 1), ("-", 4), ("+", 1)), 5)
    assert word.evaluate() == h_t(5)


@pytest.mark.parametrize("modulus", [2, 3, 5, 9])
def test_h_t_squared_is_minus_identity(modulus):
    sq = h_t(modulus) @ h_t(modulus)
    assert sq.entries == (modulus - 1, 0, 0, modulus - 1)


def test_determinant_enforced():
    with pytest.raises(NotSymplectic):
        SympMat(1, 1, 1, 1, 7)
    # entries canonicalize before the check
    assert SympMat(-6, 0, 0, -6, 7).is_identity


def test_multiply_row_column_identities(rng):
    for _ in range(100):
        m = int(rng.integers(2, 20))
        s = random_element(m, rng)
        n = int(rng.integers(0, m))
        a, b, c, d = s.entries
        assert generator_power("+", n, m) @ s == SympMat(a + n * c, b + n * d, c, d, m)
        assert s @ generator_power("+", n, m) == SympMat(a, n * a + b, c, n * c + d, m)
        assert generator_power("-", n, m) @ s == SympMat(a, b, n * a + c, n * b + d, m)
        assert s @ generator_power("-", n, m) == SympMat(a + n * b, b, c + n * d, d, m)
        assert h_t(m) @ s == SympMat(c, d, -a, -b, m)
        assert s @ h_t(m) == SympMat(-b, a, -d, c, m)
        assert s @ SympMat.identity(m) == s


def test_multiply_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        SympMat.identity(5) @ SympMat.identity(7)


def test_inverse_and_power(rng):
    for _ in range(50):
        m = int(rng.integers(2, 15))
        s = random_element(m, rng)
        assert (s @ s.inverse()).is_identity
        assert s**0 == SympMat.identity(m)
        assert s**3 == s @ s @ s
        assert s**-2 == s.inverse() @ s.inverse()


def test_word_canonicalization():
    word = GenWord((("+", 2), ("+", 3), ("-", 0), ("-", 8)), 7)
    assert word.factors == (("+", 5), ("-", 1))
    # cancellation exposing a same-sign neighbor pair, which merges again
    word = GenWord((("+", 1), ("-", 2), ("-", 5), ("+", 2)), 7)
    assert word.factors == (("+", 3),)
    word = GenWord((("+", 2), ("+", 3), ("-", 0), ("-", 1), ("-", 6), ("+", 4)), 7)
    assert word.factors == (("+", 2),)
    assert len(GenWord((), 7)) == 0
    assert str(GenWord((), 7)) == "e"


@pytest.mark.parametrize(
    "value,fields,text",
    [
        (SympMat(2, 3, 3, 5, 31), (2, 3, 3, 5, 31), "SympMat(a=2, b=3, c=3, d=5, modulus=31)"),
        (SympMat(-6, 0, 0, 8, 7), (1, 0, 0, 1, 7), "SympMat(a=1, b=0, c=0, d=1, modulus=7)"),
        (
            GenWord((("+", 2), ("+", 3), ("-", 8)), 7),
            ((("+", 5), ("-", 1)), 7),
            "GenWord(factors=(('+', 5), ('-', 1)), modulus=7)",
        ),
        (GenWord((), 2), ((), 2), "GenWord(factors=(), modulus=2)"),
    ],
)
def test_value_semantics(value, fields, text):
    assert_value_semantics(value, fields, text)


def test_values_compare_only_with_their_own_class():
    assert SympMat(1, 0, 0, 1, 5) != (1, 0, 0, 1, 5)
    assert SympMat(1, 0, 0, 1, 5) != SympMat(1, 0, 0, 1, 7)
    assert GenWord((), 5) != SympMat.identity(5)
    assert len({SympMat(1, 0, 0, 1, 5), SympMat(6, 0, 0, 1, 5), (1, 0, 0, 1, 5)}) == 2


def test_construction_errors():
    with pytest.raises(NotSymplectic, match=r"^det 0 != 1 for \(1, 1, 1, 1\) mod 7$"):
        SympMat(1, 1, 1, 1, 7)
    with pytest.raises(ValueError, match="^modulus must be an integer >= 2, got 1$"):
        SympMat(a=1, b=0, c=0, d=1, modulus=1)
    with pytest.raises(ValueError, match="^modulus must be an integer >= 2, got True$"):
        GenWord((), True)
    with pytest.raises(ValueError, match="^sign must be '\\+' or '-', got 't'$"):
        GenWord((("+", 1), ("t", 1)), 7)
    with pytest.raises(TypeError):
        SympMat(1, 0, 0, 1)


def test_entries_and_exponents_must_be_integers():
    # int() would truncate 2.7 to 2 (det 6 = 1 mod 5 passes) and parse '2'
    for bad in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            SympMat(bad, 0, 0, 3, 5)
    for bad in (1.9, "1"):
        with pytest.raises(TypeError):
            GenWord((("+", bad),), 5)
    assert SympMat(np.int64(2), np.int32(0), 0, np.uint8(3), 5) == SympMat(2, 0, 0, 3, 5)
    assert GenWord((("+", np.int64(6)),), 5) == GenWord((("+", 1),), 5)


@pytest.mark.parametrize(
    "count,modulus", [(6, 2), (24, 3), (48, 4), (120, 5), (336, 7)]
)
def test_group_enumeration_counts(count, modulus):
    elements = enumerate_group(modulus)
    assert len(elements) == count
    assert len(set(elements)) == count
    assert group_order(modulus) == count


def test_enumeration_bound(monkeypatch):
    with pytest.raises(BoundExceeded):
        enumerate_group(13)
    monkeypatch.setattr(symplectic, "ENUMERATION_BOUND", 13)
    assert len(enumerate_group(13)) == group_order(13)


def test_decompose_special_words():
    assert decompose(SympMat.identity(7)).factors == ()
    assert decompose(generator_power("+", 3, 7)).factors == (("+", 3),)
    assert decompose(generator_power("-", 5, 7)).factors == (("-", 5),)
    assert decompose(h_t(7)).factors == (("+", 1), ("-", 6), ("+", 1))


def test_decompose_example_matrix():
    s = SympMat(2, 1, 1, 1, 5)
    word = decompose(s)
    assert word.evaluate() == s
    bfs_word = bfs_decompose(s)
    assert bfs_word.evaluate() == s


@pytest.mark.parametrize("modulus", range(2, 10))
def test_decompose_round_trip_exhaustive(modulus):
    for s in enumerate_group(modulus):
        word = decompose(s)
        assert word.evaluate() == s


def test_decompose_round_trip_random_words(rng):
    for _ in range(100):
        m = int(rng.integers(2, 30))
        # random words of eight generator powers
        factors = [("-+"[int(rng.integers(2))], int(rng.integers(1, m))) for _ in range(8)]
        s = GenWord(tuple(factors), m).evaluate()
        assert decompose(s).evaluate() == s


@pytest.mark.parametrize("modulus", [*range(2, 25), 2**61 - 1])
def test_evaluate_equals_the_product_of_generator_powers(modulus, rng):
    # evaluate composes on plain integers; the oracle multiplies validated
    # SympMats, left to right, one generator power at a time
    for length in range(9):
        for _ in range(5):
            factors = [
                ("-+"[int(rng.integers(2))], int(rng.integers(modulus))) for _ in range(length)
            ]
            expected = SympMat.identity(modulus)
            for sign, exponent in factors:
                expected = expected @ generator_power(sign, exponent, modulus)
            assert GenWord(tuple(factors), modulus).evaluate() == expected


@pytest.mark.parametrize("modulus", range(2, 8))
def test_decompose_agrees_with_bfs_oracle(modulus):
    # both routes must land on the same matrix (words themselves may differ)
    for s in enumerate_group(modulus):
        assert bfs_decompose(s).evaluate() == s
        assert decompose(s).evaluate() == s


@pytest.mark.parametrize("modulus", range(2, ENUMERATION_BOUND + 1))
def test_four_factor_word_on_whole_group(modulus):
    for s in enumerate_group(modulus):
        word = four_factor_word(s)
        assert len(word) <= 4
        assert word.evaluate() == s


@pytest.mark.parametrize("modulus", [30030, 510510, 10**6 + 3, 2**20])
def test_four_factor_word_at_large_moduli(modulus):
    # the word is pure integer work, so the draws are pure Python too
    draws = random.Random(modulus)
    for _ in range(200):
        factors = tuple((draws.choice("+-"), draws.randrange(1, modulus)) for _ in range(6))
        s = GenWord(factors, modulus).evaluate()
        word = four_factor_word(s)
        assert len(word) <= 4
        assert word.evaluate() == s


def test_four_factor_word_at_mersenne_modulus():
    # b = 0 is not a unit, so the word needs t = 1 and all four factors
    m = 2**61 - 1
    s = SympMat(2, 0, 5, 2**60, m)  # 2 * 2^60 = 1 mod 2^61 - 1
    word = four_factor_word(s)
    assert len(word) == 4
    assert word.evaluate() == s


def test_four_factor_word_of_a_generator_power_is_that_power():
    for sign in "+-":
        for k in range(1, 8):
            assert four_factor_word(generator_power(sign, k, 8)).factors == ((sign, k),)


def matrix_euclid_word(s):
    """decompose's Euclidean word with the reduction carried on SympMat
    products: each factor multiplied on from the left, as a validated matrix."""
    m = s.modulus
    if s.a == 1 and s.d == 1 and s.c == 0:
        return GenWord((("+", s.b),), m)
    if s.a == 1 and s.d == 1 and s.b == 0:
        return GenWord((("-", s.c),), m)
    if s == h_t(m):
        return GenWord((("+", 1), ("-", m - 1), ("+", 1)), m)
    applied = []
    cur = s
    if cur.b != 0 and cur.d != 0:
        sign = "+" if cur.b >= cur.d else "-"
        for k in euclid_trace(cur.b, cur.d).quotients:
            cur = generator_power(sign, -k, m) @ cur
            applied.append((sign, -k))
            sign = "-" if sign == "+" else "+"
    if cur.b != 0:
        cur = h_t(m) @ cur
        applied.append(("t", 1))
    if cur.b != 0:
        raise symplectic.DecompositionFailed(f"reduction left top-right entry {cur.b} != 0")
    alpha, gamma, beta = cur.a, cur.c, cur.d
    if (alpha * beta) % m != 1:
        raise symplectic.DecompositionFailed(
            f"triangular form has non-unit diagonal ({alpha}, {beta}) mod {m}"
        )
    factors = []
    for sign, exponent in applied:
        if sign == "t":
            factors += [("+", -1), ("-", 1), ("+", -1)]
        else:
            factors.append((sign, -exponent))
    factors.append(("-", beta + beta * gamma))
    factors += [("+", 1), ("-", -1), ("+", 1), ("-", alpha), ("+", -beta)]
    return GenWord(tuple(factors), m)


@pytest.mark.parametrize("modulus", range(2, ENUMERATION_BOUND + 1))
def test_decompose_equals_the_matrix_reduction_on_whole_group(modulus):
    for s in enumerate_group(modulus):
        assert decompose(s).factors == matrix_euclid_word(s).factors


@pytest.mark.parametrize("modulus", [31, 64, 2**61 - 1])
def test_decompose_equals_the_matrix_reduction_at_larger_moduli(modulus):
    draws = random.Random(modulus)
    for _ in range(200):
        factors = tuple((draws.choice("+-"), draws.randrange(1, modulus)) for _ in range(6))
        s = GenWord(factors, modulus).evaluate()
        assert decompose(s).factors == matrix_euclid_word(s).factors
