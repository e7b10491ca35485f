import pytest

from conftest import random_symplectic
from phasepoint import symplectic
from phasepoint.modring import ModulusMismatch
from phasepoint.symplectic import (
    BoundExceeded,
    GenWord,
    NotSymplectic,
    SympMat,
    decompose,
    enumerate_group,
    generator,
    generator_power,
    group_order,
    h_t,
    multiply,
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
        s = random_symplectic(m, rng)
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
        multiply(SympMat.identity(5), SympMat.identity(7))


def test_inverse_and_power(rng):
    for _ in range(50):
        m = int(rng.integers(2, 15))
        s = random_symplectic(m, rng)
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
    bfs_word = decompose(s, method="bfs")
    assert bfs_word.evaluate() == s


@pytest.mark.parametrize("modulus", range(2, 10))
def test_decompose_round_trip_exhaustive(modulus):
    for s in enumerate_group(modulus):
        word = decompose(s, method="euclid")
        assert word.evaluate() == s


def test_decompose_round_trip_random_words(rng):
    for _ in range(100):
        m = int(rng.integers(2, 30))
        # the same draws as random_element, over eight factors instead of six
        factors = [("-+"[int(rng.integers(2))], int(rng.integers(1, m))) for _ in range(8)]
        s = GenWord(tuple(factors), m).evaluate()
        assert decompose(s).evaluate() == s


@pytest.mark.parametrize("modulus", range(2, 8))
def test_decompose_agrees_with_bfs_oracle(modulus):
    # both routes must land on the same matrix (words themselves may differ)
    for s in enumerate_group(modulus):
        assert decompose(s, method="bfs").evaluate() == s
        assert decompose(s, method="euclid").evaluate() == s


def test_decompose_rejects_unknown_method():
    with pytest.raises(ValueError):
        decompose(SympMat.identity(5), method="magic")
    with pytest.raises(ValueError):
        decompose(SympMat.identity(5), method="auto")
