import math

import pytest
from conftest import assert_value_semantics

from phasepoint.modring import BothZero, EuclidTrace, euclid_trace
from phasepoint.qops import unit_roots
from phasepoint.symplectic import SympMat


def test_bad_modulus_rejected():
    with pytest.raises(ValueError, match="modulus must be"):
        SympMat.identity(1)
    with pytest.raises(ValueError, match="modulus must be"):
        unit_roots(-3)


def test_euclid_trace_five_three():
    trace = euclid_trace(5, 3)
    assert trace.remainders == (5, 3, 2, 1, 0)
    assert trace.quotients == (1, 1, 2)
    assert trace.length == 4
    assert trace.gcd == 1


def test_euclid_trace_equal_inputs_stop_immediately():
    trace = euclid_trace(4, 4)
    assert trace.remainders == (4, 4, 0)
    assert trace.quotients == (1,)
    assert trace.length == 2


def test_euclid_trace_degenerate_zero():
    trace = euclid_trace(1, 0)
    assert trace.remainders == (1, 0)
    assert trace.quotients == ()
    assert trace.length == 1


def test_euclid_trace_both_zero():
    with pytest.raises(BothZero):
        euclid_trace(0, 0)


def test_euclid_trace_division_identities(rng):
    for _ in range(200):
        b = int(rng.integers(0, 200))
        d = int(rng.integers(0, 200))
        if b == 0 and d == 0:
            continue
        trace = euclid_trace(b, d)
        rem, quo = trace.remainders, trace.quotients
        for i, q in enumerate(quo):
            assert rem[i] == q * rem[i + 1] + rem[i + 2]
            assert rem[i + 2] < rem[i + 1]
        assert rem[-1] == 0
        assert rem[-2] == math.gcd(b, d) or (b == 0 or d == 0)


def test_euclid_trace_reconstructs_input(rng):
    # Rebuilding the chain backwards from (gcd, 0) must reproduce r0 exactly.
    for _ in range(200):
        b = int(rng.integers(1, 500))
        d = int(rng.integers(1, 500))
        trace = euclid_trace(b, d)
        rem, quo = trace.remainders, trace.quotients
        r_next, r_cur = rem[-1], rem[-2]
        for q in reversed(quo):
            r_next, r_cur = r_cur, q * r_cur + r_next
        assert r_cur == max(b, d)


def test_invalid_trace_rejected():
    with pytest.raises(ValueError, match="^quotient chain does not reproduce the remainders$"):
        EuclidTrace((5, 3, 1), (1,))
    with pytest.raises(ValueError, match="^chain must terminate at remainder 0$"):
        EuclidTrace((5, 3, 2), (1,))
    with pytest.raises(ValueError, match="^remainder chain and quotient list lengths disagree$"):
        EuclidTrace(remainders=(5, 3, 2, 1, 0), quotients=(1, 1))


def test_euclid_trace_value_semantics():
    assert_value_semantics(
        euclid_trace(5, 3),
        ((5, 3, 2, 1, 0), (1, 1, 2)),
        "EuclidTrace(remainders=(5, 3, 2, 1, 0), quotients=(1, 1, 2))",
    )
