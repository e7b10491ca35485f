import copy
import importlib
import pickle

import numpy as np
import pytest
from numpy.linalg import matrix_power

from phasepoint import metaplectic, oracle, qops, symplectic
from phasepoint.lattice import ODD, ParityError, check_parity, lattice_modulus
from phasepoint.qops import unit_roots
from phasepoint.wigner import QuantumState
from test_api import MEMOS


def random_state(n, rng):
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return QuantumState(vec / np.linalg.norm(vec))


# Reference operators on C^N, each built straight from its definition.


def phase_op(n):
    """Q = diag(w^k), w = exp(2 pi i / N)."""
    return np.diag(unit_roots(n))


def shift_op(n):
    """P maps |k> to |k-1> (indices mod N)."""
    return np.roll(np.eye(n, dtype=complex), -1, axis=0)


def inversion_op(n):
    """T maps |k> to |-k> (indices mod N)."""
    return np.eye(n, dtype=complex)[-np.arange(n) % n]


def half_exponent(n):
    """The residue playing the role of 1/2 mod odd N, i.e. (N+1)/2."""
    if n % 2 == 0:
        raise ParityError(f"1/2 has no residue representative mod even {n}")
    return (n + 1) // 2


def weyl_symmetric(n, m, nn):
    """Odd-lattice Weyl operator in the symmetric normalization.

    w^(-m nn / 2) Q^nn P^(-m), with the half exponent realized as the
    residue (N+1)/2. Conjugating the inversion kernel by this operator
    translates phase points one step per unit of (m, nn).
    """
    check_parity(n, ODD)
    roots = unit_roots(n)
    half = half_exponent(n)
    cols = np.arange(n)
    w = np.zeros((n, n), dtype=complex)
    w[(cols + m) % n, cols] = roots[(nn * (cols + m) - m * nn * half) % n]
    return w


def weyl_leonhardt(n, j, k):
    """Even-lattice Weyl operator wt^(j k) Q^(-j) P^(-k), wt = exp(2 pi i / 2N),
    at the doubled-coordinate point (j, k)."""
    q_inv, p_inv = phase_op(n).conj().T, shift_op(n).conj().T
    return unit_roots(2 * n)[j * k % (2 * n)] * matrix_power(q_inv, j) @ matrix_power(p_inv, k)


def lattice_points(n, parity):
    """Every lattice point in canonical row-major order: (m, nn) over
    Z_N x Z_N on odd lattices, doubled coordinates (j, k) over Z_2N x Z_2N
    on even ones."""
    modulus = lattice_modulus(n, parity)
    return [(x, y) for x in range(modulus) for y in range(modulus)]


def stacked(tables):
    """One-element UTables as one stacked UTable, as _round_stack gives:
    a leading stack axis on each array field."""
    return metaplectic.UTable(
        np.array([table.exponents for table in tables]),
        np.array([table.support for table in tables]),
        np.array([table.gcd for table in tables]),
        np.array([table.scale for table in tables]),
        tables[0].root_modulus,
    )


def unstacked(tables, g):
    """The g-th table of a stacked UTable, as u_table gives it."""
    return metaplectic.UTable(tables.exponents[g], tables.support[g], int(tables.gcd[g]),
                              float(tables.scale[g]), tables.root_modulus)


def rounded(u, s, parity):
    """One matrix rounded for ``s`` as group_covariance rounds each U(S): a
    one-element _round_stack and _three_point_certified. Returns the table,
    whether it passed the rounding margins, and the three-point verdict."""
    tables, rounds = metaplectic._round_stack(np.asarray(u, dtype=complex)[None], [s])
    certified = metaplectic._three_point_certified(tables, [s], parity)
    return unstacked(tables, 0), bool(rounds[0]), bool(certified[0])


def assert_value_semantics(value, fields, text):
    """``value`` behaves as a frozen record of ``fields``: equality and hash
    on the field tuple (never equal to the tuple itself), ``repr`` ``text``,
    no assignment or deletion, and copies and pickles equal to it."""
    cls = type(value)
    assert cls(*fields) == value
    assert cls(**dict(zip(cls.__match_args__, fields))) == value
    assert hash(value) == hash(fields)
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert repr(value) == text
    for name in cls.__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls
        assert copied == value and hash(copied) == hash(value)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def integer_point_solutions():
    """solve_covariance on integer_point_family(N) for every element of
    Sp_N, N = 2, 4, 6, 8, as {N: [(s, solution), ...]}: criterion 10's
    whole-group check and the dense-build parity test share them."""
    solutions = {}
    for n in (2, 4, 6, 8):
        family = oracle.integer_point_family(n)
        solutions[n] = [(s, oracle.solve_covariance(s, family)) for s in symplectic.enumerate_group(n)]
    return solutions


@pytest.fixture(autouse=True)
def fresh_memos():
    """Every memo of the package (test_api.MEMOS) emptied before each test,
    so no test reads what another left behind."""
    for name in MEMOS:
        module, memo = name.rsplit(".", 1)
        getattr(importlib.import_module(module), memo).cache_clear()


@pytest.fixture
def byte_bound(monkeypatch):
    """Set the system byte bound for one test: byte_bound(nbytes)."""

    def set_bound(nbytes):
        monkeypatch.setattr(symplectic, "SYSTEM_BYTES_BOUND", nbytes)

    return set_bound


@pytest.fixture
def stack_budget(monkeypatch):
    """Set the working-set cap of one pass of group_covariance and
    group_projectivity for one test: stack_budget(nbytes); any nbytes below
    one element's runs one per pass."""

    def set_budget(nbytes):
        monkeypatch.setattr(metaplectic, "_PASS_BYTES", nbytes)

    return set_budget


@pytest.fixture
def mutant_kernels(monkeypatch):
    """Read the oracles' kernel tables from a mutant for the rest of one
    test: mutant_kernels(mutant) replaces oracle.kernel_factors with
    ``mutant``, which takes kernel_factors' arguments, and empties the
    oracle plan memo (keyed by (N, parity) alone), which is emptied again
    after the test."""

    def use(mutant):
        monkeypatch.setattr(oracle, "kernel_factors", mutant)
        oracle._plan_memo.cache_clear()

    yield use
    oracle._plan_memo.cache_clear()


@pytest.fixture
def no_dense_kernel(monkeypatch):
    """Fail the test if it builds a dense phase point operator: every dense
    kernel (delta_family and integer_point_family included) comes from
    delta_at, which qops and oracle bind."""

    def refuse(*args):
        raise AssertionError(f"dense kernel built: {args}")

    for module in (qops, oracle):
        monkeypatch.setattr(module, "delta_at", refuse)
