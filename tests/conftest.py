import numpy as np
import pytest

from phasepoint import qops, symplectic
from phasepoint.symplectic import random_element
from phasepoint.wigner import QuantumState


def random_state(n, rng):
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return QuantumState(vec / np.linalg.norm(vec))


def random_symplectic(modulus, rng):
    return random_element(modulus, rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def byte_bound(monkeypatch):
    """Set the system byte bound for one test: byte_bound(nbytes)."""

    def set_bound(nbytes):
        monkeypatch.setattr(symplectic, "SYSTEM_BYTES_BOUND", nbytes)

    return set_bound


@pytest.fixture
def no_dense_kernel(monkeypatch):
    """Fail the test if it builds a dense phase point operator: every dense
    kernel (delta_at, delta_family and the rest) goes through
    qops._delta_from_factors."""

    def refuse(*args):
        raise AssertionError(f"dense kernel built: {args}")

    monkeypatch.setattr(qops, "_delta_from_factors", refuse)
