import numpy as np
import pytest

from phasepoint import symplectic
from phasepoint.symplectic import random_element
from phasepoint.wigner import QuantumState


def random_state(n, rng):
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return QuantumState(vec / np.linalg.norm(vec))


def random_symplectic(modulus, rng, length=6):
    return random_element(modulus, rng, length)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def byte_bound(monkeypatch):
    """Set the system byte bound for one test: byte_bound(nbytes)."""

    def set_bound(nbytes):
        monkeypatch.setattr(symplectic, "SYSTEM_BYTES_BOUND", nbytes)

    return set_bound
