"""The names the benchmark under perfbench/ calls must stay importable from
the package root: renaming or deleting one breaks the benchmark, so it
should break this test first."""

import pytest

import phasepoint

BENCHMARK_NAMES = [
    "QuantumState",
    "wigner_of",
    "marginals",
    "weyl_quantize",
    "SympMat",
    "delta_family",
    "decompose",
    "u_of",
    "phase_defect",
    "covariance_residual",
    "integer_point_family",
    "solve_covariance",
    "verify_uniqueness",
    "verify_sw_kernel",
]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_name_is_public(name):
    assert callable(getattr(phasepoint, name, None))
