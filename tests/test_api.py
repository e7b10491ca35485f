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


def test_public_surface_does_not_grow():
    # a new public name has to be deliberate: this cap only comes down, on
    # the way to ROADMAP item 6's target of at most 47 names
    assert len(phasepoint.__all__) <= 51


def test_every_public_name_resolves_and_is_listed():
    listed = dir(phasepoint)
    for name in phasepoint.__all__:
        assert getattr(phasepoint, name) is not None
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        phasepoint.no_such_name
    assert not hasattr(phasepoint, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from phasepoint import *", namespace)
    assert set(phasepoint.__all__) <= set(namespace)
    for name in phasepoint.__all__:
        assert namespace[name] is getattr(phasepoint, name)
