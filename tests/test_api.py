"""The names the benchmark under perfbench/ calls must stay importable from
the package root: renaming or deleting one breaks the benchmark, so it
should break this test first."""

import importlib
import inspect
import pkgutil

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
    # the way to ROADMAP item 8's target of at most 46 names
    assert len(phasepoint.__all__) <= 49


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


# Every memo in the package, by the name it is bound to: each a
# functools.lru_cache with a finite maxsize
MEMOS = {
    "phasepoint.qops.unit_roots",
    "phasepoint.metaplectic._exponent_table",
    "phasepoint.symplectic._word_table",
    "phasepoint.wigner._plan_memo",
    "phasepoint.oracle._plan_memo",
}


def test_every_memo_is_listed_and_bounded():
    # a new memo has to be added here on purpose, with a finite maxsize
    found = {}
    names = [f"phasepoint.{info.name}" for info in pkgutil.iter_modules(phasepoint.__path__)]
    for module in map(importlib.import_module, ["phasepoint", *names]):
        scopes = [(module.__name__, module)] + [
            (f"{module.__name__}.{name}", cls)
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
        for prefix, scope in scopes:
            for name, value in vars(scope).items():
                # a memo imported from another module is counted where it is made
                if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                    found[f"{prefix}.{name}"] = value.cache_parameters()["maxsize"]
    assert set(found) == MEMOS
    assert all(isinstance(maxsize, int) and maxsize > 0 for maxsize in found.values())
