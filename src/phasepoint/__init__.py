"""Discrete phase space toolkit.

Symplectic 2x2 matrices over residue rings and their factorization into the
two unit triangular generators, the projective unitary representation that
permutes phase point operators covariantly, and discrete Wigner functions on
odd (N x N) and even (2N x 2N doubled) lattices, with brute-force oracles for
every claim.

Names load on first use: ``import phasepoint`` imports no submodule, and
reading a name such as ``phasepoint.u_of`` imports the submodule that defines
it. So the integer layers (``modring``, ``symplectic``, ``lattice``) work
without loading numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES_BY_MODULE = {
    "modring": (
        "BothZero",
        "EuclidTrace",
        "ModulusMismatch",
        "euclid_trace",
    ),
    "lattice": ("DimensionMismatch", "EVEN", "ODD", "ParityError"),
    "qops": ("delta_family", "unit_roots"),
    "symplectic": (
        "BoundExceeded",
        "DecompositionFailed",
        "GenWord",
        "NotSymplectic",
        "SympMat",
        "apply_point",
        "bfs_decompose",
        "decompose",
        "enumerate_group",
        "generator",
        "generator_power",
        "group_order",
        "h_t",
        "random_element",
    ),
    "metaplectic": (
        "ProjUnitary",
        "UTable",
        "covariance_residual",
        "equal_up_to_phase",
        "group_covariance",
        "group_projectivity",
        "phase_defect",
        "u_hminus",
        "u_hplus",
        "u_of",
        "u_table",
    ),
    "wigner": (
        "Marginals",
        "NotNormalized",
        "QuantumState",
        "WignerTable",
        "marginals",
        "weyl_quantize",
        "wigner_of",
    ),
    "oracle": (
        "CovarianceSolution",
        "SWKernelReport",
        "UniquenessReport",
        "integer_point_family",
        "solve_covariance",
        "verify_sw_kernel",
        "verify_uniqueness",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    # Later lookups find the name in the module globals and skip this hook.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
