"""Discrete phase space toolkit.

Symplectic 2x2 matrices over residue rings and their factorization into the
two unit triangular generators, the projective unitary representation that
permutes phase point operators covariantly, and discrete Wigner functions on
odd (N x N) and even (2N x 2N doubled) lattices, with brute-force oracles for
every claim.
"""

from .modring import (
    BothZero,
    EuclidTrace,
    ModulusMismatch,
    NonInvertible,
    Residue,
    euclid_trace,
    mod_inverse,
)
from .qops import (
    EVEN,
    ODD,
    ParityError,
    delta_cohendet,
    delta_family,
    delta_leonhardt,
    inversion_op,
    phase_op,
    phase_points,
    shift_op,
    unit_roots,
    weyl_cohendet,
    weyl_leonhardt,
    weyl_symmetric,
)
from .symplectic import (
    BoundExceeded,
    DecompositionFailed,
    DepthExceeded,
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
from .metaplectic import (
    DimensionMismatch,
    ParityMismatch,
    ProjUnitary,
    apply_point,
    covariance_residual,
    equal_up_to_phase,
    phase_defect,
    u_hminus,
    u_hplus,
    u_ht,
    u_of,
)
from .wigner import (
    Marginals,
    NotNormalized,
    QuantumState,
    WignerTable,
    characteristic_fn,
    marginals,
    weyl_quantize,
    wigner_of,
)
from .oracle import (
    CovarianceSolution,
    SWKernelReport,
    UniquenessReport,
    bfs_decompose,
    integer_point_family,
    solve_covariance,
    verify_sw_kernel,
    verify_uniqueness,
)

__version__ = "0.1.0"
