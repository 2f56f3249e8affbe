"""Mode-wise relaxation solver for diffusion with a memory-damped Laplacian.

The package covers the full pipeline: per-mode relaxation profiles from a
scalar Volterra equation, the spectral solution-operator family built from
them, Picard iteration for history-dependent nonlinearities, numerical
verification of the structural bounds the theory relies on, kernel
hypothesis certificates, and recovery of a separable source intensity from
a scalar measurement.
"""

from .grids import TimeGrid
from .kernels import (
    CompletePositivityCertificate,
    HistoryKernel,
    MemoryKernel,
    PCCertificate,
    certify_completely_positive,
    certify_pc,
)
from .spectral import (
    Interval,
    Rectangle,
    SpectralBasis,
    build_basis,
    hnorm,
    project,
    synthesize,
)
from .relaxation import (
    RelaxationReport,
    RelaxationTable,
    relaxation_batch,
    verify_relaxation,
)
from .resolvent import (
    ResolventContext,
    ResolventReport,
    build_resolvent,
    convolve_sol_op,
    reciprocal_cumulative_integrable,
    verify_sol_op_bounds,
)
from .nonlinear import (
    GateDecision,
    HolderReport,
    MildSolution,
    NonConvergence,
    Nonlinearity,
    PicardOptions,
    holder_estimate,
    picard_solve,
    select_invariant_radius,
    small_data_gate,
    spectral_gap_gate,
)
from .inverse import (
    InverseProblem,
    KernelGateFailed,
    PairingTooSmall,
    ReconstructionResult,
    derivative_psi,
    forward_simulate,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "MemoryKernel",
    "HistoryKernel",
    "CompletePositivityCertificate",
    "PCCertificate",
    "certify_completely_positive",
    "certify_pc",
    "Interval",
    "Rectangle",
    "SpectralBasis",
    "build_basis",
    "project",
    "synthesize",
    "hnorm",
    "RelaxationTable",
    "RelaxationReport",
    "relaxation_batch",
    "verify_relaxation",
    "ResolventContext",
    "ResolventReport",
    "build_resolvent",
    "convolve_sol_op",
    "reciprocal_cumulative_integrable",
    "verify_sol_op_bounds",
    "Nonlinearity",
    "PicardOptions",
    "MildSolution",
    "NonConvergence",
    "GateDecision",
    "HolderReport",
    "picard_solve",
    "holder_estimate",
    "small_data_gate",
    "spectral_gap_gate",
    "select_invariant_radius",
    "InverseProblem",
    "ReconstructionResult",
    "PairingTooSmall",
    "KernelGateFailed",
    "forward_simulate",
    "reconstruct",
    "derivative_psi",
    "__version__",
]
