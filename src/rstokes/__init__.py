"""Mode-wise relaxation solver for diffusion with a memory-damped Laplacian.

The package covers the full pipeline: per-mode relaxation profiles from a
scalar Volterra equation, the spectral solution-operator family built from
them, Picard iteration for history-dependent nonlinearities, numerical
verification of the structural bounds the theory relies on, kernel
hypothesis certificates, and recovery of a separable source intensity from
a scalar measurement.

The package is lazy (PEP 562): importing it loads no submodule, and each
public name imports its module on first access.  The command line imports
only the layers its command runs.  The name is looked up on every access,
never stored in the package's globals, so a patched module attribute is
seen through the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("grids", ("TimeGrid",)),
        ("kernels", ("MemoryKernel", "HistoryKernel", "Check",
                     "certify_completely_positive", "certify_pc")),
        ("spectral", ("Interval", "Rectangle", "SpectralBasis", "build_basis",
                      "project", "synthesize", "hnorm")),
        ("relaxation", ("RelaxationTable", "relaxation_batch", "verify_relaxation")),
        ("resolvent", ("ResolventContext", "build_resolvent",
                       "convolve_sol_op", "reciprocal_cumulative_integrable",
                       "verify_sol_op_bounds")),
        ("nonlinear", ("Nonlinearity", "PicardOptions", "MildSolution",
                       "NonConvergence", "HolderReport", "picard_solve",
                       "holder_estimate")),
        ("inverse", ("InverseProblem", "ReconstructionResult", "PairingTooSmall",
                     "KernelGateFailed", "forward_simulate", "reconstruct",
                     "derivative_psi", "identification_decision")),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
