"""Source-intensity identification from a weighted interior measurement.

Forward: solve the state equation with the separable source g * p(t) and
record psi(t) = (u(t), kappa).  Inverse: given psi, eliminate p through the
time derivative of the measurement identity.  Both directions are one Picard
solve, the source folded into the reaction: f1(u) + g p(t) forward,
f1(u) + g p(u) inverse.  Each builds its own resolvent with the quadrature
rule of ``identification_scheme``, which needs no table, so a caller can
record the rule before the solve.  p(u), the elimination formula of
``reconstruct``, is written once, and its history term convolves m' with
the one pairing column (grad u, grad kappa), not with the state.

The elimination needs m'(t) integrable on (0, T); kernels with a
non-integrable derivative (the weakly singular kind) are rejected up front,
with the other problem-data checks, before any table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grids import TimeGrid
from .kernels import HistoryKernel, MemoryKernel
from .nonlinear import MildSolution, Nonlinearity, PicardOptions, history_series, picard_solve
from .resolvent import build_resolvent
from .spectral import SpectralBasis
from .volterra import stiffness_scheme

__all__ = [
    "PairingTooSmall",
    "KernelGateFailed",
    "InverseProblem",
    "derivative_psi",
    "identification_scheme",
    "forward_simulate",
    "ReconstructionResult",
    "reconstruct",
]


class PairingTooSmall(ValueError):
    """(g, kappa) is below the floor; the elimination formula divides by it."""


class KernelGateFailed(ValueError):
    """The memory kernel's derivative fails the integrability requirement."""


# relative tolerance of the t = 0 identity psi(0) = (xi, kappa)
_CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class InverseProblem:
    """Data of one identification run.

    g and kappa are coefficient vectors on the basis; psi is the measurement
    series on the grid nodes (None while only simulating forward); psi_prime
    optionally carries an analytic derivative series, otherwise second-order
    finite differences of psi are used.  f1 is the state-only reaction term
    (zero when None).
    """

    basis: SpectralBasis
    grid: TimeGrid
    kernel: MemoryKernel
    g: np.ndarray
    kappa: np.ndarray
    xi: np.ndarray
    f1: Optional[Nonlinearity] = None
    psi: Optional[np.ndarray] = None
    psi_prime: Optional[np.ndarray] = None
    pairing_floor: float = 1e-12

    def __post_init__(self):
        if self.f1 is None:
            object.__setattr__(self, "f1", Nonlinearity.zero())
        for name in ("g", "kappa", "xi"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.basis.n_modes,):
                raise ValueError(f"{name} length does not match the basis")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        for name in ("psi", "psi_prime"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float)
            if v.shape != self.grid.nodes.shape:
                raise ValueError(f"{name} length does not match the grid")
            object.__setattr__(self, name, v)

    @property
    def pairing(self) -> float:
        return float(self.g @ self.kappa)


def derivative_psi(psi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """psi' series by second-order finite differences (central interior,
    one-sided ends)."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.nodes.shape:
        raise ValueError("psi length does not match the grid")
    if psi.size < 3:
        raise ValueError("need at least 3 samples to differentiate")
    return np.gradient(psi, grid.nodes, edge_order=2)


def identification_scheme(problem: InverseProblem) -> str:
    """The quadrature rule of the identification solves.

    When the reaction term is zero the dynamics are diagonal and modes with
    zero source and zero initial data stay exactly zero, so stiffness is
    judged on the active modes only; that keeps the second-order rule when
    the padding modes are the stiff ones.  Any reaction term may couple
    modes, and with no active mode there is nothing to single out, so then
    every mode is judged, as the automatic joint rule does.
    """
    lams = problem.basis.eigenvalues
    if problem.f1.kind == "zero":
        active = (problem.g != 0.0) | (problem.xi != 0.0)
        if np.any(active):
            lams = lams[active]
    return stiffness_scheme(problem.kernel.a_moments, problem.grid, lams)


def forward_simulate(
    problem: InverseProblem,
    p_samples: np.ndarray,
    opts: PicardOptions = PicardOptions(),
) -> Tuple[MildSolution, np.ndarray]:
    """Solve the state equation with source g * p(t); return (states, psi).

    The source enters the solve as part of the reaction, f1(u) + g p(t),
    added out of place: f1 may return an array it keeps."""
    p_samples = np.asarray(p_samples, dtype=float)
    if p_samples.shape != problem.grid.nodes.shape:
        raise ValueError("p series length does not match the grid")
    source = p_samples[:, None] * problem.g[None, :]
    f1 = problem.f1
    spec = Nonlinearity.custom_series(
        lambda V, W, basis: f1.apply_series(V, W, basis) + source,
        mu=f1.mu, delta=f1.delta,
    )
    scheme = identification_scheme(problem)
    ctx = build_resolvent(problem.kernel, problem.basis, problem.grid, scheme)
    sol = picard_solve(ctx, spec, HistoryKernel.zero(), problem.xi, opts)
    return sol, sol.coeffs @ problem.kappa


@dataclass(frozen=True)
class ReconstructionResult:
    solution: MildSolution
    p: np.ndarray
    psi_prime: np.ndarray
    measurement_residual: np.ndarray
    pairing: float

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.measurement_residual)))


def reconstruct(
    problem: InverseProblem,
    opts: PicardOptions = PicardOptions(tol=1e-6),
) -> ReconstructionResult:
    """Recover the source intensity p(t) from the measurement psi.

    Validates the pairing floor, the kernel derivative gate, and t = 0
    consistency before it builds any table, then solves the eliminated
    fixed-point problem for u and emits p = p(u), where

        p(u) = (g,kappa)^{-1} [psi' + (1+m(0)) (grad u, grad kappa)
                               + (m' * (grad u, grad kappa)) - (f1(u), kappa)].

    The default fixed-point tolerance is deliberately no tighter than the
    time-stepping error: the measurement residual (u, kappa) - psi bottoms
    out at quadrature accuracy, so a smaller tol buys nothing.
    """
    if problem.psi is None and problem.psi_prime is None:
        raise ValueError("reconstruction needs psi or psi_prime")
    pairing = problem.pairing
    if abs(pairing) < problem.pairing_floor:
        raise PairingTooSmall(
            f"|(g, kappa)| = {abs(pairing):.3e} is below the floor "
            f"{problem.pairing_floor:.3e}; the source shape is invisible to "
            "this measurement weight"
        )
    kernel = problem.kernel
    # |m'| is bounded for every kind but the one unbounded at t = 0, whose
    # |m'| ~ t^(-alpha-1) is not integrable there at any scale
    if not kernel.bounded_at_zero:
        raise KernelGateFailed(
            f"kernel kind {kernel.kind!r} fails the integrability gate: |m'| "
            "is not integrable near t = 0; the elimination formula needs "
            "m' in L1(0, T)"
        )
    if problem.psi is not None:
        psi0 = float(problem.psi[0])
        xi_k = float(problem.xi @ problem.kappa)
        scale = max(abs(psi0), abs(xi_k), 1.0)
        if abs(psi0 - xi_k) > _CONSISTENCY_TOL * scale:
            raise ValueError(
                f"psi(0) = {psi0:.6e} disagrees with (xi, kappa) = {xi_k:.6e} "
                "beyond the consistency tolerance"
            )

    psi_prime = problem.psi_prime
    if psi_prime is None:
        psi_prime = derivative_psi(problem.psi, problem.grid)
    m0 = kernel.value_at_zero()
    m1 = kernel.derivative_history_kernel()
    kappa = problem.kappa
    grad_weight = problem.basis.eigenvalues * kappa
    c = 1.0 / pairing
    f1 = problem.f1

    def source(V, f1_rows):
        # p(u) rows; the state enters the history term through gpu alone
        gpu = V @ grad_weight
        history = history_series(m1, gpu, problem.grid)
        return c * (psi_prime + (1.0 + m0) * gpu + history - f1_rows @ kappa)

    def eliminated(V, W, basis):
        # g p(u) + f1(u); the solve has no ell, so W is zero
        f1_rows = f1.apply_series(V, W, basis)
        return problem.g[None, :] * source(V, f1_rows)[:, None] + f1_rows

    spec = Nonlinearity.custom_series(eliminated, mu=f1.mu, delta=f1.delta)
    scheme = identification_scheme(problem)
    ctx = build_resolvent(problem.kernel, problem.basis, problem.grid, scheme)
    sol = picard_solve(ctx, spec, HistoryKernel.zero(), problem.xi, opts)
    U = sol.coeffs
    p = source(U, f1.apply_series(U, np.zeros_like(U), problem.basis))

    if problem.psi is not None:
        residual = U @ kappa - problem.psi
    else:
        residual = np.full_like(psi_prime, np.nan)
    return ReconstructionResult(
        solution=sol,
        p=p,
        psi_prime=psi_prime,
        measurement_residual=residual,
        pairing=pairing,
    )
