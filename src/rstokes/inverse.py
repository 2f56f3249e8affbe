"""Source-intensity identification from a weighted interior measurement.

Forward: solve the state equation with the separable source g * p(t) and
record psi(t) = (u(t), kappa), one Picard solve with the source folded into
the reaction, f1(u) + g p(t).  Inverse: given psi, eliminate p through the
time derivative of the measurement identity,

    p(u) = c [psi' + (1+m(0)) (grad u, grad kappa) + m' * (grad u, grad kappa)
              - (f1(u), kappa)],    c = 1 / (g, kappa).

With a state reaction f1 that is one Picard solve of the eliminated state
equation, f1(u) + g p(u), whose history term convolves m' with the one
pairing column (grad u, grad kappa), not with the state.  Without one
(``InverseProblem.reaction_free``) the eliminated problem is affine in u, and
pairing the mild-solution formula with lambda kappa leaves a scalar
second-kind Volterra equation for p alone (the classical reduction of a
separable-source problem):

    gpu = a + T p,    p - c [(1+m(0)) T p + P T p] = c [psi' + (1+m(0)) a + P a],

with K = omega @ (g lambda kappa), a = omega @ (xi lambda kappa), T the
table's lag rule with K and P the product rule of m'.  These are the
discrete operators of the Picard sweeps, and every column of the system but
the first is the one before it shifted a row down, so p comes from one
lower-triangular Toeplitz solve (``volterra._toeplitz_solve``) once row 0
gives p_0 and column 0 moves to the right-hand side: no sweep, and no state
table.  The measurement residual (u, kappa) - psi is the scalar
omega @ (xi kappa) + T_{K_kappa} p - psi with K_kappa = omega @ (g kappa).

Each solve builds its own relaxation table with the quadrature rule of
``identification_decision``, which needs no table, so a caller can record the
rule before the solve.  The elimination needs m'(t) integrable on (0, T);
kernels with a non-integrable derivative (the weakly singular kind) are
rejected up front, with the other problem-data checks, before any table is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .grids import TimeGrid
from .kernels import HistoryKernel, MemoryKernel
from .nonlinear import (MildSolution, NonConvergence, Nonlinearity, PicardOptions,
                        history_series, picard_solve)
from .relaxation import relaxation_batch
from .resolvent import build_resolvent
from .spectral import SpectralBasis
from .volterra import _toeplitz_solve, scheme_decision

__all__ = [
    "PairingTooSmall",
    "KernelGateFailed",
    "InverseProblem",
    "derivative_psi",
    "identification_decision",
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

    @property
    def reaction_free(self) -> bool:
        """f1 is of the ``zero`` kind: the dynamics are diagonal and p
        solves a scalar Volterra equation (module docstring).  Only that kind
        counts; any other reaction, a linear one included, takes the sweeps."""
        return self.f1.kind == "zero"


def derivative_psi(psi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """psi' series by second-order finite differences (central interior,
    one-sided ends)."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.nodes.shape:
        raise ValueError("psi length does not match the grid")
    if psi.size < 3:
        raise ValueError("need at least 3 samples to differentiate")
    return np.gradient(psi, grid.nodes, edge_order=2)


def identification_decision(problem: InverseProblem) -> Dict[str, object]:
    """``volterra.scheme_decision`` for the identification solves.

    Without a reaction the dynamics are diagonal and modes with zero source
    and zero initial data stay exactly zero, so stiffness is judged on the
    active modes only; that keeps the second-order rule when the padding
    modes are the stiff ones.  Any reaction term may couple modes, and with
    no active mode there is nothing to single out, so then every mode is
    judged, as the automatic joint rule does.

    An active mode kappa does not see is judged too, though the direct solve
    leaves it out of its table: the forward simulation that makes psi, the
    sweeps and the direct solve share this one rule, so the direct p is the
    fixed point of the same discrete equation the sweeps solve.
    """
    lams = problem.basis.eigenvalues
    if problem.reaction_free:
        active = (problem.g != 0.0) | (problem.xi != 0.0)
        if np.any(active):
            lams = lams[active]
    return scheme_decision(problem.kernel.a_moments, problem.grid, lams)


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
    scheme = identification_decision(problem)["scheme"]
    ctx = build_resolvent(problem.kernel, problem.basis, problem.grid, scheme)
    sol = picard_solve(ctx, spec, HistoryKernel.zero(), problem.xi, opts)
    return sol, sol.coeffs @ problem.kappa


@dataclass(frozen=True)
class ReconstructionResult:
    """The recovered p and its records.

    solution is the Picard solve of a problem with a state reaction; a
    reaction-free problem solves for p directly and has none, and defect is
    then the relative defect of p in its discrete fixed-point equation,
    max |p - p(u(p))| / max |p|.
    """

    solution: Optional[MildSolution]
    p: np.ndarray
    psi_prime: np.ndarray
    measurement_residual: np.ndarray
    pairing: float
    defect: Optional[float] = None

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.measurement_residual)))

    @property
    def method(self) -> str:
        """How p was found: "sweeps" (a Picard solve) or "direct"."""
        return "direct" if self.solution is None else "sweeps"

    @property
    def residuals(self) -> Tuple[float, ...]:
        """The Picard residuals, sweep by sweep; none for a direct solve."""
        return () if self.solution is None else self.solution.residuals


def reconstruct(
    problem: InverseProblem,
    opts: PicardOptions = PicardOptions(tol=1e-6),
    scheme: Optional[str] = None,
) -> ReconstructionResult:
    """Recover the source intensity p(t) from the measurement psi.

    Validates the pairing floor, the kernel derivative gate, and t = 0
    consistency before it builds any table.  A reaction-free problem then
    solves the scalar Volterra equation for p in one Toeplitz solve (module
    docstring), and opts is not read; a non-finite p raises NonConvergence
    (method "direct") naming its first non-finite row.  Otherwise it solves
    the eliminated fixed-point problem for u and emits p = p(u).  scheme is
    ``identification_decision(problem)["scheme"]``, for a caller that has it
    already.

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
    if scheme is None:
        scheme = identification_decision(problem)["scheme"]
    if problem.reaction_free:
        return _reconstruct_direct(problem, psi_prime, scheme)
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


# a non-finite p is reported, not warned about
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reconstruct_direct(problem: InverseProblem, psi_prime: np.ndarray,
                        scheme: str) -> ReconstructionResult:
    """p of a reaction-free problem from its scalar Volterra equation, in
    one Toeplitz solve (module docstring)."""
    grid, kernel = problem.grid, problem.kernel
    m0 = kernel.value_at_zero()
    m1 = kernel.derivative_history_kernel()
    c = 1.0 / problem.pairing
    # a mode enters the pairings only if it carries data and kappa sees it;
    # the table's columns do not depend on each other
    used = ((problem.g != 0.0) | (problem.xi != 0.0)) & (problem.kappa != 0.0)
    lam, g, xi, kappa = (v[used] for v in (problem.basis.eigenvalues, problem.g,
                                           problem.xi, problem.kappa))
    table = relaxation_batch(kernel, lam, grid, scheme)
    pairings = np.stack((g * lam * kappa, xi * lam * kappa, g * kappa, xi * kappa), axis=1)
    K, a, K_kappa, b = (table.omega @ pairings).T

    def history_part(v):
        # c [(1+m(0)) v + m' * v], columns convolved independently
        return c * ((1.0 + m0) * v + history_series(m1, v, grid))

    # L e_0 and L e_1: the first column of L and the symbol of the rest
    e = np.eye(grid.nodes.size, 2)
    columns = e - history_part(table.lag_convolve(K, e))
    rhs = c * psi_prime + history_part(a)
    rhs[1:] -= columns[1:, 0] * rhs[0]
    p = _toeplitz_solve(columns[1:, 1], 1.0, columns[1, 1], rhs)
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        raise NonConvergence(
            f"the direct solve for p produced a non-finite value at time row {bad[0]}",
            (), method="direct",
        )
    # p(u(p)) - p, from the operators of the Picard sweeps
    misfit = c * psi_prime + history_part(a + table.lag_convolve(K, p)) - p
    scale = float(np.max(np.abs(p)))
    misfit_max = float(np.max(np.abs(misfit)))
    if problem.psi is not None:
        residual = b + table.lag_convolve(K_kappa, p) - problem.psi
    else:
        residual = np.full_like(psi_prime, np.nan)
    return ReconstructionResult(
        solution=None,
        p=p,
        psi_prime=psi_prime,
        measurement_residual=residual,
        pairing=problem.pairing,
        defect=misfit_max / scale if scale > 0.0 else misfit_max,
    )
