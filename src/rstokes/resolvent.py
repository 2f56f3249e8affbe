"""The diagonal solution-operator family S(t) and its verified bounds.

S(t) multiplies the n-th eigencoefficient by omega(t, lambda_n); the
convolution S * g uses the lag quadrature matching the table's scheme on
uniform grids (graded grids interpolate omega in t, which is flagged in
reports).

``verify_sol_op_bounds`` checks the operator estimates numerically on random
trial data and emits one row per estimate:

sol_op_bound              |S(t) xi| <= omega(t, lambda_1) |xi|
conv_smoothing_l2         |S*g(t)|_mu^2 <= int omega(t-tau, lambda_1)
                          |g(tau)|_{mu-1}^2 dtau
derivative_decay          |(S(t+h)-S(t)) xi| / h <= |xi| / t (nonincreasing
                          kernels, t >= 4 grid steps)
conv_smoothing_singular   |S*g(t)|_mu^2 <= int (t-tau)^{-delta}
                          |g(tau)|_{mu-1-delta}^2 dtau
conv_smoothing_reciprocal |S*g(t)|_mu^2 <= int |g|_{mu-2}^2 / (1*m)(t-tau)
                          dtau (needs integrable reciprocal cumulative)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grids import TimeGrid
from .kernels import HistoryKernel, MemoryKernel
from .relaxation import RelaxationTable, relaxation_batch
from .spectral import SpectralBasis, hnorm
from .volterra import (
    lag_weights,
    product_convolve,
    rectangle_convolve,
    trapezoid_convolve,
)

__all__ = [
    "ResolventContext",
    "build_resolvent",
    "apply_sol_op",
    "convolve_sol_op",
    "BoundCheck",
    "ResolventReport",
    "verify_sol_op_bounds",
    "reciprocal_cumulative_integrable",
]


@dataclass(frozen=True)
class ResolventContext:
    basis: SpectralBasis
    grid: TimeGrid
    table: RelaxationTable
    kernel: MemoryKernel

    def __post_init__(self):
        if not np.array_equal(self.table.lambdas, self.basis.eigenvalues):
            raise ValueError("table eigenvalues do not match the basis")
        if self.table.grid is not self.grid and not np.array_equal(
            self.table.grid.nodes, self.grid.nodes
        ):
            raise ValueError("table grid does not match the context grid")


def build_resolvent(
    kernel: MemoryKernel,
    basis: SpectralBasis,
    grid: TimeGrid,
    scheme: Optional[str] = None,
) -> ResolventContext:
    table = relaxation_batch(kernel, basis.eigenvalues, grid, scheme)
    return ResolventContext(basis, grid, table, kernel)


def apply_sol_op(ctx: ResolventContext, xi, i: Optional[int] = None) -> np.ndarray:
    """S(t_i) xi coefficients; all nodes at once when i is None."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (ctx.basis.n_modes,):
        raise ValueError("coefficient length does not match the context basis")
    if i is None:
        return ctx.table.omega * xi[None, :]
    if not 0 <= i < ctx.grid.nodes.size:
        raise IndexError("grid index out of range")
    return ctx.table.omega[i] * xi


def convolve_sol_op(ctx: ResolventContext, g: np.ndarray) -> np.ndarray:
    """(S * g)(t_i) for a coefficient series g of shape (N+1, n_modes).

    The quadrature follows the table's scheme: trapezoid rule for trapezoid
    tables, right-endpoint rule for rectangle tables.  Mixing them is not
    just an accuracy question; the trapezoid rule weights the newest source
    sample by dt/2, which dwarfs the true convolution mass ~1/lambda of a
    stiff column and breaks the smoothing estimates the family must obey.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != ctx.table.omega.shape:
        raise ValueError("series shape does not match grid x modes")
    if ctx.grid.is_uniform:
        if ctx.table.scheme == "trapezoid":
            return trapezoid_convolve(ctx.table.omega, g, ctx.grid.dt)
        return rectangle_convolve(ctx.table.omega, g, ctx.grid.dt)
    return _convolve_interpolated(ctx, g)


def _convolve_interpolated(ctx: ResolventContext, g: np.ndarray) -> np.ndarray:
    # graded grids: omega at off-grid lags by linear interpolation
    t = ctx.grid.nodes
    out = np.zeros_like(g)
    for i in range(1, t.size):
        lag = t[i] - t[: i + 1]
        om = np.empty((i + 1, g.shape[1]))
        for n in range(g.shape[1]):
            om[:, n] = np.interp(lag, t, ctx.table.omega[:, n])
        out[i] = np.trapezoid(om * g[: i + 1], t[: i + 1], axis=0)
    return out


@dataclass(frozen=True)
class BoundCheck:
    label: str
    status: str  # "pass" | "fail" | "skip"
    worst_margin: float
    t_worst: float
    reason: str = ""


@dataclass(frozen=True)
class ResolventReport:
    rows: Tuple[BoundCheck, ...]
    mu: float
    delta: float
    interpolated_lags: bool

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def row(self, label: str) -> BoundCheck:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def reciprocal_cumulative_integrable(kernel: MemoryKernel, horizon: float) -> bool:
    """Whether 1/(1*m) is integrable near 0, decided from the small-t law.

    Only the fractional kind has (1*m)(t) ~ t^(1-alpha), so 1/(1*m) ~
    t^(alpha-1) is integrable.  Every bounded kind has (1*m)(t) <= m(0) t
    (or (1*m) = 0 near 0 when m(0) = 0), so 1/(1*m) >= 1/(m(0) t) diverges
    at any scale.  horizon plays no part; it is kept for callers.
    """
    return not kernel.bounded_at_zero


def _reciprocal_weights(ctx: ResolventContext):
    """Product weights for 1/(1*m) of the fractional kind, a power law."""
    kernel = ctx.kernel
    scale = (1.0 - kernel.alpha) * math.gamma(kernel.alpha) / kernel.m0
    rec = HistoryKernel.powerlaw(scale, kernel.alpha - 1.0)
    return lag_weights(rec.moments, ctx.grid)


def _trial_series(rng, t, n_modes):
    # smooth random coefficient paths: per-mode amplitude and phase
    amp = rng.standard_normal(n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * t[:, None] / t[-1] + phase[None, :])
    return amp[None, :] * profile


def verify_sol_op_bounds(
    ctx: ResolventContext,
    mu: float = 1.0,
    delta: float = 0.5,
    n_trials: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> ResolventReport:
    """Evaluate the operator estimates on random trials; report worst margins."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    t = ctx.grid.nodes
    omega = ctx.table.omega
    basis = ctx.basis
    n_modes = basis.n_modes
    rows = []

    # sol_op_bound: diagonal action vs the slowest mode's profile
    worst, t_at = np.inf, 0.0
    for _ in range(n_trials):
        xi = rng.standard_normal(n_modes)
        lhs = hnorm(omega * xi[None, :], basis, 0.0)
        margin = omega[:, 0] * hnorm(xi, basis, 0.0) - lhs
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst, t_at = float(margin[i]), float(t[i])
    rows.append(
        BoundCheck("sol_op_bound", "pass" if worst >= -tol else "fail", worst, t_at)
    )

    uniform = ctx.grid.is_uniform
    rectangle = ctx.table.scheme == "rectangle"
    if uniform:
        dt = ctx.grid.dt
        trials = [_trial_series(rng, t, n_modes) for _ in range(n_trials)]
        convs = [convolve_sol_op(ctx, g) for g in trials]

        def smoothing_rhs(weight_at_nodes, weight_moments, q):
            # quadrature matched to the table's scheme; the right-endpoint
            # rule never evaluates a singular weight at lag zero and
            # underestimates the cell integral of a decreasing weight, so
            # the rectangle branch is the conservative side of the bound
            if rectangle:
                k = np.concatenate(([0.0], weight_at_nodes))
                return rectangle_convolve(k, q, dt)
            return weight_moments(q)

        # conv_smoothing_l2
        worst, t_at = np.inf, 0.0
        for g, conv in zip(trials, convs):
            lhs = hnorm(conv, basis, mu) ** 2
            q = hnorm(g, basis, mu - 1.0) ** 2
            rhs = smoothing_rhs(
                omega[1:, 0], lambda q: trapezoid_convolve(omega[:, 0], q, dt), q
            )
            margin = rhs - lhs
            i = int(np.argmin(margin))
            if margin[i] < worst:
                worst, t_at = float(margin[i]), float(t[i])
        rows.append(
            BoundCheck(
                "conv_smoothing_l2", "pass" if worst >= -tol else "fail", worst, t_at
            )
        )
    else:
        rows.append(
            BoundCheck(
                "conv_smoothing_l2",
                "skip",
                float("nan"),
                float("nan"),
                "graded grid: lag-aligned quadrature unavailable",
            )
        )

    # derivative_decay, forward difference quotients, first 4 cells excluded
    if ctx.kernel.nonincreasing:
        worst, t_at = np.inf, 0.0
        steps = ctx.grid.steps()
        for _ in range(n_trials):
            xi = rng.standard_normal(n_modes)
            norm_xi = hnorm(xi, basis, 0.0)
            dq = hnorm(np.diff(omega, axis=0) * xi[None, :], basis, 0.0) / steps
            margin = 1.0 / t[4:-1] - dq[4:] / norm_xi
            i = int(np.argmin(margin))
            if margin[i] < worst:
                worst, t_at = float(margin[i]), float(t[4 + i])
        rows.append(
            BoundCheck(
                "derivative_decay", "pass" if worst >= -tol else "fail", worst, t_at
            )
        )
    else:
        rows.append(
            BoundCheck(
                "derivative_decay",
                "skip",
                float("nan"),
                float("nan"),
                "kernel is not nonincreasing",
            )
        )

    if uniform:
        # conv_smoothing_singular: (t-tau)^(-delta) weight
        singular = HistoryKernel.powerlaw(1.0, -delta)
        w_sing = lag_weights(singular.moments, ctx.grid)
        worst, t_at = np.inf, 0.0
        for g, conv in zip(trials, convs):
            lhs = hnorm(conv, basis, mu) ** 2
            q = hnorm(g, basis, mu - 1.0 - delta) ** 2
            rhs = smoothing_rhs(
                t[1:] ** (-delta), lambda q: product_convolve(w_sing, q), q
            )
            margin = rhs - lhs
            i = int(np.argmin(margin))
            if margin[i] < worst:
                worst, t_at = float(margin[i]), float(t[i])
        rows.append(
            BoundCheck(
                "conv_smoothing_singular",
                "pass" if worst >= -tol else "fail",
                worst,
                t_at,
            )
        )

        if reciprocal_cumulative_integrable(ctx.kernel, ctx.grid.horizon):
            if rectangle:
                rec_vals = 1.0 / np.asarray(ctx.kernel.cumulative(t[1:]), float)
                w_rec = None
            else:
                rec_vals = None
                w_rec = _reciprocal_weights(ctx)
            worst, t_at = np.inf, 0.0
            for g, conv in zip(trials, convs):
                lhs = hnorm(conv, basis, mu) ** 2
                q = hnorm(g, basis, mu - 2.0) ** 2
                rhs = smoothing_rhs(
                    rec_vals, lambda q: product_convolve(w_rec, q), q
                )
                margin = rhs - lhs
                i = int(np.argmin(margin))
                if margin[i] < worst:
                    worst, t_at = float(margin[i]), float(t[i])
            rows.append(
                BoundCheck(
                    "conv_smoothing_reciprocal",
                    "pass" if worst >= -tol else "fail",
                    worst,
                    t_at,
                )
            )
        else:
            rows.append(
                BoundCheck(
                    "conv_smoothing_reciprocal",
                    "skip",
                    float("nan"),
                    float("nan"),
                    "1/(1*m) is not integrable at t = 0 for a kernel bounded there",
                )
            )
    else:
        for label in ("conv_smoothing_singular", "conv_smoothing_reciprocal"):
            rows.append(
                BoundCheck(
                    label,
                    "skip",
                    float("nan"),
                    float("nan"),
                    "graded grid: lag-aligned quadrature unavailable",
                )
            )

    return ResolventReport(tuple(rows), mu, delta, interpolated_lags=not uniform)
