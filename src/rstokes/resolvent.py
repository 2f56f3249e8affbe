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


def reciprocal_cumulative_integrable(kernel: MemoryKernel) -> bool:
    """Whether 1/(1*m) is integrable near 0, decided from the small-t law.

    Only the fractional kind has (1*m)(t) ~ t^(1-alpha), so 1/(1*m) ~
    t^(alpha-1) is integrable.  Every bounded kind has (1*m)(t) <= m(0) t
    (or (1*m) = 0 near 0 when m(0) = 0), so 1/(1*m) >= 1/(m(0) t) diverges
    at any scale, on every horizon.
    """
    return not kernel.bounded_at_zero


def _reciprocal_weights(ctx: ResolventContext):
    """Product weights for 1/(1*m) of the fractional kind, a power law."""
    kernel = ctx.kernel
    scale = (1.0 - kernel.alpha) * math.gamma(kernel.alpha) / kernel.m0
    rec = HistoryKernel.powerlaw(scale, kernel.alpha - 1.0)
    return lag_weights(rec.moments, ctx.grid)


def _trial_series(amp, phase, t):
    # smooth random coefficient path: per-mode amplitude and phase
    profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * t[:, None] / t[-1] + phase[None, :])
    return amp[None, :] * profile


class _Worst:
    """Running worst (smallest) margin over trials and the time it occurs."""

    def __init__(self):
        self.margin, self.t = np.inf, 0.0

    def fold(self, margin, t):
        i = int(np.argmin(margin))
        if margin[i] < self.margin:
            self.margin, self.t = float(margin[i]), float(t[i])

    def row(self, label, tol):
        status = "pass" if self.margin >= -tol else "fail"
        return BoundCheck(label, status, self.margin, self.t)


def _skip(label, reason):
    return BoundCheck(label, "skip", float("nan"), float("nan"), reason)


_GRADED_SKIP = "graded grid: lag-aligned quadrature unavailable"


def verify_sol_op_bounds(
    ctx: ResolventContext,
    mu: float = 1.0,
    delta: float = 0.5,
    n_trials: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> ResolventReport:
    """Evaluate the operator estimates on random trials; report worst margins.

    The three conv_smoothing rows share one pass over the trials: a trial
    series and its convolution with the table exist only while that trial is
    checked, so memory does not grow with n_trials.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    t = ctx.grid.nodes
    omega = ctx.table.omega
    basis = ctx.basis
    n_modes = basis.n_modes
    uniform = ctx.grid.is_uniform

    # sol_op_bound: diagonal action vs the slowest mode's profile
    sol_op = _Worst()
    for _ in range(n_trials):
        xi = rng.standard_normal(n_modes)
        lhs = hnorm(omega * xi[None, :], basis, 0.0)
        sol_op.fold(omega[:, 0] * hnorm(xi, basis, 0.0) - lhs, t)

    # the trial draws come before the derivative_decay draws; the series
    # themselves are built one at a time in the smoothing pass below
    draws = [
        (rng.standard_normal(n_modes), rng.uniform(0.0, 2.0 * np.pi, n_modes))
        for _ in range(n_trials if uniform else 0)
    ]

    # derivative_decay, forward difference quotients, first 4 cells excluded
    if not ctx.kernel.nonincreasing:
        decay_row = _skip("derivative_decay", "kernel is not nonincreasing")
    elif t.size < 6:
        decay_row = _skip("derivative_decay", "grid has no cell past the first 4")
    else:
        decay = _Worst()
        steps = ctx.grid.steps()
        increments = np.diff(omega, axis=0)
        t4 = t[4:-1]
        for _ in range(n_trials):
            xi = rng.standard_normal(n_modes)
            norm_xi = hnorm(xi, basis, 0.0)
            dq = hnorm(increments * xi[None, :], basis, 0.0) / steps
            decay.fold(1.0 / t4 - dq[4:] / norm_xi, t4)
        decay_row = decay.row("derivative_decay", tol)
        # an (N_t x modes) table the smoothing pass below must not carry
        del increments

    if not uniform:
        return ResolventReport(
            (
                sol_op.row("sol_op_bound", tol),
                _skip("conv_smoothing_l2", _GRADED_SKIP),
                decay_row,
                _skip("conv_smoothing_singular", _GRADED_SKIP),
                _skip("conv_smoothing_reciprocal", _GRADED_SKIP),
            ),
            mu,
            delta,
            interpolated_lags=True,
        )

    # one rule per conv_smoothing row for the right-hand side, applied to
    # the squared trial norm.  The quadrature matches the table's scheme; the
    # right-endpoint rule never evaluates a singular weight at lag zero and
    # underestimates the cell integral of a decreasing weight, so the
    # rectangle branch is the conservative side of the bound
    dt = ctx.grid.dt
    reciprocal = reciprocal_cumulative_integrable(ctx.kernel)
    if ctx.table.scheme == "rectangle":

        def rule(weight_at_lags):
            k = np.concatenate(([0.0], weight_at_lags))
            return lambda q: rectangle_convolve(k, q, dt)

        rules = [rule(omega[1:, 0]), rule(t[1:] ** (-delta))]
        if reciprocal:
            rules.append(rule(1.0 / np.asarray(ctx.kernel.cumulative(t[1:]), float)))
    else:
        w_sing = lag_weights(HistoryKernel.powerlaw(1.0, -delta).moments, ctx.grid)
        rules = [
            lambda q: trapezoid_convolve(omega[:, 0], q, dt),
            lambda q: product_convolve(w_sing, q),
        ]
        if reciprocal:
            w_rec = _reciprocal_weights(ctx)
            rules.append(lambda q: product_convolve(w_rec, q))
    labels = ("conv_smoothing_l2", "conv_smoothing_singular", "conv_smoothing_reciprocal")
    orders = (mu - 1.0, mu - 1.0 - delta, mu - 2.0)
    worst = [_Worst() for _ in rules]
    for amp, phase in draws:
        g = _trial_series(amp, phase, t)
        lhs = hnorm(convolve_sol_op(ctx, g), basis, mu) ** 2
        for rho, rhs, w in zip(orders, rules, worst):
            w.fold(rhs(hnorm(g, basis, rho) ** 2) - lhs, t)
    rows = [w.row(label, tol) for label, w in zip(labels, worst)]
    if not reciprocal:
        rows.append(
            _skip(
                labels[2],
                "1/(1*m) is not integrable at t = 0 for a kernel bounded there",
            )
        )
    l2, singular, recip = rows
    return ResolventReport(
        (sol_op.row("sol_op_bound", tol), l2, decay_row, singular, recip),
        mu,
        delta,
        interpolated_lags=False,
    )
