"""Nonlinear mild-solution machinery.

The state equation couples a memory-damped diffusion with a reaction term
built from the state v and its running history w = (ell * v):

    u(t) = S(t) xi + int_0^t S(t - tau) f(u(tau), w(tau)) dtau

Fixed-point iteration on that formula converges geometrically whenever the
data are small enough; ``holder_estimate`` measures time regularity of a
computed trajectory.

What ``picard_solve`` does once per solve and what it does per sweep:

* once: u_0 = S(t) xi and the advection matrix M = project(chi . grad e_n),
  which the basis keeps for each chi (``SpectralBasis._advection_matrix``);
* per sweep: w = ``history_series(ell, u, grid)`` (one transform of u
  shared by both weight columns), f(u, w), the convolution S * f, then
  S(t) xi added into it and the residual's row norms (``hnorm``), both a
  row block at a time.  f's power term synthesizes u at the nodes in row
  blocks of _SAMPLE_BUDGET node samples, maps each block in one buffer and
  projects it straight into its rows of f; its advection term is the
  product W @ M.  ``history_series`` builds ell's lag weights
  on each call, at 2.4 % (1024 steps) to 0.4 % (65536) of the cost of the
  64-column convolution they feed.

A sweep holds three (N_t + 1) x modes tables, omega, u and f: w dies with
the call that makes f, and S * f is written over f (``convolve_sol_op``'s
out).  So f must be an array of the sweep's own: a custom callback's result
is copied, since it may be V itself or a buffer the callback keeps.  The
power term's row blocks are not cut finer to save memory: OpenBLAS rounds
the synthesis product by where a row falls in its block, so the blocks are
part of the result's bits.

Only f decides whether w is needed: ``Nonlinearity.reads_history`` is false
for the zero, diagonal and power kinds (and sums of them), and then no lag
weights are built and no sweep convolves the history; f gets zeros for w,
which it does not read.  A zero ell gives f one zero series for every sweep.

No spectrum of (N_t + 1) rows is kept from one sweep to the next: omega's
would save one transform in three and hold as much as two tables.  At 256
modes and 65536 steps that is 256 MiB on top of a solve's peak of about
447 MiB: some 700 MiB in all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .grids import TimeGrid
from .kernels import HistoryKernel
from .resolvent import ResolventContext, convolve_sol_op
from .spectral import _SAMPLE_BUDGET, SpectralBasis, _row_slices, hnorm, project, synthesize
from .volterra import lag_weights, product_convolve

__all__ = [
    "Nonlinearity",
    "OverflowDiagnostic",
    "NonConvergence",
    "history_series",
    "PicardOptions",
    "MildSolution",
    "convolves_history",
    "picard_solve",
    "HolderReport",
    "holder_estimate",
]


class OverflowDiagnostic(RuntimeError):
    """Pointwise evaluation produced a non-finite sample."""


class NonConvergence(RuntimeError):
    """Fixed-point iteration hit the cap; carries the residual history and
    the method of the failed solve ("sweeps", or "direct" for the inverse
    problem's direct solve)."""

    def __init__(self, message: str, residuals: Tuple[float, ...],
                 method: str = "sweeps"):
        super().__init__(message)
        self.residuals = residuals
        self.method = method


def _check_finite(
    samples: np.ndarray, basis: SpectralBasis, what: str, first_row: int = 0
) -> None:
    if np.all(np.isfinite(samples)):
        return
    flat = np.argwhere(~np.isfinite(np.atleast_2d(samples)))
    i, j = flat[0]
    raise OverflowDiagnostic(
        f"{what} produced a non-finite sample at node {_node(basis, j)} "
        f"(time row {first_row + i})"
    )


def _check_coefficients(out: np.ndarray, basis: SpectralBasis, what: str) -> None:
    # a coefficient series: name a mode, not a node
    if np.all(np.isfinite(out)):
        return
    i, j = np.argwhere(~np.isfinite(out))[0]
    raise OverflowDiagnostic(
        f"{what} produced a non-finite coefficient in mode "
        f"{j + 1} of {basis.n_modes} (time row {i})"
    )


def _node(basis: SpectralBasis, j: int):
    """Collocation node j as a float or a tuple of floats."""
    x = basis.nodes[j]
    return float(x) if basis.nodes.ndim == 1 else tuple(float(c) for c in x)


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f(v, w) acting on coefficient series.

    kind is the name of the factory classmethod that made it, which is also
    its config name: zero | linear_diagonal | polynomial_power |
    advection_history | sum (``sum_of``) | custom (``custom_series``; no
    config names it).  Use the factories rather than the constructor.  mu is
    the regularity order of the state (the norm of the Picard residual and of
    the Holder estimate), delta the time-integrability exponent of the
    damping estimate, which sets the Holder range delta/2 < gamma < 1/2;
    mu < 1 + delta keeps the dual output order 1 + delta - mu positive.
    """

    kind: str
    mu: float = 1.0
    delta: float = 0.5
    coeffs: Optional[np.ndarray] = None
    power: float = 2.0
    scale: float = 1.0
    signed: bool = True
    chi: Tuple[float, ...] = ()
    parts: Tuple["Nonlinearity", ...] = ()
    series_fn: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 < self.mu < 2.0:
            raise ValueError("mu must lie in (0, 2)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mu >= 1.0 + self.delta:
            raise ValueError("mu must be below 1 + delta")

    # -- factories ---------------------------------------------------------

    @classmethod
    def zero(cls, **kw) -> "Nonlinearity":
        return cls(kind="zero", **kw)

    @classmethod
    def linear_diagonal(cls, coeffs, **kw) -> "Nonlinearity":
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("per-mode coefficients must be 1-d")
        return cls(kind="linear_diagonal", coeffs=c, **kw)

    @classmethod
    def polynomial_power(cls, power: float, scale: float = 1.0, signed: bool = True, **kw):
        if power <= 1.0:
            raise ValueError("power must exceed 1")
        return cls(
            kind="polynomial_power",
            power=float(power),
            scale=float(scale),
            signed=signed,
            **kw,
        )

    @classmethod
    def advection_history(cls, chi, **kw) -> "Nonlinearity":
        chi_t = tuple(float(c) for c in np.atleast_1d(chi))
        return cls(kind="advection_history", chi=chi_t, **kw)

    @classmethod
    def sum_of(cls, *parts: "Nonlinearity", **kw) -> "Nonlinearity":
        if not parts:
            raise ValueError("sum needs at least one part")
        kw.setdefault("mu", parts[0].mu)
        kw.setdefault("delta", parts[0].delta)
        return cls(kind="sum", parts=tuple(parts), **kw)

    @classmethod
    def custom_series(cls, fn: Callable, **kw) -> "Nonlinearity":
        """fn maps coefficient arrays (V, W, basis) -> array, vectorized in t."""
        return cls(kind="custom", series_fn=fn, **kw)

    @property
    def reads_history(self) -> bool:
        """Whether f reads its history argument w: advection and custom
        terms do, and so does a sum with such a part."""
        if self.kind == "sum":
            return any(p.reads_history for p in self.parts)
        return self.kind in ("advection_history", "custom")

    # -- evaluation ---------------------------------------------------------

    def apply_series(self, V: np.ndarray, W: np.ndarray, basis: SpectralBasis) -> np.ndarray:
        """f(v, w) rows for coefficient series V, W of shape (rows, n_modes)."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if V.shape[1] != basis.n_modes or W.shape != V.shape:
            raise ValueError("series shapes do not match the basis")
        if self.kind == "zero":
            return np.zeros_like(V)
        if self.kind == "linear_diagonal":
            if self.coeffs.size != basis.n_modes:
                raise ValueError("diagonal coefficient count does not match basis")
            with np.errstate(over="ignore", invalid="ignore"):
                out = V * self.coeffs[None, :]
            _check_coefficients(out, basis, "linear diagonal reaction")
            return out
        if self.kind == "polynomial_power":
            out = np.empty_like(V)
            for rows in _row_slices(V.shape[0], basis.nodes.shape[0], _SAMPLE_BUDGET):
                self._power_block(V, rows, basis, out)
            return out
        if self.kind == "advection_history":
            if len(self.chi) != basis.domain.ndim:
                raise ValueError("advection vector length does not match domain")
            # linear in w: the projected chi . grad e_n, built once per basis
            M = basis._advection_matrix(self.chi)
            with np.errstate(over="ignore", invalid="ignore"):
                out = W @ M
            if not np.all(np.isfinite(out)):
                self._advection_overflow(W, out, basis)
            return out
        if self.kind == "sum":
            out = np.zeros_like(V)
            for p in self.parts:
                out += p.apply_series(V, W, basis)
            return out
        if self.kind == "custom":
            # a copy the caller owns: the callback may return V, or a buffer
            # it keeps, and the solver writes S * f over f
            out = np.array(self.series_fn(V, W, basis), dtype=float)
            if out.shape != V.shape:
                raise ValueError("custom series callback returned a bad shape")
            _check_coefficients(out, basis, "custom reaction")
            return out
        raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    def _power_samples(self, samples: np.ndarray) -> np.ndarray:
        """scale * sign(s) |s|^p (or scale * |s|^p), in the buffer of samples.

        The bits are those of the three-pass form |s|, **p, copysign: |s|^2
        is s * s, copysign is a negation where the sign bit was set, and a
        unit scale is skipped.  One buffer a block keeps glibc from trimming
        and refaulting the heap between blocks.  Overflow shows as a
        non-finite sample, not as a warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            negative = np.signbit(samples) if self.signed else None
            if self.power == 2.0:
                np.square(samples, out=samples)
            else:
                np.abs(samples, out=samples)
                samples **= self.power
            if self.signed:
                np.negative(samples, out=samples, where=negative)
            if self.scale != 1.0:
                samples *= self.scale
        return samples

    def _power_block(self, V, rows: slice, basis: SpectralBasis, out) -> None:
        """Coefficients of the power term for V[rows], written into out[rows].

        The node values are mapped in one buffer and projected straight into
        out; the buffer dies with the call, so no two blocks' buffers are
        alive at once.  Finiteness is judged on the coefficients.
        """
        coeffs = out[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            project(basis, self._power_samples(synthesize(basis, V[rows])), out=coeffs)
        if not np.all(np.isfinite(coeffs)):
            self._power_overflow(V, rows, coeffs, basis)

    def _power_overflow(self, V, rows: slice, coeffs, basis: SpectralBasis) -> None:
        """Raise for a row block whose coefficients are not all finite.

        Names the block's first non-finite sample, recomputed; if every
        sample is finite, the projection overflowed.
        """
        what = f"pointwise power {self.power}"
        samples = self._power_samples(synthesize(basis, V[rows]))
        _check_finite(samples, basis, what, rows.start)
        i = rows.start + int(np.argwhere(~np.isfinite(coeffs))[0, 0])
        raise OverflowDiagnostic(
            f"{what} projected to a non-finite coefficient (time row {i})"
        )

    def _advection_overflow(self, W, out, basis: SpectralBasis) -> None:
        """Raise for the first time row whose advected history is not finite."""
        i = int(np.argwhere(~np.isfinite(out))[0, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            samples = basis._directional(W[i : i + 1], self.chi)
        _check_finite(samples, basis, "advected history", i)
        j = int(np.argmax(np.abs(samples[0])))
        raise OverflowDiagnostic(
            "advected history projected to a non-finite coefficient (time row "
            f"{i}; largest sample {samples[0, j]:.3e} at node {_node(basis, j)})"
        )


# -- history operator --------------------------------------------------------


def history_series(ell: HistoryKernel, series: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(ell * series)(t_i) rows by product integration with exact moments."""
    series = np.asarray(series, dtype=float)
    if series.shape[0] != grid.nodes.size:
        raise ValueError("series rows do not match the grid")
    if ell.kind == "zero":
        return np.zeros_like(series)
    return product_convolve(lag_weights(ell.moments, grid), series)


# -- fixed-point solver -------------------------------------------------------


@dataclass(frozen=True)
class PicardOptions:
    tol: float = 1e-10
    max_iter: int = 200
    beta: float = 0.0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")


@dataclass(frozen=True)
class MildSolution:
    grid: TimeGrid
    basis: SpectralBasis
    coeffs: np.ndarray
    iterations: int
    residuals: Tuple[float, ...]
    mu: float


def convolves_history(spec: Nonlinearity, ell: HistoryKernel) -> bool:
    """Whether ``picard_solve``'s sweeps convolve the history ell * u."""
    return spec.reads_history and ell.kind != "zero"


def picard_solve(
    ctx: ResolventContext,
    spec: Nonlinearity,
    ell: HistoryKernel,
    xi: np.ndarray,
    opts: PicardOptions = PicardOptions(),
) -> MildSolution:
    """Iterate u <- S xi + S * f(u, ell * u) to a fixed point.

    The residual metric is sup_i exp(-beta t_i) |u_new - u_old|_mu; beta = 0
    is the plain sup norm.  Raises NonConvergence with the residual history
    when the cap is hit, or when a sweep overflows (a diverging iteration).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (ctx.basis.n_modes,):
        raise ValueError("initial coefficients do not match the basis")
    if not np.all(np.isfinite(xi)):
        raise ValueError("initial coefficients must be finite")
    grid, basis = ctx.grid, ctx.basis
    omega = ctx.table.omega
    damp = np.exp(-opts.beta * grid.nodes)

    convolves = convolves_history(spec, ell)
    # w is zero or unread: one read-only zero series, no table, serves every
    # sweep
    zeros = np.broadcast_to(0.0, omega.shape)
    u = omega * xi[None, :]
    residuals = []
    for _ in range(opts.max_iter):
        try:
            # w dies with the call
            f_rows = spec.apply_series(
                u, history_series(ell, u, grid) if convolves else zeros, basis
            )
        except OverflowDiagnostic as exc:
            raise NonConvergence(
                f"iteration diverged at sweep {len(residuals) + 1}: {exc}",
                tuple(residuals),
            ) from exc
        # S * f is written over f, the sweep's one table besides omega and u
        u_new = convolve_sol_op(ctx, f_rows, out=f_rows)
        for rows in _row_slices(u_new.shape[0], basis.n_modes):
            u_new[rows] += omega[rows] * xi[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.max(damp * hnorm(u_new, basis, spec.mu, u)))
        residuals.append(res)
        if not math.isfinite(res):
            raise NonConvergence(f"iteration diverged at sweep {len(residuals)}: "
                                 f"the residual is {res}", tuple(residuals))
        u = u_new
        if res < opts.tol:
            return MildSolution(grid, basis, u, len(residuals), tuple(residuals), spec.mu)
    raise NonConvergence(
        f"no fixed point after {opts.max_iter} sweeps "
        f"(last residual {residuals[-1]:.3e})",
        tuple(residuals),
    )


# -- time-regularity estimate ---------------------------------------------


def _beta(a: float, b: float) -> float:
    """Euler's B(a, b) for a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class HolderReport:
    gamma: float
    mu: float
    t_min: float
    seminorm: float
    t_at: float
    h_at: float
    ell_star1: float
    ell_star2: float
    gamma_in_range: bool


def _history_weighted_sup(ell: HistoryKernel, grid: TimeGrid, gamma: float, i_min: int) -> float:
    """sup over nodes of t^gamma int_0^t |ell(tau)| (t-tau)^(-gamma) dtau."""
    if ell.kind == "zero":
        return 0.0
    t = grid.nodes
    if ell.kind == "powerlaw":
        # |A| t^(q+1) B(q+1, 1-gamma): increasing, so the horizon wins
        q = ell.exponent
        return float(
            abs(ell.amplitude) * t[-1] ** (q + 1.0) * _beta(q + 1.0, 1.0 - gamma)
        )
    sing = HistoryKernel.powerlaw(1.0, -gamma)
    w = lag_weights(sing.moments, grid)
    abs_ell = np.abs(np.asarray(ell(t), dtype=float))
    conv = product_convolve(w, abs_ell)
    vals = t[i_min:] ** gamma * conv[i_min:]
    # no node at or after t_min (grids shorter than t_min): an empty sup, as
    # for the seminorm itself
    return float(np.max(vals, initial=0.0))


def holder_estimate(
    sol: MildSolution,
    gamma: float,
    t_min: Optional[float] = None,
    ell: Optional[HistoryKernel] = None,
    delta: Optional[float] = None,
) -> HolderReport:
    """Weighted Holder seminorm of a trajectory over dyadic increments.

    seminorm = sup (t/h)^gamma |u(t+h) - u(t)|_mu over grid nodes t >= t_min
    and h in {T/2, T/4, ..., dt}, in the solution's own mu.  With a history
    kernel ell it also reports
    ell_star1 = sup (t/h)^gamma int_t^(t+h) |ell| and ell_star2 = sup t^gamma
    int_0^t |ell(tau)| (t-tau)^(-gamma) dtau; with delta, a gamma outside
    (delta/2, 1/2) warns and clears gamma_in_range.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    grid = sol.grid
    t = grid.nodes
    n = grid.n_steps
    dt = grid.dt
    if t_min is None:
        t_min = 4.0 * dt
    i_min = max(int(np.ceil(t_min / dt - 1e-12)), 1)
    if delta is not None and not (0.5 * delta < gamma < 0.5):
        warnings.warn(
            f"gamma = {gamma} is outside (delta/2, 1/2) = "
            f"({0.5 * delta}, 0.5); the seminorm is reported anyway",
            stacklevel=2,
        )
    gamma_in_range = delta is None or (0.5 * delta < gamma < 0.5)

    best, t_at, h_at = 0.0, float("nan"), float("nan")
    ell1 = 0.0
    h_steps = n // 2
    while h_steps >= 1:
        h = h_steps * dt
        rows = slice(i_min, n - h_steps + 1)
        if i_min <= n - h_steps:
            later = sol.coeffs[i_min + h_steps :]
            diffs = hnorm(later, sol.basis, sol.mu, sol.coeffs[rows])
            vals = (t[rows] / h) ** gamma * diffs
            j = int(np.argmax(vals))
            if vals[j] > best:
                best, t_at, h_at = float(vals[j]), float(t[i_min + j]), float(h)
            if ell is not None and ell.kind != "zero":
                inc = ell.cumulative_abs(t[rows] + h) - ell.cumulative_abs(t[rows])
                ell1 = max(ell1, float(np.max((t[rows] / h) ** gamma * inc)))
        h_steps //= 2

    ell2 = 0.0 if ell is None else _history_weighted_sup(ell, grid, gamma, i_min)

    return HolderReport(
        gamma=gamma,
        mu=sol.mu,
        t_min=float(i_min * dt),
        seminorm=best,
        t_at=t_at,
        h_at=h_at,
        ell_star1=ell1,
        ell_star2=ell2,
        gamma_in_range=gamma_in_range,
    )
