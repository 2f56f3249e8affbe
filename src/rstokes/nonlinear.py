"""Nonlinear mild-solution machinery.

The state equation couples a memory-damped diffusion with a reaction term
built from the state v and its running history w = (ell * v):

    u(t) = S(t) xi + int_0^t S(t - tau) f(u(tau), w(tau)) dtau

Fixed-point iteration on that formula converges geometrically whenever the
data are small enough; ``small_data_gate`` and ``spectral_gap_gate`` evaluate
the sufficient conditions and ``holder_estimate`` measures time regularity
of a computed trajectory.

What ``picard_solve`` does once per solve and what it does per sweep:

* once: the head S(t) xi, the lag weights of ell (``_history_operator``),
  and the advection matrix M = project(chi . grad e_n), which the basis
  keeps for each chi (``SpectralBasis._advection_matrix``);
* per sweep: w = ell * u (one transform of u shared by both weight
  columns), f(u, w), the convolution S * f and the residual.  f's power term
  synthesizes u at the nodes in row blocks and maps, weights and projects
  each block in one buffer; its advection term is the product W @ M.

No spectrum of (N_t + 1) rows is kept from one sweep to the next.
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
from .spectral import SpectralBasis, hnorm, synthesize
from .volterra import endpoint_weights, lag_weights, product_convolve

__all__ = [
    "Nonlinearity",
    "OverflowDiagnostic",
    "NonConvergence",
    "history_series",
    "PicardOptions",
    "MildSolution",
    "picard_solve",
    "GateDecision",
    "small_data_gate",
    "spectral_gap_gate",
    "select_invariant_radius",
    "HolderReport",
    "holder_estimate",
]


class OverflowDiagnostic(RuntimeError):
    """Pointwise evaluation produced a non-finite sample."""


class NonConvergence(RuntimeError):
    """Fixed-point iteration hit the cap; carries the residual history."""

    def __init__(self, message: str, residuals: Tuple[float, ...]):
        super().__init__(message)
        self.residuals = residuals


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


def _node(basis: SpectralBasis, j: int):
    """Collocation node j as a float or a tuple of floats."""
    x = basis.nodes[j]
    return float(x) if basis.nodes.ndim == 1 else tuple(float(c) for c in x)


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f(v, w) acting on coefficient series.

    kind is one of zero | linear_diagonal | power | advection | sum | custom;
    use the factory classmethods rather than the constructor.  mu is the
    regularity order of the state (the norm of the Picard residual and of
    the Holder estimate), delta the time-integrability exponent of the
    damping estimate (the gates and the Holder range delta/2 < gamma < 1/2);
    theta, the dual output order, defaults to 1 + delta - mu and must be
    positive.
    """

    kind: str
    mu: float = 1.0
    delta: float = 0.5
    theta: Optional[float] = None
    coeffs: Optional[np.ndarray] = None
    power: float = 2.0
    scale: float = 1.0
    signed: bool = True
    chi: Tuple[float, ...] = ()
    parts: Tuple["Nonlinearity", ...] = ()
    series_fn: Optional[Callable] = None
    lip_state: Optional[Callable[[float], float]] = None
    lip_history: Optional[Callable[[float], float]] = None
    state_global: Optional[float] = None
    history_global: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.mu < 2.0:
            raise ValueError("mu must lie in (0, 2)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.theta is None:
            object.__setattr__(self, "theta", 1.0 + self.delta - self.mu)
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")

    # -- factories ---------------------------------------------------------

    @classmethod
    def zero(cls, **kw) -> "Nonlinearity":
        return cls(kind="zero", state_global=0.0, history_global=0.0, **kw)

    @classmethod
    def linear_diagonal(cls, coeffs, **kw) -> "Nonlinearity":
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("per-mode coefficients must be 1-d")
        return cls(kind="linear_diagonal", coeffs=c, history_global=0.0, **kw)

    @classmethod
    def polynomial_power(cls, power: float, scale: float = 1.0, signed: bool = True, **kw):
        if power <= 1.0:
            raise ValueError("power must exceed 1")
        return cls(
            kind="power",
            power=float(power),
            scale=float(scale),
            signed=signed,
            history_global=0.0,
            **kw,
        )

    @classmethod
    def advection_history(cls, chi, **kw) -> "Nonlinearity":
        chi_t = tuple(float(c) for c in np.atleast_1d(chi))
        amp = float(np.linalg.norm(chi_t))
        return cls(
            kind="advection",
            chi=chi_t,
            state_global=0.0,
            history_global=amp,
            **kw,
        )

    @classmethod
    def sum_of(cls, *parts: "Nonlinearity", **kw) -> "Nonlinearity":
        if not parts:
            raise ValueError("sum needs at least one part")
        kw.setdefault("mu", parts[0].mu)
        kw.setdefault("delta", parts[0].delta)
        sg = [p.state_global for p in parts]
        hg = [p.history_global for p in parts]
        return cls(
            kind="sum",
            parts=tuple(parts),
            state_global=None if any(v is None for v in sg) else float(np.sum(sg)),
            history_global=None if any(v is None for v in hg) else float(np.sum(hg)),
            **kw,
        )

    @classmethod
    def custom_series(cls, fn: Callable, **kw) -> "Nonlinearity":
        """fn maps coefficient arrays (V, W, basis) -> array, vectorized in t."""
        return cls(kind="custom", series_fn=fn, **kw)

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
            return V * self.coeffs[None, :]
        if self.kind == "power":
            out = np.empty_like(V)
            for rows in basis._row_blocks(V.shape[0]):
                out[rows] = self._power_block(V, rows, basis)
            return out
        if self.kind == "advection":
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
            out = np.asarray(self.series_fn(V, W, basis), dtype=float)
            if out.shape != V.shape:
                raise ValueError("custom series callback returned a bad shape")
            if not np.all(np.isfinite(out)):
                # the callback returns coefficients: name a mode, not a node
                i, j = np.argwhere(~np.isfinite(out))[0]
                raise OverflowDiagnostic(
                    f"custom reaction produced a non-finite coefficient in mode "
                    f"{j + 1} of {basis.n_modes} (time row {i})"
                )
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

    def _power_block(self, V, rows: slice, basis: SpectralBasis) -> np.ndarray:
        """Coefficients of the power term for V[rows].

        The node values are mapped, weighted and contracted in one buffer,
        which dies with the call, so no two blocks' buffers are alive at once.
        Finiteness is judged on the coefficients.
        """
        mapped = self._power_samples(synthesize(basis, V[rows]))
        with np.errstate(over="ignore", invalid="ignore"):
            mapped *= basis.node_weights
            coeffs = basis._project_weighted(mapped)
        if not np.all(np.isfinite(coeffs)):
            self._power_overflow(V, rows, coeffs, basis)
        return coeffs

    def _power_overflow(self, V, rows: slice, coeffs, basis: SpectralBasis) -> None:
        """Raise for a row block whose coefficients are not all finite.

        Names the block's first non-finite sample, recomputed without the
        node weights; if every sample is finite, the projection overflowed.
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

    # -- Lipschitz data ------------------------------------------------------

    def lipschitz_curves(self, basis: SpectralBasis):
        """(L(rho), K(rho')) curves on invariant balls of the given basis.

        Built-in kinds get conservative truncated-basis constants; custom
        specs must supply lip_state / lip_history.  The curves bound the
        increment of f in L2 against state increments in the mu norm and
        history increments in the same norm.
        """
        if self.lip_state is not None or self.lip_history is not None:
            L = self.lip_state or (lambda rho: 0.0)
            K = self.lip_history or (lambda rho: 0.0)
            return L, K
        lam = basis.eigenvalues
        if self.kind == "zero":
            return (lambda rho: 0.0), (lambda rho: 0.0)
        if self.kind == "linear_diagonal":
            lstar = float(np.max(np.abs(self.coeffs) * lam ** (-self.mu / 2.0)))
            return (lambda rho: lstar), (lambda rho: 0.0)
        if self.kind == "power":
            # |u|_inf <= sup|e_n| * sqrt(sum lam^-mu) * |u|_mu on the truncation
            sup_e = basis._sup_mode()
            c_inf = sup_e * float(np.sqrt(np.sum(lam ** (-self.mu))))
            c_l2 = float(lam[0] ** (-self.mu / 2.0))
            p, s = self.power, abs(self.scale)

            def L(rho: float) -> float:
                return s * p * (c_inf * rho) ** (p - 1.0) * c_l2

            return L, (lambda rho: 0.0)
        if self.kind == "advection":
            amp = float(np.linalg.norm(self.chi))
            # gradient costs one half power of the spectrum; mu >= 1 absorbs it
            kstar = amp * float(np.max(lam ** ((1.0 - self.mu) / 2.0)))
            return (lambda rho: 0.0), (lambda rho: kstar)
        if self.kind == "sum":
            curves = [p.lipschitz_curves(basis) for p in self.parts]

            def L(rho: float) -> float:
                return float(sum(c[0](rho) for c in curves))

            def K(rho: float) -> float:
                return float(sum(c[1](rho) for c in curves))

            return L, K
        raise ValueError(
            "custom nonlinearity needs explicit lip_state / lip_history curves"
        )


# -- history operator --------------------------------------------------------


def history_series(ell: HistoryKernel, series: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(ell * series)(t_i) rows by product integration with exact moments."""
    series = np.asarray(series, dtype=float)
    if series.shape[0] != grid.nodes.size:
        raise ValueError("series rows do not match the grid")
    return _history_operator(ell, grid)(series)


def _history_operator(ell: HistoryKernel, grid: TimeGrid) -> Callable:
    """series -> ell * series on grid; a uniform grid's lag weights are built
    here, once, so a Picard solve reuses them in every sweep."""
    if ell.kind == "zero":
        return np.zeros_like
    if grid.is_uniform:
        weights = lag_weights(ell.moments, grid)
        return lambda series: product_convolve(weights, series)
    return lambda series: _graded_history(ell, series, grid)


def _graded_history(ell: HistoryKernel, series: np.ndarray, grid: TimeGrid) -> np.ndarray:
    # the lag cells differ from row to row: weights per row, O(N^2)
    t = grid.nodes
    steps = grid.steps()
    out = np.zeros_like(series)
    for i in range(1, t.size):
        hi = t[i] - t[:i]
        lo = t[i] - t[1 : i + 1]
        left, right = endpoint_weights(ell.moments, lo, hi, steps[:i])
        out[i] = left @ series[:i] + right @ series[1 : i + 1]
    return out


# -- fixed-point solver -------------------------------------------------------


@dataclass(frozen=True)
class PicardOptions:
    tol: float = 1e-10
    max_iter: int = 200
    beta: float = 0.0
    forcing: Optional[np.ndarray] = None

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
    beta: float
    converged: bool


def picard_solve(
    ctx: ResolventContext,
    spec: Nonlinearity,
    ell: HistoryKernel,
    xi: np.ndarray,
    opts: PicardOptions = PicardOptions(),
) -> MildSolution:
    """Iterate u <- S xi + S * (f(u, ell * u) + forcing) to a fixed point.

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
    t = grid.nodes
    damp = np.exp(-opts.beta * t)
    head = ctx.table.omega * xi[None, :]
    forcing = opts.forcing
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != head.shape:
            raise ValueError("forcing series shape does not match grid x modes")

    history = _history_operator(ell, grid)
    u = head
    residuals = []
    for _ in range(opts.max_iter):
        w = history(u)
        try:
            f_rows = spec.apply_series(u, w, basis)
        except OverflowDiagnostic as exc:
            raise NonConvergence(
                f"iteration diverged at sweep {len(residuals) + 1}: {exc}",
                tuple(residuals),
            ) from exc
        if forcing is not None:
            f_rows = f_rows + forcing
        u_new = head + convolve_sol_op(ctx, f_rows)
        res = float(np.max(damp * hnorm(u_new - u, basis, spec.mu)))
        residuals.append(res)
        u = u_new
        if res < opts.tol:
            return MildSolution(
                grid, basis, u, len(residuals), tuple(residuals), spec.mu,
                opts.beta, True,
            )
    raise NonConvergence(
        f"no fixed point after {opts.max_iter} sweeps "
        f"(last residual {residuals[-1]:.3e})",
        tuple(residuals),
    )


# -- solvability gates --------------------------------------------------------


@dataclass(frozen=True)
class GateDecision:
    name: str
    value: float
    threshold: float
    passed: bool

    def __str__(self) -> str:
        rel = "<" if self.passed else ">="
        return f"{self.name}: {self.value:.6g} {rel} {self.threshold:.6g}"


def small_data_gate(
    state_global: float,
    history_global: float,
    ell_l1: float,
    horizon: float,
    delta: float,
) -> GateDecision:
    """Short-horizon contraction condition on global Lipschitz data."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    value = (
        8.0
        * horizon ** (1.0 - delta)
        / (1.0 - delta)
        * (state_global**2 + history_global**2 * ell_l1**2)
    )
    return GateDecision("small_data_gate", float(value), 1.0, bool(value < 1.0))


def spectral_gap_gate(
    state_global: float,
    history_global: float,
    ell_l1: float,
    lambda1: float,
) -> GateDecision:
    """Arbitrary-horizon condition: Lipschitz data below the spectral gap."""
    if lambda1 <= 0.0:
        raise ValueError("lambda1 must be positive")
    value = 4.0 * (state_global**2 + history_global**2 * ell_l1**2)
    return GateDecision("spectral_gap_gate", float(value), float(lambda1), bool(value < lambda1))


# select_invariant_radius tries the radii 2^k * 2|xi| for k < _MAX_DOUBLINGS
_MAX_DOUBLINGS = 60


def select_invariant_radius(
    spec: Nonlinearity,
    basis: SpectralBasis,
    xi_norm: float,
    ell_l1: float,
    horizon: float,
) -> float:
    """Smallest radius 2^k * 2|xi| whose local constants satisfy the gate.

    The ball of this radius is invariant for the fixed-point map and the
    initial datum sits in its lower half.  Raises when the scan fails, which
    means the local Lipschitz growth outruns the short-horizon damping.
    """
    if xi_norm <= 0.0:
        raise ValueError("xi_norm must be positive")
    L, K = spec.lipschitz_curves(basis)
    coef = 8.0 * horizon ** (1.0 - spec.delta) / (1.0 - spec.delta)
    rho = 2.0 * xi_norm
    for _ in range(_MAX_DOUBLINGS):
        value = coef * (L(rho) ** 2 + K(rho * ell_l1) ** 2 * ell_l1**2)
        if value <= 1.0:
            return rho
        rho *= 2.0
    raise ValueError(
        "no invariant radius found: local Lipschitz constants exceed the "
        f"short-horizon budget for every radius up to {rho:.3e}; shrink the "
        "horizon or the data"
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
    gate_value: Optional[float]
    gate_passed: Optional[bool]
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
    mu: Optional[float] = None,
    t_min: Optional[float] = None,
    ell: Optional[HistoryKernel] = None,
    state_global: Optional[float] = None,
    history_global: Optional[float] = None,
    delta: Optional[float] = None,
) -> HolderReport:
    """Weighted Holder seminorm of a trajectory over dyadic increments.

    seminorm = sup (t/h)^gamma |u(t+h) - u(t)|_mu over grid nodes t >= t_min
    and h in {T/2, T/4, ..., dt}.  When the history kernel and global
    constants are supplied, the singular-weight gate value
    16 B(1-delta, 1-2*gamma) T^(1-delta) (L^2 + K^2 ell2^2) is evaluated too
    (finite only for gamma < 1/2).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not sol.grid.is_uniform:
        raise ValueError("dyadic increments need a uniform grid")
    mu = sol.mu if mu is None else mu
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
        idx = np.arange(i_min, n - h_steps + 1)
        if idx.size:
            diffs = hnorm(sol.coeffs[idx + h_steps] - sol.coeffs[idx], sol.basis, mu)
            vals = (t[idx] / h) ** gamma * diffs
            j = int(np.argmax(vals))
            if vals[j] > best:
                best, t_at, h_at = float(vals[j]), float(t[idx[j]]), float(h)
            if ell is not None and ell.kind != "zero":
                inc = ell.cumulative_abs(t[idx] + h) - ell.cumulative_abs(t[idx])
                ell1 = max(ell1, float(np.max((t[idx] / h) ** gamma * inc)))
        h_steps //= 2

    ell2 = 0.0
    if ell is not None and ell.kind != "zero":
        ell2 = _history_weighted_sup(ell, grid, gamma, i_min)

    gate_value = None
    gate_passed = None
    if state_global is not None and history_global is not None and delta is not None:
        if gamma < 0.5:
            gate_value = float(
                16.0
                * _beta(1.0 - delta, 1.0 - 2.0 * gamma)
                * t[-1] ** (1.0 - delta)
                * (state_global**2 + history_global**2 * ell2**2)
            )
            gate_passed = bool(gate_value < 1.0)
        else:
            gate_value = float("inf")
            gate_passed = False

    return HolderReport(
        gamma=gamma,
        mu=mu,
        t_min=float(i_min * dt),
        seminorm=best,
        t_at=t_at,
        h_at=h_at,
        ell_star1=ell1,
        ell_star2=ell2,
        gate_value=gate_value,
        gate_passed=gate_passed,
        gamma_in_range=gamma_in_range,
    )
