"""The diagonal solution-operator family S(t) and its verified bounds.

S(t) multiplies the n-th eigencoefficient by omega(t, lambda_n); the
convolution S * g uses the lag quadrature matching the table's scheme.

``verify_sol_op_bounds`` checks the operator estimates numerically on random
trial data, drawn from the standard library's ``random.Random(seed)``
(``_trial_draws``), and returns one ``kernels.Check`` row per estimate, in this
order; a row that does not apply is a "skip" with its reason:

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
import operator
import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .grids import TimeGrid
from .kernels import CHECK_TOL, Check, HistoryKernel, MemoryKernel, _Worst
from .relaxation import RelaxationTable, relaxation_batch
from .spectral import SpectralBasis, _row_slices, hnorm

__all__ = [
    "ResolventContext",
    "build_resolvent",
    "convolve_sol_op",
    "verify_sol_op_bounds",
    "reciprocal_cumulative_integrable",
]


@dataclass(frozen=True)
class ResolventContext:
    """S(t) on ``basis``; its grid and memory kernel are the table's."""

    basis: SpectralBasis
    table: RelaxationTable

    def __post_init__(self):
        if not np.array_equal(self.table.lambdas, self.basis.eigenvalues):
            raise ValueError("table eigenvalues do not match the basis")

    @property
    def grid(self) -> TimeGrid:
        return self.table.grid

    @property
    def kernel(self) -> MemoryKernel:
        return self.table.kernel


def build_resolvent(
    kernel: MemoryKernel,
    basis: SpectralBasis,
    grid: TimeGrid,
    scheme: Optional[str] = None,
) -> ResolventContext:
    table = relaxation_batch(kernel, basis.eigenvalues, grid, scheme)
    return ResolventContext(basis, table)


def convolve_sol_op(
    ctx: ResolventContext, g: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(S * g)(t_i) for a coefficient series g of shape (N+1, n_modes), or for
    a time profile of shape (N+1,) shared by every mode; the result has shape
    (N+1, n_modes) either way, and is written into out when given.  out may
    be g itself, with the bits of a fresh result: ``picard_solve`` writes
    S * f over f.

    The quadrature follows the table's scheme: trapezoid rule for trapezoid
    tables, right-endpoint rule for rectangle tables.  Mixing them is not
    just an accuracy question; the trapezoid rule weights the newest source
    sample by dt/2, which dwarfs the true convolution mass ~1/lambda of a
    stiff column and breaks the smoothing estimates the family must obey.
    """
    g = np.asarray(g, dtype=float)
    omega = ctx.table.omega
    if g.shape not in (omega.shape, omega.shape[:1]):
        raise ValueError("series shape does not match grid x modes")
    return ctx.table.lag_convolve(omega, g, out)


def reciprocal_cumulative_integrable(kernel: MemoryKernel) -> bool:
    """Whether 1/(1*m) is integrable near 0, decided from the small-t law.

    Only the fractional kind has (1*m)(t) ~ t^(1-alpha), so 1/(1*m) ~
    t^(alpha-1) is integrable.  Every bounded kind has (1*m)(t) <= m(0) t
    (or (1*m) = 0 near 0 when m(0) = 0), so 1/(1*m) >= 1/(m(0) t) diverges
    at any scale, on every horizon.
    """
    return not kernel.bounded_at_zero


def _reciprocal_weight(kernel: MemoryKernel) -> HistoryKernel:
    """1/(1*m) of the fractional kind, a power law."""
    scale = (1.0 - kernel.alpha) * math.gamma(kernel.alpha) / kernel.m0
    return HistoryKernel.powerlaw(scale, kernel.alpha - 1.0)


# the trial series amp * (1 + sin(2 pi t/T + phase)/2) of each mode, written
# as amp * (E0 + a E1 + b E2) over the time profiles E = (1, sin 2 pi t/T,
# cos 2 pi t/T), with a = cos(phase)/2 and b = sin(phase)/2; its squared
# norm is a sum over the products E_j E_k of these index pairs
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _profiles(t: np.ndarray) -> np.ndarray:
    arg = 2.0 * np.pi * t / t[-1]
    return np.stack((np.ones_like(t), np.sin(arg), np.cos(arg)))


def _pair_weights(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of E_j E_k (``_PAIRS``) in sum_n w_n (1 + a_n E1 + b_n E2)^2."""
    return np.array([w.sum(), 2.0 * (w @ a), 2.0 * (w @ b),
                     w @ (a * a), 2.0 * (w @ (a * b)), w @ (b * b)])


def _trial_draws(seed, n_modes: int, n_trials: int):
    """The trials' random numbers, drawn from ``random.Random(seed)`` in a
    fixed order: the sol_op_bound vectors xi, then the smoothing rows'
    (amp, phase) pairs, then the derivative_decay vectors xi, n_trials of
    each.  Every amp and xi entry is gauss(0, 1) and every phase
    uniform(0, 2 pi); a trial's draws are one array, of shape (n_modes,) or,
    for a pair, (2, n_modes).  The smoothing pass never builds the series
    the pairs stand for.

    The seed is any integer, numpy's included; a float raises TypeError and
    a negative integer ValueError.  ``import numpy`` already loads the
    ``random`` module, where numpy.random would load OpenSSL's hashes.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    rng = random.Random(seed)

    def normals():
        return np.array([rng.gauss(0.0, 1.0) for _ in range(n_modes)])

    def phases():
        return np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_modes)])

    sol_op = [normals() for _ in range(n_trials)]
    pairs = [np.stack((normals(), phases())) for _ in range(n_trials)]
    decay = [normals() for _ in range(n_trials)]
    return sol_op, pairs, decay


# a trial bound that overflows (a large mu) shows as a non-finite margin,
# which fails its row, and not as a warning
@np.errstate(over="ignore", invalid="ignore")
def verify_sol_op_bounds(
    ctx: ResolventContext,
    mu: float = 1.0,
    delta: float = 0.5,
    n_trials: int = 20,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> List[Check]:
    """Evaluate the operator estimates on random trials; report worst margins.

    The three conv_smoothing rows rest on superposition: S* and every
    rule are linear, and each trial series is amp * (E0 + a E1 + b E2) over
    three fixed time profiles (``_PAIRS``).  The profiles are convolved with
    the table once, and the six products E_j E_k with each rule once, so a
    trial costs O(N modes) arithmetic and no transform, and memory does not
    grow with n_trials.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    t = ctx.grid.nodes
    omega = ctx.table.omega
    basis = ctx.basis
    n_modes = basis.n_modes
    sol_op_draws, draws, decay_draws = _trial_draws(seed, n_modes, n_trials)

    # sol_op_bound: diagonal action vs the slowest mode's profile, with
    # |S(t) xi|^2 = (omega * omega) @ xi^2 a mat-vec per trial.  This row and
    # the conv_smoothing rows take t > 0 only: at t = 0, S(0) xi = xi and
    # S * g = 0, so both sides of each bound meet there by construction
    sol_op = _Worst()
    later = omega[1:]
    squares = later * later
    for xi in sol_op_draws:
        lhs = np.sqrt(squares @ (xi * xi))
        sol_op.fold(later[:, 0] * hnorm(xi, basis, 0.0) - lhs, t[1:])
    del squares

    # derivative_decay, forward difference quotients, first 4 cells excluded
    if not ctx.kernel.nonincreasing:
        decay_row = Check("derivative_decay", "skip",
                          reason="kernel is not nonincreasing")
    elif t.size < 6:
        decay_row = Check("derivative_decay", "skip",
                          reason="grid has no cell past the first 4")
    else:
        decay = _Worst()
        # squared in place, for the same mat-vec per trial
        increments = np.diff(omega, axis=0)
        increments *= increments
        t4 = t[4:-1]
        for xi in decay_draws:
            norm_xi = hnorm(xi, basis, 0.0)
            dq = np.sqrt(increments @ (xi * xi)) / ctx.grid.dt
            decay.fold(1.0 / t4 - dq[4:] / norm_xi, t4)
        decay_row = decay.check("derivative_decay", tol)
        # an (N_t x modes) table the smoothing pass below must not carry
        del increments

    # one rule per conv_smoothing row for the right-hand side, applied to
    # the squared trial norm, each by the table's rule: omega's slowest
    # column, then the weights singular at lag zero.  The right-endpoint
    # rule underestimates the cell integral of a decreasing weight, so on a
    # rectangle table it is the conservative side of the bound
    reciprocal = reciprocal_cumulative_integrable(ctx.kernel)
    weights = [HistoryKernel.powerlaw(1.0, -delta)]
    if reciprocal:
        weights.append(_reciprocal_weight(ctx.kernel))
    labels = ("conv_smoothing_l2", "conv_smoothing_singular", "conv_smoothing_reciprocal")
    orders = (mu - 1.0, mu - 1.0 - delta, mu - 2.0)
    profiles = _profiles(t)
    # each rule applied to the six E_j E_k, then S*E_k for each profile
    # (in this order, so the rules' transforms run before the S*E_k exist)
    products = np.stack([profiles[j] * profiles[k] for j, k in _PAIRS], axis=1)
    rule_tables = [ctx.table.lag_convolve(omega[:, 0], products)]
    rule_tables += [ctx.table.weight_convolve(w, products) for w in weights]
    del products
    p0, p1, p2 = (convolve_sol_op(ctx, e) for e in profiles)
    lam = basis.eigenvalues
    lhs = np.empty_like(t)
    worst = [_Worst() for _ in rule_tables]
    for amp, phase in draws:
        a, b = 0.5 * np.cos(phase), 0.5 * np.sin(phase)
        weight = lam**mu * amp * amp
        # |S*g|_mu^2 with S*g = amp * (P0 + a P1 + b P2), a block of rows at
        # a time, so no (N_t x modes) temporary is made per trial
        for block in _row_slices(t.size, n_modes):
            conv = p1[block] * a
            conv += p0[block]
            conv += p2[block] * b
            conv *= conv
            lhs[block] = conv @ weight
        for rho, table, w in zip(orders, rule_tables, worst):
            rhs = table[1:] @ _pair_weights(lam**rho * amp * amp, a, b)
            w.fold(rhs - lhs[1:], t[1:])
    rows = [w.check(label, tol) for label, w in zip(labels, worst)]
    if not reciprocal:
        rows.append(Check(labels[2], "skip", reason="1/(1*m) is not integrable "
                          "at t = 0 for a kernel bounded there"))
    l2, singular, recip = rows
    return [sol_op.check("sol_op_bound", tol), l2, decay_row, singular, recip]
