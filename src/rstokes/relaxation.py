"""Relaxation profiles omega(t, lambda) by implicit product integration.

omega solves the scalar Volterra equation

    omega(t) + lam * int_0^t (1 + m(t - tau)) omega(tau) dtau = 1

and replaces exp(-lam*t) of classical diffusion as the per-mode decay
profile.  The solver collocates with exact kernel cell moments; see
``volterra`` for the trapezoid/rectangle scheme switch on stiff batches.  A
table records its kernel, grid and rule, and its consumers read them there.
``verify_relaxation`` checks the profile's structural estimates and reports
one ``kernels.Check`` row per estimate and lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .grids import TimeGrid
from .kernels import CHECK_TOL, Check, HistoryKernel, MemoryKernel, verdict
from .volterra import lag_weights, product_convolve, sampled_convolve, second_kind_solve

__all__ = [
    "RelaxationTable",
    "relaxation_batch",
    "verify_relaxation",
]


@dataclass(frozen=True)
class RelaxationTable:
    """omega samples of ``kernel`` by the rule ``scheme``: one row per grid
    node, one column per eigenvalue."""

    grid: TimeGrid
    lambdas: np.ndarray
    omega: np.ndarray
    scheme: str
    kernel: MemoryKernel

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        if self.omega.shape != (self.grid.nodes.size, lam.size):
            raise ValueError("omega shape does not match grid x lambdas")

    def lag_convolve(
        self, samples: np.ndarray, phi: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(samples * phi)(t_i) by this table's lag rule (``volterra.
        sampled_convolve``): the trapezoid rule for a trapezoid table, the
        right-endpoint rule for a rectangle one (``resolvent.convolve_sol_op``
        says why the two must not mix).  The result is written into out when
        given, which may be phi itself, with the bits of a fresh result."""
        return sampled_convolve(samples, phi, self.grid.dt, self.scheme, out)

    def weight_convolve(self, weight: HistoryKernel, phi: np.ndarray) -> np.ndarray:
        """(weight * phi)(t_i) for a weight that may be singular at lag 0, by
        this table's rule: a rectangle table samples it at lags >= 1, which
        the right-endpoint rule never passes; a trapezoid table, whose rule
        would read lag 0, takes product weights of its exact moments."""
        if self.scheme == "trapezoid":
            return product_convolve(lag_weights(weight.moments, self.grid), phi)
        samples = np.concatenate(([0.0], weight(self.grid.nodes[1:])))
        return sampled_convolve(samples, phi, self.grid.dt, "rectangle")


def relaxation_batch(
    kernel: MemoryKernel,
    lambdas,
    grid: TimeGrid,
    scheme: Optional[str] = None,
) -> RelaxationTable:
    """Solve all columns sharing one kernel moment table and one scheme."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lambdas must be a nonempty 1-d sequence")
    if np.any(np.diff(lams) < 0.0):
        raise ValueError("lambdas must be sorted ascending")
    omega, used = second_kind_solve(kernel.a_moments, grid, lams, 1.0, scheme)
    return RelaxationTable(grid, lams, omega, used, kernel)


@np.errstate(over="ignore", invalid="ignore")
def verify_relaxation(table: RelaxationTable, tol: float = CHECK_TOL) -> List[Check]:
    """Check the structural estimates of the relaxation profile per column:
    one row per estimate and lambda (param), in the order listed below.

    The estimates are guarantees only when 1 + m is completely positive
    (screen a kernel with ``kernels.certify_completely_positive``).  Outside
    that class the monotonicity rows can fail genuinely, not numerically:
    a table with a flat left extension has a concave kink, its resolvent
    really does rebound, and the report will say so.

    positivity        omega > 0; strongly damped columns cancel down to
                      +-eps or exactly 0 in double precision, so this row
                      passes within tol like the other rows
    upper_bound       omega <= 1 / (1 + lam * int_0^t (1+m)), exact cumulative
    monotone_time     omega nonincreasing in t
    integral_bound    int_0^t omega <= (1 - omega(t)) / lam, quadrature
                      matched to the table's scheme: trapezoid rule for
                      trapezoid tables, right-endpoint rule for rectangle
                      tables (the trapezoid rule overshoots the discrete
                      identity by O(h) on strongly damped columns)
    monotone_lambda   columns nonincreasing as lambda grows (adjacent pairs;
                      the row is labeled by the larger lambda)

    Every margin is the minimum over the nodes t > 0.  At t = 0, omega = 1
    meets the upper bound and every other column exactly, and both sides of
    the integral bound vanish, so that node would pin those margins at 0.
    A bound that overflows (a huge lambda) shows as a non-finite margin,
    which fails its row, and not as a warning.
    """
    t = table.grid.nodes[1:]
    dt = table.grid.dt
    cum_a = t + table.kernel.cumulative(t)
    omega = table.omega
    rows = []
    for n, lam in enumerate(table.lambdas):
        # w and its values one node earlier
        w, before = omega[1:, n], omega[:-1, n]
        if table.scheme == "trapezoid":
            cells = dt * (w + before) / 2.0
        else:
            cells = dt * w
        margins = {
            "positivity": w,
            "upper_bound": 1.0 / (1.0 + lam * cum_a) - w,
            "monotone_time": before - w,
            "integral_bound": (1.0 - w) / lam - np.cumsum(cells),
        }
        rows.extend(verdict(name, m, t, tol, lam) for name, m in margins.items())
    for n in range(table.lambdas.size - 1):
        # equal lambdas (degenerate eigenvalues) must agree exactly
        diff = omega[1:, n] - omega[1:, n + 1]
        rows.append(verdict("monotone_lambda", diff, t, tol, table.lambdas[n + 1]))
    return rows
